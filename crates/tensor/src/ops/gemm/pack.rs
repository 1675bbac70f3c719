//! Operand packing for the register-blocked micro-kernels.
//!
//! The micro-kernels ([`super::kernel_avx2`], [`super::kernel_scalar`]) read
//! their operands from *packed panels* so that every inner-loop access is a
//! unit-stride load from a buffer the hardware prefetcher walks linearly —
//! no large row strides, no TLB-hostile column walks:
//!
//! * **B panels** — `B` is repartitioned into vertical panels of [`NR`]
//!   columns. Panel `jp` stores, for `p = 0..k` in order, the [`NR`]
//!   consecutive elements `B[p][jp·NR ..]`, so one k-step of the kernel is a
//!   single contiguous [`NR`]-wide load. A shared `B` operand is packed
//!   **once** per GEMM (and once per *wave* in `gemm_nn_batch`) and reused by
//!   every row band and every task multiplying against it.
//! * **A micro-panels** — `A` rows are grouped [`MR`] at a time. Micro-panel
//!   `mp` stores, for `p = 0..k` in order, the [`MR`] vertically adjacent
//!   elements `A[mp·MR ..][p]`, so the kernel broadcasts [`MR`] consecutive
//!   scalars per k-step.
//!
//! Ragged edges (final panel narrower than [`NR`] / final micro-panel shorter
//! than [`MR`]) are **zero-padded** to full width. The padding lanes are never
//! stored back to `C` — the scalar kernel skips them, and the AVX2 path
//! computes a ragged tile on a stack copy and stores only its live lanes —
//! and keeping the layout uniform means every panel has the same stride and
//! the packers have no per-panel special cases to get wrong.
//!
//! Packing permutes memory, never arithmetic: each packed slot holds an exact
//! copy of one source element, so packed GEMMs are bit-identical to unpacked
//! ones by construction. The unit tests below pin the classic off-by-one
//! territory: zero-size `k`, single-column `B` panels, and remainder tiles.

/// Rows per A micro-panel (and per micro-kernel tile). Divides the band
/// height `MC`, so row bands contain no ragged micro-panels. Public (via the
/// `gemm` re-export) so the parity suites can aim shapes at tile boundaries.
pub const MR: usize = 8;
/// Columns per B panel: one AVX2 `f32` vector. Public like [`MR`].
pub const NR: usize = 8;

/// Length of the packed buffer for a `k×n` B operand: `⌈n/NR⌉` panels of
/// `k·NR` elements.
pub(super) fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Length of the packed buffer for `rows` rows of a `rows×k` A operand:
/// `⌈rows/MR⌉` micro-panels of `k·MR` elements.
pub(super) fn packed_a_len(rows: usize, k: usize) -> usize {
    rows.div_ceil(MR) * MR * k
}

/// Packs row-major `B[k×n]` (rows `row_stride` apart, `row_stride >= n`) into
/// NR-column panels. `packed` must hold [`packed_b_len`] elements; ragged
/// final-panel lanes are zeroed.
pub(super) fn pack_b(k: usize, n: usize, b: &[f32], row_stride: usize, packed: &mut [f32]) {
    debug_assert!(packed.len() >= packed_b_len(k, n));
    // p-major: each source row of B is streamed exactly once, in order; the
    // scattered panel writes ride the store buffer.
    let panels = n.div_ceil(NR);
    for p in 0..k {
        let src_row = &b[p * row_stride..p * row_stride + n];
        for jp in 0..panels {
            let j0 = jp * NR;
            let width = NR.min(n - j0);
            let dst = &mut packed[jp * k * NR + p * NR..jp * k * NR + p * NR + NR];
            dst[..width].copy_from_slice(&src_row[j0..j0 + width]);
            dst[width..].fill(0.0);
        }
    }
}

/// Packs `Bᵀ` given the row-major transposed storage `bt[n×k]` (as
/// `gemm_nt`'s right operand): panel slot `(jp, p, j)` receives
/// `bt[(jp·NR + j)·k + p]`. Same layout and padding as [`pack_b`].
pub(super) fn pack_b_t(k: usize, n: usize, bt: &[f32], packed: &mut [f32]) {
    debug_assert!(packed.len() >= packed_b_len(k, n));
    for jp in 0..n.div_ceil(NR) {
        let j0 = jp * NR;
        let width = NR.min(n - j0);
        let panel = &mut packed[jp * k * NR..(jp + 1) * k * NR];
        for p in 0..k {
            let dst = &mut panel[p * NR..p * NR + NR];
            for (j, d) in dst.iter_mut().enumerate() {
                *d = if j < width { bt[(j0 + j) * k + p] } else { 0.0 };
            }
        }
    }
}

/// Packs `rows` row-major A rows (rows `lda` apart, starting at `a`) into MR
/// micro-panels. `packed` must hold [`packed_a_len`] elements; ragged
/// final-micro-panel lanes are zeroed.
pub(super) fn pack_a(rows: usize, k: usize, a: &[f32], lda: usize, packed: &mut [f32]) {
    debug_assert!(packed.len() >= packed_a_len(rows, k));
    for mp in 0..rows.div_ceil(MR) {
        let i0 = mp * MR;
        let height = MR.min(rows - i0);
        let panel = &mut packed[mp * k * MR..(mp + 1) * k * MR];
        for p in 0..k {
            let dst = &mut panel[p * MR..p * MR + MR];
            for (r, d) in dst.iter_mut().enumerate() {
                *d = if r < height { a[(i0 + r) * lda + p] } else { 0.0 };
            }
        }
    }
}

/// Packs `rows` *columns* of a column-stored A operand (as `gemm_tn`'s left
/// operand `a[k×m]`): micro-panel slot `(mp, p, r)` receives
/// `a[p·m + i0 + mp·MR + r]` — the transpose of [`pack_a`]'s access. `i0` is
/// the first column of the band being packed.
pub(super) fn pack_a_t(
    rows: usize,
    k: usize,
    a: &[f32],
    m_total: usize,
    i0: usize,
    packed: &mut [f32],
) {
    debug_assert!(packed.len() >= packed_a_len(rows, k));
    for mp in 0..rows.div_ceil(MR) {
        let c0 = i0 + mp * MR;
        let height = MR.min(rows - mp * MR);
        let panel = &mut packed[mp * k * MR..(mp + 1) * k * MR];
        for p in 0..k {
            let src = &a[p * m_total + c0..p * m_total + c0 + height];
            let dst = &mut panel[p * MR..p * MR + MR];
            dst[..height].copy_from_slice(src);
            dst[height..].fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads the packed B slot for logical element `B[p][j]`.
    fn b_slot(packed: &[f32], k: usize, p: usize, j: usize) -> f32 {
        packed[(j / NR) * k * NR + p * NR + (j % NR)]
    }

    /// Reads the packed A slot for logical element `A[r][p]`.
    fn a_slot(packed: &[f32], k: usize, r: usize, p: usize) -> f32 {
        packed[(r / MR) * k * MR + p * MR + (r % MR)]
    }

    #[test]
    fn b_panels_hold_exact_copies_and_zero_padding() {
        // n = NR + 3 leaves a ragged 3-wide final panel.
        let (k, n) = (5, NR + 3);
        let b: Vec<f32> = (0..k * n).map(|i| i as f32 + 1.0).collect();
        let mut packed = vec![f32::NAN; packed_b_len(k, n)];
        pack_b(k, n, &b, n, &mut packed);
        for p in 0..k {
            for j in 0..n {
                assert_eq!(b_slot(&packed, k, p, j).to_bits(), b[p * n + j].to_bits());
            }
            // Ragged lanes are zero, not leftover NaN.
            for j in n..2 * NR {
                assert_eq!(b_slot(&packed, k, p, j), 0.0, "pad lane p={p} j={j}");
            }
        }
    }

    #[test]
    fn b_pack_respects_row_stride() {
        // B embedded in a wider matrix: rows are `stride` apart (exactly how
        // conv's grouped GEMMs slice one group's band out of the patch
        // matrix).
        let (k, n, stride) = (4, 6, 11);
        let big: Vec<f32> = (0..k * stride).map(|i| i as f32).collect();
        let mut packed = vec![0.0f32; packed_b_len(k, n)];
        pack_b(k, n, &big, stride, &mut packed);
        for p in 0..k {
            for j in 0..n {
                assert_eq!(b_slot(&packed, k, p, j), big[p * stride + j]);
            }
        }
    }

    #[test]
    fn single_column_b_panel() {
        // n = 1: one panel, one live lane, NR-1 zero lanes per k-step.
        let k = 7;
        let b: Vec<f32> = (0..k).map(|i| (i as f32).exp()).collect();
        let mut packed = vec![f32::NAN; packed_b_len(k, 1)];
        pack_b(k, 1, &b, 1, &mut packed);
        for p in 0..k {
            assert_eq!(b_slot(&packed, k, p, 0).to_bits(), b[p].to_bits());
            for lane in 1..NR {
                assert_eq!(packed[p * NR + lane], 0.0);
            }
        }
        // Transposed pack of a 1-column B (bt is 1×k) agrees.
        let mut packed_t = vec![f32::NAN; packed_b_len(k, 1)];
        pack_b_t(k, 1, &b, &mut packed_t);
        assert_eq!(packed, packed_t);
    }

    #[test]
    fn zero_k_packs_are_empty() {
        // k = 0: zero-length panels; the packers must not touch (or need)
        // any source element.
        assert_eq!(packed_b_len(0, 5), 0);
        assert_eq!(packed_a_len(5, 0), 0);
        let mut empty: Vec<f32> = vec![];
        pack_b(0, 5, &[], 5, &mut empty);
        pack_b_t(0, 5, &[], &mut empty);
        pack_a(5, 0, &[], 0, &mut empty);
        pack_a_t(5, 0, &[], 5, 0, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn b_transposed_pack_matches_plain_pack_of_transpose() {
        let (k, n) = (6, NR + 1);
        let bt: Vec<f32> = (0..n * k).map(|i| (i * 37 % 101) as f32).collect();
        // b[p][j] = bt[j][p]
        let mut b = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut from_t = vec![0.0f32; packed_b_len(k, n)];
        pack_b_t(k, n, &bt, &mut from_t);
        let mut from_b = vec![0.0f32; packed_b_len(k, n)];
        pack_b(k, n, &b, n, &mut from_b);
        assert_eq!(from_t, from_b);
    }

    #[test]
    fn a_micro_panels_hold_exact_copies_and_zero_padding() {
        // rows = MR + 2 leaves a ragged 2-row final micro-panel.
        let (rows, k) = (MR + 2, 4);
        let a: Vec<f32> = (0..rows * k).map(|i| -(i as f32) - 0.5).collect();
        let mut packed = vec![f32::NAN; packed_a_len(rows, k)];
        pack_a(rows, k, &a, k, &mut packed);
        for r in 0..rows {
            for p in 0..k {
                assert_eq!(a_slot(&packed, k, r, p).to_bits(), a[r * k + p].to_bits());
            }
        }
        for r in rows..2 * MR {
            for p in 0..k {
                assert_eq!(a_slot(&packed, k, r, p), 0.0, "pad lane r={r} p={p}");
            }
        }
    }

    #[test]
    fn a_transposed_pack_matches_plain_pack_of_transpose() {
        // A stored k×m (gemm_tn layout); band starts mid-matrix at i0 = 3.
        let (m_total, k, i0, rows) = (2 * MR + 3, 5, 3usize, MR + 1);
        let at: Vec<f32> = (0..k * m_total).map(|i| (i as f32).sin()).collect();
        let mut band = vec![0.0f32; rows * k];
        for r in 0..rows {
            for p in 0..k {
                band[r * k + p] = at[p * m_total + i0 + r];
            }
        }
        let mut from_t = vec![0.0f32; packed_a_len(rows, k)];
        pack_a_t(rows, k, &at, m_total, i0, &mut from_t);
        let mut from_a = vec![0.0f32; packed_a_len(rows, k)];
        pack_a(rows, k, &band, k, &mut from_a);
        assert_eq!(from_t, from_a);
    }

    #[test]
    fn exact_tile_shapes_have_no_padding() {
        let (rows, k, n) = (2 * MR, 3, 2 * NR);
        let a = vec![1.0f32; rows * k];
        let b = vec![2.0f32; k * n];
        let mut pa = vec![f32::NAN; packed_a_len(rows, k)];
        let mut pb = vec![f32::NAN; packed_b_len(k, n)];
        pack_a(rows, k, &a, k, &mut pa);
        pack_b(k, n, &b, n, &mut pb);
        assert!(pa.iter().all(|&v| v == 1.0));
        assert!(pb.iter().all(|&v| v == 2.0));
    }
}

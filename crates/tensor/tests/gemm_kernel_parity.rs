//! Kernel-parity pins for the GEMM dispatch tree: the AVX2 and scalar
//! micro-kernels and the legacy blocked loops must be **bit-identical** to
//! the naive triple loop — across odd shapes straddling every tile boundary,
//! for all three product layouts (`nn` / `nt` / `tn`, i.e. the transposed
//! operands conv backward uses), and through the multi-image
//! `gemm_nn_batch` path with its shared packed `B` panels.
//!
//! This is the contract that makes GEMM dispatch invisible: runtime feature
//! detection, size heuristics and forced backends may pick any kernel
//! without changing a single bit anywhere downstream (probe scores, search
//! plans — `search/tests/simd_plan_parity.rs` pins the end-to-end version).
//! The kernels earn it by accumulating each `C` element over `k` in
//! ascending order with unfused multiply-then-add; see the `gemm` module
//! docs.
//!
//! On machines without AVX2, `PackedSimd` resolves to the scalar
//! micro-kernel (documented fallback), so this suite degrades to pinning
//! scalar-vs-blocked-vs-naive — still the full contract for that hardware.

use proptest::prelude::*;

use pte_tensor::ops::gemm::{
    gemm_nn_batch_with, gemm_nn_with, gemm_nt_seeded, gemm_nt_with, gemm_tn_with, GemmBackend,
    GemmNnTask, MR, NR,
};
use pte_tensor::Tensor;

/// Every backend a caller can force. `Auto` rides along to pin that the
/// size heuristic can only ever choose among bit-identical options.
const BACKENDS: [GemmBackend; 4] =
    [GemmBackend::PackedSimd, GemmBackend::PackedScalar, GemmBackend::Blocked, GemmBackend::Auto];

/// The off-by-one territory around the micro-tile geometry (`MR = NR = 8`),
/// the parallel band height (64) and a large prime, plus degenerate 1s.
fn tile_edge_dims() -> Vec<usize> {
    vec![1, 3, MR - 1, MR, MR + 1, NR + 1, 2 * NR, 63, 64, 65, 97]
}

fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                c[i * n + j] += a[i * k + p] * b[p * n + j];
            }
        }
    }
    c
}

/// Naive `C += A·Bᵀ` with `gemm_nt`'s accumulation chain: a fresh ordered
/// dot product per element, added to `C` once.
fn naive_nt(m: usize, k: usize, n: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * bt[j * k + p];
            }
            c[i * n + j] += acc;
        }
    }
}

/// Naive `C += Aᵀ·B` with `gemm_tn`'s accumulation chain (`C`-seeded,
/// ascending `p`).
fn naive_tn(m: usize, k: usize, n: usize, at: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                c[i * n + j] += at[p * m + i] * b[p * n + j];
            }
        }
    }
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} diverged ({g} vs {w})");
    }
}

/// Exhaustive sweep: every backend × every `(m, k, n)` combination from the
/// tile-edge dimension set, all three layouts, seeded (non-zero) `C`.
#[test]
fn all_backends_match_naive_on_tile_edge_shapes() {
    let dims = tile_edge_dims();
    for &m in &dims {
        for &k in &dims {
            for &n in &dims {
                let seed = (m * 73 + k * 37 + n) as u64;
                let a = Tensor::randn(&[m, k], seed).into_vec();
                let b = Tensor::randn(&[k, n], seed ^ 0xA5A5).into_vec();
                let bt = Tensor::randn(&[n, k], seed ^ 0x5A5A).into_vec();
                let at = Tensor::randn(&[k, m], seed ^ 0x1111).into_vec();
                let c0 = Tensor::randn(&[m, n], seed ^ 0xF0F0).into_vec();

                // Seeded reference: the naive triple loop over the seeded C
                // (C-first chain, ascending p — `gemm_nn`'s contract).
                let mut want_nn = c0.clone();
                for i in 0..m {
                    for j in 0..n {
                        for p in 0..k {
                            want_nn[i * n + j] += a[i * k + p] * b[p * n + j];
                        }
                    }
                }
                let mut want_nt = c0.clone();
                naive_nt(m, k, n, &a, &bt, &mut want_nt);
                let mut want_tn = c0.clone();
                naive_tn(m, k, n, &at, &b, &mut want_tn);

                for backend in BACKENDS {
                    let label = format!("{backend:?} m={m} k={k} n={n}");
                    let mut c = c0.clone();
                    gemm_nn_with(backend, m, k, n, &a, &b, &mut c);
                    assert_bits_eq(&c, &want_nn, &format!("nn {label}"));

                    let mut c = c0.clone();
                    gemm_nt_with(backend, m, k, n, &a, &bt, &mut c);
                    assert_bits_eq(&c, &want_nt, &format!("nt {label}"));

                    let mut c = c0.clone();
                    gemm_tn_with(backend, m, k, n, &at, &b, &mut c);
                    assert_bits_eq(&c, &want_tn, &format!("tn {label}"));
                }
            }
        }
    }
}

/// Ragged tiles (`m` or `n` not a multiple of the tile) over a `C` seeded
/// with `-0.0`, on every backend and layout. Half the `A` rows are signed
/// zeros, so a chain that starts from the wrong zero (a stack tile seeded
/// with `+0.0` instead of `C`'s lanes) changes the sign of the result.
/// `gemm_nt_seeded` (the `Nn` chain over a transposed `B`) rides along,
/// with `k` large enough for the packed path.
#[test]
fn ragged_tiles_keep_negative_zero_seeds() {
    for m in [1, 3, MR + 1, 2 * MR + 5] {
        for n in [1, 2, NR - 1, NR + 2, 2 * NR + 3] {
            for k in [1, 4, 33, 400] {
                let seed = (m * 101 + n * 11 + k) as u64;
                let mut a = Tensor::randn(&[m, k], seed).into_vec();
                for (i, row) in a.chunks_mut(k).enumerate() {
                    if i % 2 == 0 {
                        row.fill(if i % 4 == 0 { -0.0 } else { 0.0 });
                    }
                }
                let b = Tensor::randn(&[k, n], seed ^ 0xA5A5).into_vec();
                let mut bt = vec![0.0f32; n * k];
                for p in 0..k {
                    for j in 0..n {
                        bt[j * k + p] = b[p * n + j];
                    }
                }
                let mut at = vec![0.0f32; k * m];
                for i in 0..m {
                    for p in 0..k {
                        at[p * m + i] = a[i * k + p];
                    }
                }
                let c0 = vec![-0.0f32; m * n];
                let mut want_nn = c0.clone();
                for i in 0..m {
                    for j in 0..n {
                        for p in 0..k {
                            want_nn[i * n + j] += a[i * k + p] * b[p * n + j];
                        }
                    }
                }
                let mut want_nt = c0.clone();
                naive_nt(m, k, n, &a, &bt, &mut want_nt);

                let mut c = c0.clone();
                gemm_nt_seeded(m, k, n, &a, &bt, &mut c);
                assert_bits_eq(&c, &want_nn, &format!("nt_seeded m={m} k={k} n={n}"));
                for backend in BACKENDS {
                    let label = format!("{backend:?} m={m} k={k} n={n}");
                    let mut c = c0.clone();
                    gemm_nn_with(backend, m, k, n, &a, &b, &mut c);
                    assert_bits_eq(&c, &want_nn, &format!("nn {label}"));

                    let mut c = c0.clone();
                    gemm_nt_with(backend, m, k, n, &a, &bt, &mut c);
                    assert_bits_eq(&c, &want_nt, &format!("nt {label}"));

                    let mut c = c0.clone();
                    gemm_tn_with(backend, m, k, n, &at, &b, &mut c);
                    assert_bits_eq(&c, &want_nn, &format!("tn {label}"));
                }
            }
        }
    }
}

/// The multi-image batched path (the probe scheduler's wave shape): many
/// tasks sharing one `B` operand — including band-sliced views at distinct
/// offsets, as grouped convolutions produce — must equal per-task naive
/// products bit-for-bit on every backend.
#[test]
fn batch_with_shared_b_matches_naive_per_task() {
    let (k, n) = (MR * 3 + 1, NR * 5 + 3);
    // One wide shared operand; tasks read it whole or as an offset band
    // (offset by one full row so dimensions still fit).
    let b = Tensor::randn(&[k + 1, n], 7).into_vec();
    let task_ms = [1usize, MR - 1, MR, MR + 5, 64, 65];
    for backend in BACKENDS {
        let specs: Vec<(usize, &[f32], Vec<f32>)> = task_ms
            .iter()
            .enumerate()
            .map(|(t, &m)| {
                let a = Tensor::randn(&[m, k], 100 + t as u64).into_vec();
                let b_view: &[f32] = if t % 2 == 0 { &b } else { &b[n..] };
                (m, b_view, a)
            })
            .collect();
        let mut got: Vec<Vec<f32>> = specs.iter().map(|(m, _, _)| vec![0.0f32; m * n]).collect();
        let tasks: Vec<GemmNnTask<'_>> = specs
            .iter()
            .zip(got.iter_mut())
            .map(|((m, b_view, a), c)| GemmNnTask { m: *m, k, n, a, b: b_view, c })
            .collect();
        gemm_nn_batch_with(backend, tasks);
        for ((m, b_view, a), c) in specs.iter().zip(&got) {
            let want = naive_nn(*m, k, n, a, &b_view[..k * n]);
            assert_bits_eq(c, &want, &format!("batch {backend:?} m={m}"));
        }
    }
}

/// Degenerate batch members (zero dims) must leave their outputs untouched
/// while siblings still compute, on every backend.
#[test]
fn batch_skips_degenerate_tasks() {
    let (m, k, n) = (MR, 10, NR);
    let a = Tensor::randn(&[m, k], 1).into_vec();
    let b = Tensor::randn(&[k, n], 2).into_vec();
    for backend in BACKENDS {
        let mut live = vec![0.0f32; m * n];
        let mut dead_m = vec![42.0f32; m * n];
        let mut dead_k = vec![42.0f32; m * n];
        gemm_nn_batch_with(
            backend,
            vec![
                GemmNnTask { m, k, n, a: &a, b: &b, c: &mut live },
                GemmNnTask { m: 0, k, n, a: &[], b: &b, c: &mut dead_m },
                GemmNnTask { m, k: 0, n, a: &[], b: &[], c: &mut dead_k },
            ],
        );
        assert_bits_eq(&live, &naive_nn(m, k, n, &a, &b), "live task");
        assert!(
            dead_m.iter().chain(&dead_k).all(|&v| v == 42.0),
            "degenerate task touched C ({backend:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes and seeds: SIMD ≡ scalar ≡ blocked ≡ naive, bits, for
    /// all three layouts over one shared random case.
    #[test]
    fn random_shapes_are_bit_identical_across_backends(
        m in 1usize..80,
        k in 0usize..70,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let a = Tensor::randn(&[m.max(1), k.max(1)], seed).into_vec();
        let b = Tensor::randn(&[k.max(1), n.max(1)], seed ^ 0xAB).into_vec();
        let bt = Tensor::randn(&[n.max(1), k.max(1)], seed ^ 0xCD).into_vec();
        let at = Tensor::randn(&[k.max(1), m.max(1)], seed ^ 0xEF).into_vec();

        let mut want_nn = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    want_nn[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        let mut want_nt = vec![0.0f32; m * n];
        naive_nt(m, k, n, &a, &bt, &mut want_nt);
        let mut want_tn = vec![0.0f32; m * n];
        naive_tn(m, k, n, &at, &b, &mut want_tn);

        for backend in BACKENDS {
            let mut c = vec![0.0f32; m * n];
            gemm_nn_with(backend, m, k, n, &a, &b, &mut c);
            for (g, w) in c.iter().zip(&want_nn) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "nn {:?} m={} k={} n={}", backend, m, k, n);
            }
            let mut c = vec![0.0f32; m * n];
            gemm_nt_with(backend, m, k, n, &a, &bt, &mut c);
            for (g, w) in c.iter().zip(&want_nt) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "nt {:?} m={} k={} n={}", backend, m, k, n);
            }
            let mut c = vec![0.0f32; m * n];
            gemm_tn_with(backend, m, k, n, &at, &b, &mut c);
            for (g, w) in c.iter().zip(&want_tn) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "tn {:?} m={} k={} n={}", backend, m, k, n);
            }
        }
    }

    /// The batch executor splits waves of random tasks over shared operands;
    /// every split must equal sequential `gemm_nn` runs bit-for-bit.
    #[test]
    fn random_batches_match_sequential(
        ms in proptest::collection::vec(1usize..40, 1..6),
        k in 1usize..50,
        n in 1usize..50,
        seed in 0u64..500,
    ) {
        let b = Tensor::randn(&[k, n], seed).into_vec();
        let specs: Vec<Vec<f32>> = ms
            .iter()
            .enumerate()
            .map(|(t, &m)| Tensor::randn(&[m, k], seed + 1 + t as u64).into_vec())
            .collect();
        for backend in BACKENDS {
            let mut want: Vec<Vec<f32>> = Vec::new();
            for (a, &m) in specs.iter().zip(&ms) {
                let mut c = vec![0.0f32; m * n];
                gemm_nn_with(backend, m, k, n, a, &b, &mut c);
                want.push(c);
            }
            let mut got: Vec<Vec<f32>> = ms.iter().map(|&m| vec![0.0f32; m * n]).collect();
            let tasks: Vec<GemmNnTask<'_>> = specs
                .iter()
                .zip(&ms)
                .zip(got.iter_mut())
                .map(|((a, &m), c)| GemmNnTask { m, k, n, a, b: &b, c })
                .collect();
            gemm_nn_batch_with(backend, tasks);
            for ((g, w), &m) in got.iter().zip(&want).zip(&ms) {
                for (x, y) in g.iter().zip(w) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "batch {:?} m={}", backend, m);
                }
            }
        }
    }
}

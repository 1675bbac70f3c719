//! AVX2 register-blocked micro-kernel over packed panels (x86-64 only).
//!
//! One tile keeps an `MR×NR = 8×8` block of `C` in eight YMM accumulators for
//! the whole `k` extent. Per k-step: one contiguous [`NR`]-wide load from the
//! packed B panel, eight scalar broadcasts from the packed A micro-panel, and
//! eight vector multiply + add pairs — `C` is touched exactly twice (load at
//! tile entry, store at exit), instead of once per k-step as in a
//! broadcast-AXPY loop.
//!
//! ## Why `vmulps + vaddps`, not `vfmaddps`
//!
//! The kernel deliberately accumulates with *unfused* multiply-then-add
//! (`_mm256_add_ps(_mm256_mul_ps(..))`): an FMA skips the intermediate
//! rounding, so its results differ in the last bit from every other kernel in
//! the tree. The workspace's determinism contract — SIMD and scalar paths
//! bit-identical in every configuration, pinned by `gemm_kernel_parity` and
//! the full-search `simd_plan_parity` suites — is worth more here than FMA's
//! extra issue width: the loops this kernel replaced were bound by `C`
//! traffic, not multiply throughput. Rust emits no fast-math flags, so
//! LLVM will not contract these intrinsics behind our back.
//!
//! The eight accumulator chains are independent, which is also what hides the
//! 4-cycle `vaddps` latency without reassociating any per-element sum.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_storeu_ps,
};

use super::pack::{MR, NR};
use super::Acc;

/// Whether the running CPU can execute [`micro_kernel`]. Checked once per
/// process by the dispatcher ([`super::simd_kernel_available`]).
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Computes one full `MR×NR` tile of `C` (rows `ldc` apart) from packed
/// panels `a_panel[k·MR]` / `b_panel[k·NR]`. Accumulation modes as in
/// [`super::kernel_scalar::micro_kernel`]; results are bit-identical to it.
///
/// # Safety
/// The caller must have verified [`available`] (the function is compiled with
/// AVX2 enabled), and `c` must cover a full tile: `(MR-1)·ldc + NR` elements.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn micro_kernel(
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    acc_mode: Acc,
) {
    debug_assert!(a_panel.len() >= k * MR && b_panel.len() >= k * NR);
    debug_assert!(c.len() >= (MR - 1) * ldc + NR);
    let cp = c.as_mut_ptr();
    let mut acc: [__m256; MR] = [_mm256_setzero_ps(); MR];
    if acc_mode == Acc::Seeded {
        for (r, lane) in acc.iter_mut().enumerate() {
            *lane = _mm256_loadu_ps(cp.add(r * ldc));
        }
    }
    let ap = a_panel.as_ptr();
    let bp = b_panel.as_ptr();
    // k unrolled ×4 to amortise loop control; the remainder loop keeps the
    // same per-element accumulation order, so unrolling is bits-invisible.
    let k4 = k & !3;
    let mut p = 0;
    while p < k4 {
        for q in p..p + 4 {
            let b = _mm256_loadu_ps(bp.add(q * NR));
            let a_step = ap.add(q * MR);
            for (r, lane) in acc.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*a_step.add(r));
                *lane = _mm256_add_ps(*lane, _mm256_mul_ps(a, b));
            }
        }
        p += 4;
    }
    while p < k {
        let b = _mm256_loadu_ps(bp.add(p * NR));
        let a_step = ap.add(p * MR);
        for (r, lane) in acc.iter_mut().enumerate() {
            let a = _mm256_set1_ps(*a_step.add(r));
            *lane = _mm256_add_ps(*lane, _mm256_mul_ps(a, b));
        }
        p += 1;
    }
    for (r, lane) in acc.iter().enumerate() {
        match acc_mode {
            Acc::Seeded => _mm256_storeu_ps(cp.add(r * ldc), *lane),
            Acc::Deferred => {
                let sum = _mm256_add_ps(_mm256_loadu_ps(cp.add(r * ldc)), *lane);
                _mm256_storeu_ps(cp.add(r * ldc), sum);
            }
        }
    }
}

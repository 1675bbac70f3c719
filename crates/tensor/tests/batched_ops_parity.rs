//! The batched tail ops must be **bit-identical** to their serial reference
//! loops: each stacked unit of `batch_norm2d_batch`, `linear_batch`,
//! `linear_d_input_batch`, and `cross_entropy_batch` must reproduce a
//! standalone call on that unit to the last bit. This is the contract that
//! lets the Fisher probe scheduler run a whole shape class's
//! BN/readout/backward tail as one wave without changing a single score
//! (`fisher/tests/probe_tail_threads.rs` and `probe_batch_parity.rs` pin the
//! end-to-end consequence).

use proptest::prelude::*;

use pte_tensor::ops::{
    batch_norm2d, batch_norm2d_batch, cross_entropy, cross_entropy_batch, linear, linear_backward,
    linear_batch, linear_d_input_batch,
};
use pte_tensor::Tensor;

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i} diverged ({a} vs {b})");
    }
}

/// Extracts unit `u` of a stacked `[units, ...]` tensor as its own tensor.
fn unit(t: &Tensor, u: usize, dims: &[usize]) -> Tensor {
    let len: usize = dims.iter().product();
    Tensor::from_vec(dims, t.as_slice()[u * len..(u + 1) * len].to_vec()).expect("unit slice")
}

/// The probe readout's shape: ten classes over a 64-channel 8×8 activation,
/// for eight stacked members' rows. Large enough for the packed path, with
/// a ragged two-column panel; the bias is non-zero so the `bias + Σ` chain
/// is pinned too.
#[test]
fn linear_batch_matches_reference_loop_at_readout_width() {
    let (rows, fin, fout) = (64, 4096, 10);
    let x = Tensor::randn(&[rows, fin], 61).map(|v| v.max(0.0));
    let w = Tensor::randn(&[fout, fin], 62).map(|v| v * 0.05);
    let b: Vec<f32> = (0..fout).map(|i| i as f32 * 0.13 - 0.6).collect();
    let want = linear(&x, &w, &b).unwrap();
    let got = linear_batch(&x, &w, &b).unwrap();
    assert_bits(got.as_slice(), want.as_slice(), "linear forward at fout 10, fin 4096");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stacked batch-norm forward ≡ per-unit serial calls.
    #[test]
    fn batch_norm_stack_matches_serial(
        units in 1usize..5,
        n in 1usize..5,
        c in 1usize..5,
        h in 1usize..5,
        w in 1usize..5,
        seed in 0u64..1000,
    ) {
        let x = Tensor::randn(&[units, n, c, h, w], seed).map(|v| v * 2.5 - 0.4);
        let gamma: Vec<f32> = (0..c).map(|i| 0.5 + i as f32 * 0.3).collect();
        let beta: Vec<f32> = (0..c).map(|i| i as f32 * 0.1 - 0.2).collect();

        let y = batch_norm2d_batch(&x, &gamma, &beta).unwrap();

        let udims = [n, c, h, w];
        for u in 0..units {
            let (want_y, _) = batch_norm2d(&unit(&x, u, &udims), &gamma, &beta).unwrap();
            assert_bits(unit(&y, u, &udims).as_slice(), want_y.as_slice(), "bn forward");
        }
    }

    /// GEMM-path linear forward ≡ the reference scalar loop, arbitrary bias
    /// included (the Seeded-chain argument in `linear.rs`).
    #[test]
    fn linear_batch_matches_reference_loop(
        rows in 1usize..40,
        fin in 1usize..48,
        fout in 1usize..12,
        seed in 0u64..1000,
    ) {
        let x = Tensor::randn(&[rows, fin], seed).map(|v| v * 1.4);
        let w = Tensor::randn(&[fout, fin], seed ^ 0x5A5A);
        let b: Vec<f32> = (0..fout).map(|i| i as f32 * 0.17 - 0.4).collect();
        let want = linear(&x, &w, &b).unwrap();
        let got = linear_batch(&x, &w, &b).unwrap();
        assert_bits(got.as_slice(), want.as_slice(), "linear forward");
    }

    /// GEMM-path input gradient ≡ `linear_backward(..).d_input`.
    #[test]
    fn linear_d_input_batch_matches_reference_loop(
        rows in 1usize..40,
        fin in 1usize..48,
        fout in 1usize..12,
        seed in 0u64..1000,
    ) {
        let x = Tensor::randn(&[rows, fin], seed);
        let w = Tensor::randn(&[fout, fin], seed ^ 0x3C3C);
        let b = vec![0.0f32; fout];
        let d_out = Tensor::randn(&[rows, fout], seed ^ 0xC3C3);
        let want = linear_backward(&x, &w, &b, &d_out).unwrap().d_input;
        let got = linear_d_input_batch(&d_out, &w).unwrap();
        assert_bits(got.as_slice(), want.as_slice(), "linear d_input");
    }

    /// Stacked cross-entropy ≡ per-unit serial calls (losses and gradients).
    #[test]
    fn cross_entropy_stack_matches_serial(
        units in 1usize..6,
        n in 1usize..6,
        c in 2usize..8,
        seed in 0u64..1000,
    ) {
        let logits = Tensor::randn(&[units * n, c], seed).map(|v| v * 4.0);
        let labels: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % c).collect();
        let (losses, grad) = cross_entropy_batch(&logits, &labels, units).unwrap();
        prop_assert_eq!(losses.len(), units);
        for (u, loss) in losses.iter().enumerate() {
            let block = unit(&logits, u, &[n, c]);
            let (want_loss, want_grad) = cross_entropy(&block, &labels).unwrap();
            prop_assert_eq!(
                loss.to_bits(),
                want_loss.to_bits(),
                "unit {} loss diverged",
                u
            );
            assert_bits(unit(&grad, u, &[n, c]).as_slice(), want_grad.as_slice(), "ce grad");
        }
    }
}

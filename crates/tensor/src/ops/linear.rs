//! Fully connected (linear) layers over `[n, features]` activations.
//!
//! Two implementations coexist on purpose:
//!
//! * [`linear`] / [`linear_backward`] — the reference scalar loops, the
//!   semantic ground truth (see the module docs in [`super`]);
//! * [`linear_batch`] / [`linear_d_input_batch`] — the same functions routed
//!   through the packed GEMM micro-kernels, **bit-identical** to the
//!   reference loops. They exist for the Fisher probe scheduler, which
//!   stacks a whole shape class's readout rows into one wide product.
//!
//! The bit-identity argument: [`linear`] computes each output as
//! `acc = bias[o]; acc += x[i]·w[o,i]` in ascending `i` order with unfused
//! multiply-then-add. [`super::gemm::gemm_nn`]'s `Acc::Seeded` contract is
//! exactly that chain — accumulators start from the *current* `C` value and
//! add `a·b` products in ascending `k` order, unfused, on every backend. So
//! pre-filling `C` with the bias and running that chain against the weight
//! as `Bᵀ` ([`super::gemm::gemm_nt_seeded`]) reproduces the reference chain
//! bit for bit; likewise a zero-filled `C` and the untransposed weight
//! reproduce `linear_backward`'s `d_input` accumulation (ascending `o`
//! order).

use crate::ops::gemm::{gemm_nn, gemm_nt_seeded};
use crate::{Result, Shape, Tensor, TensorError};

/// Gradients produced by [`linear_backward`].
#[derive(Debug, Clone)]
pub struct LinearGrads {
    /// Gradient with respect to the input activations.
    pub d_input: Tensor,
    /// Gradient with respect to the weight matrix.
    pub d_weight: Tensor,
    /// Gradient with respect to the bias vector.
    pub d_bias: Vec<f32>,
}

fn check_linear(x: &Tensor, weight: &Tensor, bias: &[f32]) -> Result<(usize, usize, usize)> {
    let xd = x.shape().dims();
    let wd = weight.shape().dims();
    if xd.len() != 2 || wd.len() != 2 {
        return Err(TensorError::InvalidShape {
            op: "linear",
            reason: format!("expected [n,in] x [out,in], got {} and {}", x.shape(), weight.shape()),
        });
    }
    if xd[1] != wd[1] || bias.len() != wd[0] {
        return Err(TensorError::ShapeMismatch {
            op: "linear",
            expected: Shape::new(&[wd[0], xd[1]]),
            found: weight.shape().clone(),
        });
    }
    Ok((xd[0], xd[1], wd[0]))
}

/// Linear forward: `y[n, o] = Σ_i x[n, i] · w[o, i] + b[o]`.
///
/// # Errors
/// Returns an error on rank or dimension mismatches.
pub fn linear(x: &Tensor, weight: &Tensor, bias: &[f32]) -> Result<Tensor> {
    let (n, fin, fout) = check_linear(x, weight, bias)?;
    let xs = x.as_slice();
    let ws = weight.as_slice();
    let mut y = Tensor::zeros(&[n, fout]);
    for in_ in 0..n {
        for o in 0..fout {
            let mut acc = bias[o];
            for i in 0..fin {
                acc += xs[in_ * fin + i] * ws[o * fin + i];
            }
            y.as_mut_slice()[in_ * fout + o] = acc;
        }
    }
    Ok(y)
}

/// Linear backward pass.
///
/// # Errors
/// Returns an error if `d_out` is not `[n, out]`.
pub fn linear_backward(
    x: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    d_out: &Tensor,
) -> Result<LinearGrads> {
    let (n, fin, fout) = check_linear(x, weight, bias)?;
    let expected = Shape::new(&[n, fout]);
    if d_out.shape() != &expected {
        return Err(TensorError::ShapeMismatch {
            op: "linear_backward",
            expected,
            found: d_out.shape().clone(),
        });
    }
    let xs = x.as_slice();
    let ws = weight.as_slice();
    let go = d_out.as_slice();
    let mut d_input = Tensor::zeros(&[n, fin]);
    let mut d_weight = Tensor::zeros(&[fout, fin]);
    let mut d_bias = vec![0.0f32; fout];
    for in_ in 0..n {
        for o in 0..fout {
            let g = go[in_ * fout + o];
            d_bias[o] += g;
            for i in 0..fin {
                d_input.as_mut_slice()[in_ * fin + i] += g * ws[o * fin + i];
                d_weight.as_mut_slice()[o * fin + i] += g * xs[in_ * fin + i];
            }
        }
    }
    Ok(LinearGrads { d_input, d_weight, d_bias })
}

/// [`linear`] on the packed GEMM path: `y[n, o] = Σ_i x[n, i]·w[o, i] + b[o]`
/// computed as one wide `C(=bias) += X · Wᵀ` product.
///
/// **Bit-identical** to [`linear`] for any input (see the module docs for the
/// accumulation-chain argument); the payoff is width — the probe scheduler
/// calls this once per class-repeat wave with every member's activation rows
/// stacked, so the readout runs as one register-blocked GEMM instead of one
/// scalar loop per member.
///
/// # Errors
/// Returns an error on rank or dimension mismatches (same contract as
/// [`linear`]).
pub fn linear_batch(x: &Tensor, weight: &Tensor, bias: &[f32]) -> Result<Tensor> {
    let (n, fin, fout) = check_linear(x, weight, bias)?;
    // Seed C with the bias: the Seeded accumulation chain then reproduces
    // `linear`'s `bias + Σ` ordering exactly. The weight `[out×in]` is the
    // transposed storage of B `[in×out]`, packed as it stands.
    let mut y = Tensor::zeros(&[n, fout]);
    for row in y.as_mut_slice().chunks_mut(fout) {
        row.copy_from_slice(bias);
    }
    gemm_nt_seeded(n, fin, fout, x.as_slice(), weight.as_slice(), y.as_mut_slice());
    Ok(y)
}

/// The input gradient of [`linear_backward`] on the packed GEMM path:
/// `d_input = d_out · W`, one wide product.
///
/// **Bit-identical** to `linear_backward(..).d_input` (ascending-`o` Seeded
/// chain from a zero-filled `C`; module docs). The weight and bias gradients
/// are deliberately *not* computed: they reduce over each unit's own rows,
/// so they cannot stack into one wide product — and the probe tail, this
/// function's consumer, discards them anyway (Eq. 4 only reads the
/// activation gradient). Callers that need `d_weight`/`d_bias` use
/// [`linear_backward`].
///
/// # Errors
/// Returns an error on rank or dimension mismatches.
pub fn linear_d_input_batch(d_out: &Tensor, weight: &Tensor) -> Result<Tensor> {
    let dd = d_out.shape().dims();
    let wd = weight.shape().dims();
    if dd.len() != 2 || wd.len() != 2 {
        return Err(TensorError::InvalidShape {
            op: "linear_d_input_batch",
            reason: format!(
                "expected [n,out] x [out,in], got {} and {}",
                d_out.shape(),
                weight.shape()
            ),
        });
    }
    if dd[1] != wd[0] {
        return Err(TensorError::ShapeMismatch {
            op: "linear_d_input_batch",
            expected: Shape::new(&[dd[0], wd[0]]),
            found: d_out.shape().clone(),
        });
    }
    let (n, fout, fin) = (dd[0], wd[0], wd[1]);
    // The weight is already row-major [out×in] = B's [k×n] view; a zeroed C
    // seeds the same all-zero accumulators `linear_backward` starts from.
    let mut d_input = Tensor::zeros(&[n, fin]);
    gemm_nn(n, fout, fin, d_out.as_slice(), weight.as_slice(), d_input.as_mut_slice());
    Ok(d_input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_weight_is_passthrough() {
        let x = Tensor::randn(&[2, 3], 1);
        let w = Tensor::from_fn(&[3, 3], |ix| if ix[0] == ix[1] { 1.0 } else { 0.0 });
        let y = linear(&x, &w, &[0.0; 3]).unwrap();
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn bias_added() {
        let x = Tensor::zeros(&[1, 2]);
        let w = Tensor::zeros(&[2, 2]);
        let y = linear(&x, &w, &[1.5, -0.5]).unwrap();
        assert_eq!(y.as_slice(), &[1.5, -0.5]);
    }

    #[test]
    fn backward_matches_numeric() {
        let x = Tensor::randn(&[2, 3], 5);
        let w = Tensor::randn(&[4, 3], 6);
        let b = [0.1, -0.2, 0.3, 0.0];
        let d_out = Tensor::randn(&[2, 4], 7);
        let grads = linear_backward(&x, &w, &b, &d_out).unwrap();

        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[i] -= eps;
            let lp: f32 =
                linear(&plus, &w, &b).unwrap().iter().zip(d_out.iter()).map(|(a, g)| a * g).sum();
            let lm: f32 =
                linear(&minus, &w, &b).unwrap().iter().zip(d_out.iter()).map(|(a, g)| a * g).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((grads.d_input.as_slice()[i] - numeric).abs() < 1e-2);
        }
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let x = Tensor::zeros(&[1, 3]);
        let w = Tensor::zeros(&[2, 4]);
        assert!(linear(&x, &w, &[0.0; 2]).is_err());
        assert!(linear_batch(&x, &w, &[0.0; 2]).is_err());
        assert!(linear_d_input_batch(&x, &w).is_err());
    }

    #[test]
    fn gemm_forward_is_bit_identical_to_reference_loop() {
        // Non-zero bias on purpose: the Seeded chain must reproduce the
        // `bias + Σ` ordering, not just the zero-bias case the probe uses.
        let x = Tensor::randn(&[13, 37], 51).map(|v| v * 1.7);
        let w = Tensor::randn(&[9, 37], 52);
        let b: Vec<f32> = (0..9).map(|i| (i as f32) * 0.21 - 0.9).collect();
        let want = linear(&x, &w, &b).unwrap();
        let got = linear_batch(&x, &w, &b).unwrap();
        for (i, (a, r)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(a.to_bits(), r.to_bits(), "element {i}: {a} vs {r}");
        }
    }

    #[test]
    fn gemm_d_input_is_bit_identical_to_reference_loop() {
        let x = Tensor::randn(&[11, 29], 53);
        let w = Tensor::randn(&[7, 29], 54);
        let b = vec![0.0f32; 7];
        let d_out = Tensor::randn(&[11, 7], 55);
        let want = linear_backward(&x, &w, &b, &d_out).unwrap().d_input;
        let got = linear_d_input_batch(&d_out, &w).unwrap();
        for (i, (a, r)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(a.to_bits(), r.to_bits(), "element {i}: {a} vs {r}");
        }
    }
}

//! Batch normalisation over NCHW activations.

use crate::{Result, Tensor, TensorError};

/// Values saved by the forward pass that the backward pass needs.
#[derive(Debug, Clone)]
pub struct BatchNormCache {
    /// Normalised activations `x_hat` (before scale/shift).
    pub x_hat: Tensor,
    /// Per-channel batch standard deviation (with epsilon folded in).
    pub std: Vec<f32>,
    /// Per-channel scale parameters used in the forward pass.
    pub gamma: Vec<f32>,
}

const EPS: f32 = 1e-5;

fn check_rank4(x: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    let d = x.shape().dims();
    if d.len() != 4 {
        return Err(TensorError::InvalidShape {
            op,
            reason: format!("expected NCHW rank-4 input, got {}", x.shape()),
        });
    }
    Ok((d[0], d[1], d[2], d[3]))
}

/// Batch-norm forward using batch statistics (training mode, as at init).
///
/// `gamma`/`beta` are per-channel scale and shift; pass all-ones / all-zeros
/// for a freshly initialised network, which is what Fisher Potential sees.
///
/// # Errors
/// Returns an error if `x` is not rank-4 or the parameter lengths do not
/// match the channel count.
pub fn batch_norm2d(x: &Tensor, gamma: &[f32], beta: &[f32]) -> Result<(Tensor, BatchNormCache)> {
    let (n, c, h, w) = check_rank4(x, "batch_norm2d")?;
    if gamma.len() != c || beta.len() != c {
        return Err(TensorError::InvalidShape {
            op: "batch_norm2d",
            reason: format!("gamma/beta must have {c} entries, got {}/{}", gamma.len(), beta.len()),
        });
    }
    let mut y = Tensor::zeros(&[n, c, h, w]);
    let mut x_hat = Tensor::zeros(&[n, c, h, w]);
    let mut stds = vec![0.0f32; c];
    bn_forward_unit(
        x.as_slice(),
        y.as_mut_slice(),
        x_hat.as_mut_slice(),
        &mut stds,
        gamma,
        beta,
        (n, c, h, w),
    );
    let cache = BatchNormCache { x_hat, std: stds, gamma: gamma.to_vec() };
    Ok((y, cache))
}

/// One unit's batch-norm forward over flat NCHW slices — the **single
/// source** of the statistics math. Both [`batch_norm2d`] and
/// [`batch_norm2d_batch`] reduce through this function, so the two entry
/// points cannot drift apart (the probe scheduler's per-unit bit-identity
/// contract rests on them agreeing to the last bit).
fn bn_forward_unit(
    xs: &[f32],
    ys: &mut [f32],
    x_hat: &mut [f32],
    stds: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
) {
    let count = (n * h * w) as f32;
    for ch in 0..c {
        let mut mean = 0.0f32;
        for in_ in 0..n {
            let base = (in_ * c + ch) * h * w;
            for i in 0..h * w {
                mean += xs[base + i];
            }
        }
        mean /= count;
        let mut var = 0.0f32;
        for in_ in 0..n {
            let base = (in_ * c + ch) * h * w;
            for i in 0..h * w {
                let d = xs[base + i] - mean;
                var += d * d;
            }
        }
        var /= count;
        let std = (var + EPS).sqrt();
        stds[ch] = std;
        for in_ in 0..n {
            let base = (in_ * c + ch) * h * w;
            for i in 0..h * w {
                let xh = (xs[base + i] - mean) / std;
                x_hat[base + i] = xh;
                ys[base + i] = gamma[ch] * xh + beta[ch];
            }
        }
    }
}

/// One unit's batch-norm backward over flat NCHW slices ([`batch_norm2d_backward`]).
fn bn_backward_unit(
    dy: &[f32],
    xh: &[f32],
    dx: &mut [f32],
    stds: &[f32],
    gamma: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
) {
    let count = (n * h * w) as f32;
    for ch in 0..c {
        let mut sum_dy = 0.0f32;
        let mut sum_dy_xh = 0.0f32;
        for in_ in 0..n {
            let base = (in_ * c + ch) * h * w;
            for i in 0..h * w {
                sum_dy += dy[base + i];
                sum_dy_xh += dy[base + i] * xh[base + i];
            }
        }
        let mean_dy = sum_dy / count;
        let mean_dy_xh = sum_dy_xh / count;
        let scale = gamma[ch] / stds[ch];
        for in_ in 0..n {
            let base = (in_ * c + ch) * h * w;
            for i in 0..h * w {
                dx[base + i] = scale * (dy[base + i] - mean_dy - xh[base + i] * mean_dy_xh);
            }
        }
    }
}

fn check_rank5(x: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize, usize)> {
    let d = x.shape().dims();
    if d.len() != 5 {
        return Err(TensorError::InvalidShape {
            op,
            reason: format!("expected [units, n, c, h, w] rank-5 input, got {}", x.shape()),
        });
    }
    Ok((d[0], d[1], d[2], d[3], d[4]))
}

/// Batch-norm forward over a stack of independent units.
///
/// `x` is `[units, n, c, h, w]`: `units` same-shaped activations stacked
/// along a leading axis, each normalised over its *own* `(n, h, w)` batch
/// statistics exactly as [`batch_norm2d`] would normalise it alone —
/// per-channel sums run in the same `(n, h·w)` ascending order, so every
/// unit's output is **bit-identical** to a per-unit [`batch_norm2d`] call.
/// `gamma`/`beta` are shared by all units (the Fisher probe's tail applies
/// all-ones / all-zeros to every member of a wave).
///
/// One call replaces `units` small forward passes: the probe scheduler
/// stacks a shape class's members into one wave so the whole tail runs as a
/// handful of wide passes instead of hundreds of tensor-sized ones. The
/// probe reads its score above the batch norm, so no backward cache is
/// kept.
///
/// # Errors
/// Returns an error if `x` is not rank-5 or the parameter lengths do not
/// match the channel count.
pub fn batch_norm2d_batch(x: &Tensor, gamma: &[f32], beta: &[f32]) -> Result<Tensor> {
    let (units, n, c, h, w) = check_rank5(x, "batch_norm2d_batch")?;
    if gamma.len() != c || beta.len() != c {
        return Err(TensorError::InvalidShape {
            op: "batch_norm2d_batch",
            reason: format!("gamma/beta must have {c} entries, got {}/{}", gamma.len(), beta.len()),
        });
    }
    let unit_len = n * c * h * w;
    let xs = x.as_slice();
    let mut y = Tensor::zeros(&[units, n, c, h, w]);
    let mut x_hat = vec![0.0f32; unit_len];
    let mut stds = vec![0.0f32; c];

    for u in 0..units {
        let ub = u * unit_len;
        bn_forward_unit(
            &xs[ub..ub + unit_len],
            &mut y.as_mut_slice()[ub..ub + unit_len],
            &mut x_hat,
            &mut stds,
            gamma,
            beta,
            (n, c, h, w),
        );
    }
    Ok(y)
}

/// Batch-norm backward pass: gradient with respect to the input.
///
/// Uses the standard training-mode formula
/// `dx = gamma/std * (dy - mean(dy) - x_hat * mean(dy * x_hat))`.
///
/// # Errors
/// Returns an error if `d_out`'s shape differs from the cached activations.
pub fn batch_norm2d_backward(cache: &BatchNormCache, d_out: &Tensor) -> Result<Tensor> {
    if d_out.shape() != cache.x_hat.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "batch_norm2d_backward",
            expected: cache.x_hat.shape().clone(),
            found: d_out.shape().clone(),
        });
    }
    let (n, c, h, w) = check_rank4(d_out, "batch_norm2d_backward")?;
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    bn_backward_unit(
        d_out.as_slice(),
        cache.x_hat.as_slice(),
        dx.as_mut_slice(),
        &cache.std,
        &cache.gamma,
        (n, c, h, w),
    );
    Ok(dx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalises_each_channel() {
        let x = Tensor::randn(&[4, 3, 5, 5], 77).map(|v| v * 3.0 + 2.0);
        let (y, _) = batch_norm2d(&x, &[1.0; 3], &[0.0; 3]).unwrap();
        // Per-channel mean ~0, var ~1.
        let d = y.shape().dims();
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..d[0] {
                for i in 0..d[2] {
                    for j in 0..d[3] {
                        vals.push(y.at(&[n, c, i, j]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {c} var {var}");
        }
    }

    #[test]
    fn gamma_beta_applied() {
        let x = Tensor::randn(&[2, 2, 3, 3], 5);
        let (y, _) = batch_norm2d(&x, &[2.0, 0.5], &[1.0, -1.0]).unwrap();
        let (y0, _) = batch_norm2d(&x, &[1.0, 1.0], &[0.0, 0.0]).unwrap();
        for n in 0..2 {
            for i in 0..3 {
                for j in 0..3 {
                    let a = y.at(&[n, 0, i, j]);
                    let b = y0.at(&[n, 0, i, j]) * 2.0 + 1.0;
                    assert!((a - b).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        let x = Tensor::randn(&[2, 2, 3, 3], 9);
        let gamma = [1.3, 0.7];
        let beta = [0.2, -0.4];
        let d_out = Tensor::randn(&[2, 2, 3, 3], 10);
        let (_, cache) = batch_norm2d(&x, &gamma, &beta).unwrap();
        let dx = batch_norm2d_backward(&cache, &d_out).unwrap();

        let eps = 1e-2f32;
        let mut numeric = Tensor::zeros(x.shape().dims());
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[i] -= eps;
            let (yp, _) = batch_norm2d(&plus, &gamma, &beta).unwrap();
            let (ym, _) = batch_norm2d(&minus, &gamma, &beta).unwrap();
            let lp: f32 = yp.iter().zip(d_out.iter()).map(|(a, b)| a * b).sum();
            let lm: f32 = ym.iter().zip(d_out.iter()).map(|(a, b)| a * b).sum();
            numeric.as_mut_slice()[i] = (lp - lm) / (2.0 * eps);
        }
        assert!(
            dx.allclose(&numeric, 5e-2),
            "bn backward diverged: {}",
            dx.max_abs_diff(&numeric).unwrap()
        );
    }

    #[test]
    fn rejects_wrong_parameter_length() {
        let x = Tensor::zeros(&[1, 3, 2, 2]);
        assert!(batch_norm2d(&x, &[1.0; 2], &[0.0; 3]).is_err());
    }

    #[test]
    fn batched_units_match_serial_calls_bitwise() {
        // The probe-tail contract: each stacked unit's forward is
        // bit-identical to a standalone batch_norm2d on it.
        let (units, n, c, h, w) = (3usize, 4usize, 2usize, 3usize, 5usize);
        let x = Tensor::randn(&[units, n, c, h, w], 31).map(|v| v * 2.0 - 0.3);
        let gamma = [1.25, 0.5];
        let beta = [0.1, -0.7];
        let y = batch_norm2d_batch(&x, &gamma, &beta).unwrap();

        let unit_len = n * c * h * w;
        for u in 0..units {
            let slice = |t: &Tensor| {
                Tensor::from_vec(
                    &[n, c, h, w],
                    t.as_slice()[u * unit_len..(u + 1) * unit_len].to_vec(),
                )
                .unwrap()
            };
            let (want_y, _) = batch_norm2d(&slice(&x), &gamma, &beta).unwrap();
            for (a, b) in slice(&y).iter().zip(want_y.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "unit {u} forward diverged");
            }
        }
    }

    #[test]
    fn batched_rejects_bad_rank_and_parameters() {
        let x4 = Tensor::zeros(&[2, 3, 2, 2]);
        assert!(batch_norm2d_batch(&x4, &[1.0; 3], &[0.0; 3]).is_err());
        let x5 = Tensor::zeros(&[2, 1, 3, 2, 2]);
        assert!(batch_norm2d_batch(&x5, &[1.0; 2], &[0.0; 3]).is_err());
    }
}

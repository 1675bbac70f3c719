//! 2-D tensor convolution: standard, grouped, depthwise and bottlenecked.
//!
//! The single [`conv2d`] entry point covers every convolution variant the paper
//! manipulates, because (paper §3.1) they are all instances of grouped
//! convolution over a possibly-reduced filter count:
//!
//! * standard convolution: `groups = 1`;
//! * grouped convolution:  `groups = G` (paper Eq. 3, Algorithm 2);
//! * depthwise convolution: `groups = c_in = c_out` (paper Algorithm 3);
//! * bottlenecked convolution: the caller shrinks `c_out` by the factor `B`
//!   (paper Eq. 2) — the loop structure is unchanged.
//!
//! ## Execution paths and the dispatch heuristic
//!
//! Two implementations sit behind [`conv2d`] / [`conv2d_backward`]:
//!
//! * the **naive** direct loop nest ([`conv2d_naive`]) — obviously correct,
//!   zero setup cost, and the semantic reference everything else is tested
//!   against (its forward pass runs the output-column loop innermost, which
//!   vectorises, and is pinned bitwise to the 7-deep nest);
//! * the **im2col + GEMM** path — lowers the whole batch to one wide patch
//!   matrix ([`super::im2col::im2col_batch`]) and runs one worker-pool
//!   parallel matrix product per group ([`super::gemm`], which dispatches to
//!   packed-panel SIMD micro-kernels — see its module docs for the kernel
//!   tree); grouped variants use band-sliced GEMMs per group, no separate
//!   lowering. Batching the lowering lets each group's weight panel be
//!   packed once per call instead of once per image; the wide product is
//!   bit-identical to per-image GEMMs (each image is a contiguous column
//!   band, and output elements never cross bands).
//!
//! Dispatch is on total multiply–accumulate work (`spec.macs(h, w) · n`
//! against [`GEMM_MIN_MACS`]): the GEMM path pays one `c_in·K²·OH·OW` buffer
//! per image, which only amortises once there is enough arithmetic to blow
//! past the naive path's per-point address costs. Fisher-probe convolutions
//! (the search hot path, ~2 MMAC each) land far above the threshold; the
//! tiny doctest-sized convolutions land below it and stay on the naive path.
//! Per-group GEMM shapes degenerate for extreme grouping (depthwise: one row
//! per group), so grouped dispatch additionally requires a non-trivial
//! per-group row count.

use super::gemm::{gemm_nn, gemm_nt, gemm_tn};
use super::im2col::{col2im, col_dims, im2col, im2col_batch};
use crate::{Result, Shape, Tensor, TensorError};

/// Minimum total multiply–accumulate count (across the batch) before
/// [`conv2d`] lowers to the im2col + GEMM path.
pub const GEMM_MIN_MACS: u64 = 1 << 16;

/// Transient patch-matrix budget for the batched forward lowering, in `f32`
/// elements (~16 MiB): batches whose whole patch matrix would exceed it are
/// processed in image chunks, so transient memory stays bounded at any batch
/// size while the per-chunk GEMMs keep the packing amortisation.
const CONV_COL_BUDGET: usize = 1 << 22;

static FORCE_NAIVE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Benchmarking hook: routes [`conv2d`] / [`conv2d_backward`] to the naive
/// path regardless of problem size, so harnesses can time the pre-GEMM
/// engine end to end. Process-global; not intended for production use.
pub fn set_force_naive(on: bool) {
    FORCE_NAIVE.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Whether the [`conv2d`] dispatcher sends this problem to the GEMM path.
///
/// Public so batched callers (the Fisher probe scheduler) can mirror the
/// dispatch decision exactly: a batched GEMM execution is only bit-identical
/// to `conv2d` for problems `conv2d` itself would route to GEMM.
pub fn uses_gemm_path(spec: &Conv2dSpec, n: usize, h: usize, w: usize) -> bool {
    use_gemm(spec, n, h, w)
}

/// Whether the dispatcher sends this problem to the GEMM path.
fn use_gemm(spec: &Conv2dSpec, n: usize, h: usize, w: usize) -> bool {
    // Depthwise-style extreme grouping leaves one-row GEMMs per group: all
    // lowering overhead, no blocking benefit.
    !FORCE_NAIVE.load(std::sync::atomic::Ordering::Relaxed)
        && spec.c_out_per_group() >= 4
        && spec.macs(h, w) * n as u64 >= GEMM_MIN_MACS
}

/// Static description of a 2-D convolution.
///
/// ```
/// use pte_tensor::ops::Conv2dSpec;
/// let spec = Conv2dSpec::new(64, 128, 3).with_stride(2).with_padding(1).with_groups(2);
/// assert_eq!(spec.output_hw(32, 32), (16, 16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Input channel count `C_i`.
    pub c_in: usize,
    /// Output channel count `C_o` (after any bottlenecking).
    pub c_out: usize,
    /// Square kernel extent `K` (`K_h = K_w = K`).
    pub kernel: usize,
    /// Spatial stride.
    pub stride: usize,
    /// Symmetric zero padding.
    pub padding: usize,
    /// Channel group count `G`; `1` means a standard convolution.
    pub groups: usize,
}

impl Conv2dSpec {
    /// Creates a standard convolution spec with stride 1, no padding, one group.
    pub fn new(c_in: usize, c_out: usize, kernel: usize) -> Self {
        Conv2dSpec { c_in, c_out, kernel, stride: 1, padding: 0, groups: 1 }
    }

    /// Sets the spatial stride.
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the symmetric zero padding.
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Sets the group count `G`.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Input channels per group (`C_i / G`).
    pub fn c_in_per_group(&self) -> usize {
        self.c_in / self.groups.max(1)
    }

    /// Output channels per group (`C_o / G`).
    pub fn c_out_per_group(&self) -> usize {
        self.c_out / self.groups.max(1)
    }

    /// Shape of the weight tensor: `[c_out, c_in/groups, k, k]`.
    pub fn weight_dims(&self) -> [usize; 4] {
        [self.c_out, self.c_in_per_group(), self.kernel, self.kernel]
    }

    /// Output spatial size for a given input spatial size.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Number of multiply–accumulate operations for a given input spatial size.
    ///
    /// Grouping divides this by `G` (paper §3.1: `(C_o × C_i)/G` filters).
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.output_hw(h, w);
        (oh * ow) as u64
            * self.c_out as u64
            * self.c_in_per_group() as u64
            * (self.kernel * self.kernel) as u64
    }

    /// Number of weight parameters.
    pub fn params(&self) -> u64 {
        self.c_out as u64 * self.c_in_per_group() as u64 * (self.kernel * self.kernel) as u64
    }

    /// Validates internal consistency (divisibility, non-zero extents).
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidShape`] describing the violated constraint.
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: String| Err(TensorError::InvalidShape { op: "conv2d", reason });
        if self.c_in == 0 || self.c_out == 0 || self.kernel == 0 || self.stride == 0 {
            return fail("channel counts, kernel and stride must be non-zero".into());
        }
        if self.groups == 0 {
            return fail("group count must be non-zero".into());
        }
        if !self.c_in.is_multiple_of(self.groups) {
            return fail(format!("c_in {} not divisible by groups {}", self.c_in, self.groups));
        }
        if !self.c_out.is_multiple_of(self.groups) {
            return fail(format!("c_out {} not divisible by groups {}", self.c_out, self.groups));
        }
        Ok(())
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient of the loss with respect to the convolution input.
    pub d_input: Tensor,
    /// Gradient of the loss with respect to the weights.
    pub d_weight: Tensor,
}

fn check_conv_args(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(usize, usize, usize)> {
    spec.validate()?;
    let idims = input.shape().dims();
    if idims.len() != 4 {
        return Err(TensorError::InvalidShape {
            op: "conv2d",
            reason: format!("input must be NCHW rank-4, got {}", input.shape()),
        });
    }
    if idims[1] != spec.c_in {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            expected: Shape::new(&[idims[0], spec.c_in, idims[2], idims[3]]),
            found: input.shape().clone(),
        });
    }
    let wdims = spec.weight_dims();
    if weight.shape().dims() != wdims {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            expected: Shape::new(&wdims),
            found: weight.shape().clone(),
        });
    }
    let (h, w) = (idims[2], idims[3]);
    if h + 2 * spec.padding < spec.kernel || w + 2 * spec.padding < spec.kernel {
        return Err(TensorError::InvalidShape {
            op: "conv2d",
            reason: format!("kernel {} larger than padded input {}x{}", spec.kernel, h, w),
        });
    }
    Ok((idims[0], h, w))
}

/// 2-D convolution forward pass (paper Eq. 1–3).
///
/// `input` is `[n, c_in, h, w]`, `weight` is `[c_out, c_in/groups, k, k]`;
/// returns `[n, c_out, oh, ow]`. Dispatches between the naive loop nest and
/// the im2col + GEMM path on problem size (see the module docs); both paths
/// compute the same operator (to FP-reassociation tolerance).
///
/// # Errors
/// Returns an error if the spec is inconsistent or shapes do not match it.
pub fn conv2d(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let (n, h, w) = check_conv_args(input, weight, spec)?;
    if use_gemm(spec, n, h, w) {
        conv2d_gemm_checked(input, weight, spec, n, h, w)
    } else {
        conv2d_naive(input, weight, spec)
    }
}

/// Forward pass via im2col + grouped GEMM. Prefer [`conv2d`], which
/// dispatches here when profitable; this entry point exists for benchmarks
/// and differential tests.
///
/// # Errors
/// Returns an error if the spec is inconsistent or shapes do not match it.
pub fn conv2d_gemm(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let (n, h, w) = check_conv_args(input, weight, spec)?;
    conv2d_gemm_checked(input, weight, spec, n, h, w)
}

fn conv2d_gemm_checked(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    n: usize,
    h: usize,
    w: usize,
) -> Result<Tensor> {
    let (oh, ow) = spec.output_hw(h, w);
    let (cig, cog) = (spec.c_in_per_group(), spec.c_out_per_group());
    let k = spec.kernel;
    let (col_rows, col_cols) = col_dims(spec, h, w);
    let group_rows = cig * k * k; // contiguous row band per group (im2col docs)
    let mut out = Tensor::zeros(&[n, spec.c_out, oh, ow]);
    if n == 0 {
        return Ok(out);
    }

    let x = input.as_slice();
    let wt = weight.as_slice();
    // Images are lowered and multiplied in batched chunks: within a chunk,
    // image `im` is the contiguous column band `[im·cols, (im+1)·cols)` of
    // every patch row, so a single GEMM per group covers the whole chunk —
    // the group's weight panel is packed once per chunk instead of once per
    // image. The chunk size bounds the transient patch/product buffers
    // ([`CONV_COL_BUDGET`]); probe-scale batches fit in one chunk. Chunking
    // and widening are both bit-identical to per-image GEMMs: the bands hold
    // exactly the per-image patch matrices, and each output element stays
    // inside one image's band.
    let per_image = col_rows * col_cols;
    let chunk = (CONV_COL_BUDGET / per_image.max(1)).clamp(1, n);
    let mut col = vec![0.0f32; per_image * chunk];
    let mut wide = vec![0.0f32; spec.c_out * col_cols * chunk];
    let o = out.as_mut_slice();
    for i0 in (0..n).step_by(chunk) {
        let images = chunk.min(n - i0);
        let chunk_cols = images * col_cols;
        im2col_batch(&x[i0 * spec.c_in * h * w..], spec, h, w, images, &mut col);
        wide[..spec.c_out * chunk_cols].fill(0.0);
        for g in 0..spec.groups {
            gemm_nn(
                cog,
                group_rows,
                chunk_cols,
                &wt[g * cog * group_rows..],
                &col[g * group_rows * chunk_cols..],
                &mut wide[g * cog * chunk_cols..],
            );
        }
        // Scatter `[c_out × images·cols]` back to the NCHW output layout.
        for im in 0..images {
            for co in 0..spec.c_out {
                o[((i0 + im) * spec.c_out + co) * col_cols..][..col_cols]
                    .copy_from_slice(&wide[co * chunk_cols + im * col_cols..][..col_cols]);
            }
        }
    }
    Ok(out)
}

/// Forward pass via the direct loop nest. Prefer [`conv2d`], which
/// dispatches here for small problems; this entry point exists for
/// benchmarks and differential tests.
///
/// Each output row accumulates whole rows of taps: the innermost loop runs
/// across output columns, so it vectorises, while every output element
/// still adds its taps in (channel, kernel row, kernel column) order,
/// multiply then add, skipping the same padding taps — bit-identical to
/// the 7-deep nest with the column loop outermost.
///
/// # Errors
/// Returns an error if the spec is inconsistent or shapes do not match it.
pub fn conv2d_naive(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let (n, h, w) = check_conv_args(input, weight, spec)?;
    let (oh, ow) = spec.output_hw(h, w);
    let (cig, cog) = (spec.c_in_per_group(), spec.c_out_per_group());
    let (k, stride, pad) = (spec.kernel, spec.stride, spec.padding);
    let mut out = Tensor::zeros(&[n, spec.c_out, oh, ow]);

    let x = input.as_slice();
    let wt = weight.as_slice();
    let o = out.as_mut_slice();
    for in_ in 0..n {
        for co in 0..spec.c_out {
            let g = co / cog;
            for y in 0..oh {
                let row = &mut o[((in_ * spec.c_out + co) * oh + y) * ow..][..ow];
                for ci in 0..cig {
                    let ic = g * cig + ci;
                    for kh in 0..k {
                        let ih = y * stride + kh;
                        if ih < pad || ih - pad >= h {
                            continue;
                        }
                        let x_row = &x[((in_ * spec.c_in + ic) * h + ih - pad) * w..][..w];
                        for kw in 0..k {
                            let tap = wt[((co * cig + ci) * k + kh) * k + kw];
                            // The output columns whose input column
                            // `xo * stride + kw - pad` lies inside the row.
                            let first = pad.saturating_sub(kw).div_ceil(stride);
                            let end = (w + pad).saturating_sub(kw).div_ceil(stride).min(ow);
                            if first >= end {
                                continue;
                            }
                            let x0 = first * stride + kw - pad;
                            if stride == 1 {
                                let xs = &x_row[x0..x0 + (end - first)];
                                for (acc, &xv) in row[first..end].iter_mut().zip(xs) {
                                    *acc += xv * tap;
                                }
                            } else {
                                let xs = x_row[x0..].iter().step_by(stride);
                                for (acc, &xv) in row[first..end].iter_mut().zip(xs) {
                                    *acc += xv * tap;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

fn check_backward_args(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    d_out: &Tensor,
) -> Result<(usize, usize, usize)> {
    let (n, h, w) = check_conv_args(input, weight, spec)?;
    let (oh, ow) = spec.output_hw(h, w);
    let expected = Shape::new(&[n, spec.c_out, oh, ow]);
    if d_out.shape() != &expected {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            expected,
            found: d_out.shape().clone(),
        });
    }
    Ok((n, h, w))
}

/// 2-D convolution backward pass.
///
/// Given `d_out = ∂L/∂output`, produces `∂L/∂input` and `∂L/∂weight`.
/// Dispatches between the naive scatter loop and the GEMM + col2im path on
/// the same size heuristic as the forward pass.
///
/// # Errors
/// Returns an error if shapes are inconsistent with the spec, or if `d_out`
/// does not have the forward output shape.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    d_out: &Tensor,
) -> Result<Conv2dGrads> {
    let (n, h, w) = check_backward_args(input, weight, spec, d_out)?;
    if use_gemm(spec, n, h, w) {
        conv2d_backward_gemm_checked(input, weight, spec, d_out, n, h, w)
    } else {
        conv2d_backward_naive(input, weight, spec, d_out)
    }
}

/// Backward pass via GEMM + col2im: per image and group,
/// `dW_g += dO_g · col_gᵀ` and `d col_g = W_gᵀ · dO_g`, then the adjoint
/// scatter back to image layout. Prefer [`conv2d_backward`]; this entry
/// point exists for benchmarks and differential tests.
///
/// Unlike the forward pass, the image loop here is *not* widened into one
/// batched GEMM: `dW` accumulates image contributions sequentially, and
/// fusing the images would reassociate that per-element sum (forward output
/// elements never cross images; weight gradients always do). The per-image
/// products still run on the packed micro-kernel path via [`super::gemm`]'s
/// dispatch.
///
/// # Errors
/// Returns an error if shapes are inconsistent with the spec.
pub fn conv2d_backward_gemm(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    d_out: &Tensor,
) -> Result<Conv2dGrads> {
    let (n, h, w) = check_backward_args(input, weight, spec, d_out)?;
    conv2d_backward_gemm_checked(input, weight, spec, d_out, n, h, w)
}

fn conv2d_backward_gemm_checked(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    d_out: &Tensor,
    n: usize,
    h: usize,
    w: usize,
) -> Result<Conv2dGrads> {
    let (cig, cog) = (spec.c_in_per_group(), spec.c_out_per_group());
    let k = spec.kernel;
    let (col_rows, col_cols) = col_dims(spec, h, w);
    let group_rows = cig * k * k;
    let mut d_input = Tensor::zeros(input.shape().dims());
    let mut d_weight = Tensor::zeros(weight.shape().dims());

    let x = input.as_slice();
    let wt = weight.as_slice();
    let go = d_out.as_slice();
    let gx = d_input.as_mut_slice();
    let gw = d_weight.as_mut_slice();
    let mut col = vec![0.0f32; col_rows * col_cols];
    let mut d_col = vec![0.0f32; col_rows * col_cols];
    for im in 0..n {
        im2col(&x[im * spec.c_in * h * w..], spec, h, w, &mut col);
        d_col.fill(0.0);
        for g in 0..spec.groups {
            let go_g = &go[(im * spec.c_out + g * cog) * col_cols..];
            // dW_g [cog × group_rows] += dO_g [cog × cols] · col_g [group_rows × cols]ᵀ
            gemm_nt(
                cog,
                col_cols,
                group_rows,
                go_g,
                &col[g * group_rows * col_cols..],
                &mut gw[g * cog * group_rows..],
            );
            // d col_g [group_rows × cols] += W_g [cog × group_rows]ᵀ · dO_g [cog × cols]
            gemm_tn(
                group_rows,
                cog,
                col_cols,
                &wt[g * cog * group_rows..],
                go_g,
                &mut d_col[g * group_rows * col_cols..],
            );
        }
        col2im(&d_col, spec, h, w, &mut gx[im * spec.c_in * h * w..]);
    }
    Ok(Conv2dGrads { d_input, d_weight })
}

/// Backward pass via the reference scatter over the forward iteration space.
/// Prefer [`conv2d_backward`]; this entry point exists for benchmarks and
/// differential tests.
///
/// # Errors
/// Returns an error if shapes are inconsistent with the spec, or if `d_out`
/// does not have the forward output shape.
pub fn conv2d_backward_naive(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    d_out: &Tensor,
) -> Result<Conv2dGrads> {
    let (n, h, w) = check_backward_args(input, weight, spec, d_out)?;
    let (oh, ow) = spec.output_hw(h, w);
    let (cig, cog) = (spec.c_in_per_group(), spec.c_out_per_group());
    let k = spec.kernel;
    let mut d_input = Tensor::zeros(input.shape().dims());
    let mut d_weight = Tensor::zeros(weight.shape().dims());

    let x = input.as_slice();
    let wt = weight.as_slice();
    let go = d_out.as_slice();
    let gx = d_input.as_mut_slice();
    let gw = d_weight.as_mut_slice();
    for in_ in 0..n {
        for co in 0..spec.c_out {
            let g = co / cog;
            for y in 0..oh {
                for xo in 0..ow {
                    let grad = go[((in_ * spec.c_out + co) * oh + y) * ow + xo];
                    if grad == 0.0 {
                        continue;
                    }
                    for ci in 0..cig {
                        let ic = g * cig + ci;
                        for kh in 0..k {
                            let ih = y * spec.stride + kh;
                            if ih < spec.padding || ih - spec.padding >= h {
                                continue;
                            }
                            let ih = ih - spec.padding;
                            for kw in 0..k {
                                let iw = xo * spec.stride + kw;
                                if iw < spec.padding || iw - spec.padding >= w {
                                    continue;
                                }
                                let iw = iw - spec.padding;
                                let xi = ((in_ * spec.c_in + ic) * h + ih) * w + iw;
                                let wi = ((co * cig + ci) * k + kh) * k + kw;
                                gx[xi] += grad * wt[wi];
                                gw[wi] += grad * x[xi];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(Conv2dGrads { d_input, d_weight })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_d_input(
        input: &Tensor,
        weight: &Tensor,
        spec: &Conv2dSpec,
        d_out: &Tensor,
    ) -> Tensor {
        // Central differences on L = <output, d_out>.
        let eps = 1e-3f32;
        let mut grad = Tensor::zeros(input.shape().dims());
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let lp: f32 = conv2d(&plus, weight, spec)
                .unwrap()
                .iter()
                .zip(d_out.iter())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = conv2d(&minus, weight, spec)
                .unwrap()
                .iter()
                .zip(d_out.iter())
                .map(|(a, b)| a * b)
                .sum();
            grad.as_mut_slice()[i] = (lp - lm) / (2.0 * eps);
        }
        grad
    }

    #[test]
    fn output_shape_matches_formula() {
        let spec = Conv2dSpec::new(3, 8, 3).with_stride(2).with_padding(1);
        let x = Tensor::randn(&[2, 3, 9, 9], 1);
        let w = Tensor::randn(&spec.weight_dims(), 2);
        let y = conv2d(&x, &w, &spec).unwrap();
        assert_eq!(y.shape().dims(), &[2, 8, 5, 5]);
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel with identity channel mixing reproduces the input.
        let spec = Conv2dSpec::new(2, 2, 1);
        let x = Tensor::randn(&[1, 2, 4, 4], 3);
        let w = Tensor::from_fn(&[2, 2, 1, 1], |ix| if ix[0] == ix[1] { 1.0 } else { 0.0 });
        let y = conv2d(&x, &w, &spec).unwrap();
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn grouped_matches_per_group_standard() {
        // A G=2 grouped conv equals two standard convs on channel halves.
        let spec = Conv2dSpec::new(4, 6, 3).with_padding(1).with_groups(2);
        let x = Tensor::randn(&[1, 4, 6, 6], 10);
        let w = Tensor::randn(&spec.weight_dims(), 11);
        let y = conv2d(&x, &w, &spec).unwrap();

        for g in 0..2usize {
            let sub = Conv2dSpec::new(2, 3, 3).with_padding(1);
            let xg =
                Tensor::from_fn(&[1, 2, 6, 6], |ix| x.at(&[ix[0], g * 2 + ix[1], ix[2], ix[3]]));
            let wg =
                Tensor::from_fn(&[3, 2, 3, 3], |ix| w.at(&[g * 3 + ix[0], ix[1], ix[2], ix[3]]));
            let yg = conv2d(&xg, &wg, &sub).unwrap();
            for co in 0..3 {
                for i in 0..6 {
                    for j in 0..6 {
                        let a = y.at(&[0, g * 3 + co, i, j]);
                        let b = yg.at(&[0, co, i, j]);
                        assert!((a - b).abs() < 1e-5, "mismatch at g={g} co={co} ({a} vs {b})");
                    }
                }
            }
        }
    }

    #[test]
    fn depthwise_is_group_conv_with_g_eq_c() {
        // Depthwise: each output channel sees exactly one input channel.
        let spec = Conv2dSpec::new(3, 3, 3).with_padding(1).with_groups(3);
        assert_eq!(spec.weight_dims(), [3, 1, 3, 3]);
        let x = Tensor::randn(&[1, 3, 5, 5], 20);
        let w = Tensor::randn(&spec.weight_dims(), 21);
        let y = conv2d(&x, &w, &spec).unwrap();
        // Zeroing input channel 1 must change only output channel 1.
        let mut x2 = x.clone();
        for i in 0..5 {
            for j in 0..5 {
                x2.set(&[0, 1, i, j], 0.0);
            }
        }
        let y2 = conv2d(&x2, &w, &spec).unwrap();
        for co in [0usize, 2] {
            for i in 0..5 {
                for j in 0..5 {
                    assert_eq!(y.at(&[0, co, i, j]), y2.at(&[0, co, i, j]));
                }
            }
        }
    }

    #[test]
    fn macs_reduced_by_group_factor() {
        let dense = Conv2dSpec::new(8, 8, 3).with_padding(1);
        let grouped = dense.with_groups(4);
        assert_eq!(dense.macs(16, 16), 4 * grouped.macs(16, 16));
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        let spec = Conv2dSpec::new(2, 4, 3).with_padding(1).with_stride(2).with_groups(2);
        let x = Tensor::randn(&[1, 2, 5, 5], 30);
        let w = Tensor::randn(&spec.weight_dims(), 31);
        let y = conv2d(&x, &w, &spec).unwrap();
        let d_out = Tensor::randn(y.shape().dims(), 32);
        let grads = conv2d_backward(&x, &w, &spec, &d_out).unwrap();
        let numeric = numeric_d_input(&x, &w, &spec, &d_out);
        assert!(
            grads.d_input.allclose(&numeric, 1e-2),
            "analytic vs numeric d_input diverged: {}",
            grads.d_input.max_abs_diff(&numeric).unwrap()
        );
    }

    /// The reference 7-deep loop nest, output column outside the taps.
    fn conv2d_oracle(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let (n, h, w) = check_conv_args(input, weight, spec).unwrap();
        let (oh, ow) = spec.output_hw(h, w);
        let (cig, cog) = (spec.c_in_per_group(), spec.c_out_per_group());
        let k = spec.kernel;
        let mut out = Tensor::zeros(&[n, spec.c_out, oh, ow]);
        let (x, wt) = (input.as_slice(), weight.as_slice());
        let o = out.as_mut_slice();
        for in_ in 0..n {
            for co in 0..spec.c_out {
                let g = co / cog;
                for y in 0..oh {
                    for xo in 0..ow {
                        let mut acc = 0.0f32;
                        for ci in 0..cig {
                            let ic = g * cig + ci;
                            for kh in 0..k {
                                let ih = y * spec.stride + kh;
                                if ih < spec.padding || ih - spec.padding >= h {
                                    continue;
                                }
                                let ih = ih - spec.padding;
                                for kw in 0..k {
                                    let iw = xo * spec.stride + kw;
                                    if iw < spec.padding || iw - spec.padding >= w {
                                        continue;
                                    }
                                    let iw = iw - spec.padding;
                                    let xi = ((in_ * spec.c_in + ic) * h + ih) * w + iw;
                                    let wi = ((co * cig + ci) * k + kh) * k + kw;
                                    acc += x[xi] * wt[wi];
                                }
                            }
                        }
                        o[((in_ * spec.c_out + co) * oh + y) * ow + xo] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn naive_forward_is_bit_identical_to_the_seven_deep_nest() {
        let mut seed = 70;
        for (c_in, c_out, groups) in [(3, 4, 1), (4, 6, 2), (6, 6, 6)] {
            for kernel in [1, 3, 5] {
                for stride in [1, 2] {
                    for padding in [0, 1, 2] {
                        for (h, w) in [(7, 9), (6, 5), (9, 13)] {
                            if h + 2 * padding < kernel || w + 2 * padding < kernel {
                                continue;
                            }
                            let spec = Conv2dSpec::new(c_in, c_out, kernel)
                                .with_stride(stride)
                                .with_padding(padding)
                                .with_groups(groups);
                            let x = Tensor::randn(&[2, c_in, h, w], seed);
                            let wt = Tensor::randn(&spec.weight_dims(), seed + 1);
                            seed += 2;
                            let fast = conv2d_naive(&x, &wt, &spec).unwrap();
                            let oracle = conv2d_oracle(&x, &wt, &spec);
                            assert_eq!(fast.shape(), oracle.shape(), "{spec:?} {h}x{w}");
                            for (i, (a, b)) in fast.iter().zip(oracle.iter()).enumerate() {
                                assert_eq!(a.to_bits(), b.to_bits(), "{spec:?} {h}x{w} at {i}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_group_divisibility_rejected() {
        let spec = Conv2dSpec::new(3, 4, 3).with_groups(2);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        // n = 0 is a valid NCHW shape; the chunked lowering must not build a
        // zero-image chunk (clamp(1, 0) panics) and the naive path agrees.
        let spec = Conv2dSpec::new(3, 8, 3).with_padding(1);
        let x = Tensor::zeros(&[0, 3, 6, 6]);
        let w = Tensor::randn(&spec.weight_dims(), 60);
        let y = conv2d_gemm(&x, &w, &spec).unwrap();
        assert_eq!(y.shape().dims(), &[0, 8, 6, 6]);
        assert_eq!(conv2d_naive(&x, &w, &spec).unwrap().shape().dims(), &[0, 8, 6, 6]);
    }

    #[test]
    fn batched_forward_chunking_is_bit_identical_to_per_image() {
        // A batch whose whole patch matrix exceeds CONV_COL_BUDGET, so the
        // forward path must take more than one chunk — the memory-bounding
        // case the rest of the suite (probe-scale shapes) never reaches.
        let spec = Conv2dSpec::new(32, 32, 3).with_padding(1);
        let (n, h, w) = (10usize, 40usize, 40usize);
        let (col_rows, col_cols) = col_dims(&spec, h, w);
        let per_image = col_rows * col_cols;
        let chunk = (CONV_COL_BUDGET / per_image).clamp(1, n);
        assert!(chunk < n, "shape must force multiple chunks (chunk={chunk})");

        let x = Tensor::randn(&[n, spec.c_in, h, w], 50);
        let wt = Tensor::randn(&spec.weight_dims(), 51);
        let batched = conv2d_gemm(&x, &wt, &spec).unwrap();
        for im in 0..n {
            let xi = Tensor::from_fn(&[1, spec.c_in, h, w], |ix| x.at(&[im, ix[1], ix[2], ix[3]]));
            let yi = conv2d_gemm(&xi, &wt, &spec).unwrap();
            let plane = spec.c_out * col_cols;
            for (p, (a, b)) in
                batched.as_slice()[im * plane..(im + 1) * plane].iter().zip(yi.iter()).enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "image {im} offset {p}");
            }
        }
    }
}

//! Neural-network operations: reference forward and backward implementations.
//!
//! These are the *semantic ground truth* for the whole framework:
//!
//! * `pte-exec` checks that transformed loop nests compute the same function as
//!   the corresponding op here (bit-identical for semantics-preserving program
//!   transformations; matching the alternative op for neural transformations
//!   such as grouping — paper §2.2–2.3).
//! * `pte-fisher` drives the backward passes to obtain the activation gradients
//!   that Fisher Potential aggregates (paper Eq. 4–5).
//!
//! All ops are plain loops over [`crate::Tensor`]s: executed only at proxy sizes,
//! clarity and obvious correctness beat speed.

mod activation;
mod conv;
pub mod gemm;
pub mod im2col;
mod linear;
mod loss;
mod maxpool;
mod norm;
mod pool;

pub use activation::{relu, relu_backward};
pub use conv::{
    conv2d, conv2d_backward, conv2d_backward_gemm, conv2d_backward_naive, conv2d_gemm,
    conv2d_naive, set_force_naive, uses_gemm_path, Conv2dGrads, Conv2dSpec, GEMM_MIN_MACS,
};
pub use linear::{linear, linear_backward, linear_batch, linear_d_input_batch, LinearGrads};
pub use loss::{cross_entropy, cross_entropy_batch, softmax};
pub use maxpool::{max_pool2d, max_pool2d_backward, MaxPoolCache};
pub use norm::{batch_norm2d, batch_norm2d_backward, batch_norm2d_batch, BatchNormCache};
pub use pool::{avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward};

//! Pointwise activations.

use crate::{Result, Tensor, TensorError};

/// Rectified linear unit, `max(0, x)` elementwise.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// ReLU backward: passes the gradient where the *input* was positive.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn relu_backward(x: &Tensor, d_out: &Tensor) -> Result<Tensor> {
    if x.shape() != d_out.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "relu_backward",
            expected: x.shape().clone(),
            found: d_out.shape().clone(),
        });
    }
    x.zip(d_out, |xv, g| if xv > 0.0 { g } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clamps_negatives() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 0.5, 2.0]).unwrap();
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let x = Tensor::from_vec(&[3], vec![-1.0, 1.0, 3.0]).unwrap();
        let g = Tensor::from_vec(&[3], vec![5.0, 5.0, 5.0]).unwrap();
        assert_eq!(relu_backward(&x, &g).unwrap().as_slice(), &[0.0, 5.0, 5.0]);
    }

    proptest! {
        /// relu is idempotent.
        #[test]
        fn idempotent(seed in 0u64..200) {
            let x = Tensor::randn(&[12], seed);
            let once = relu(&x);
            let twice = relu(&once);
            prop_assert_eq!(once.as_slice(), twice.as_slice());
        }

        /// output is always non-negative.
        #[test]
        fn non_negative(seed in 0u64..200) {
            let x = Tensor::randn(&[12], seed);
            prop_assert!(relu(&x).iter().all(|&v| v >= 0.0));
        }
    }
}

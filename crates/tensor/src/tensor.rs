//! The dense `f32` tensor type.

use std::fmt;

use crate::rng;
use crate::{Result, Shape, TensorError};

/// An owned, row-major, dense `f32` tensor.
///
/// `Tensor` is deliberately simple: a [`Shape`] plus a flat `Vec<f32>`. All of
/// the performance-sensitive exploration in `pte` happens on the *symbolic*
/// loop-nest IR (`pte-ir`); tensors are only executed at proxy sizes to compute
/// Fisher Potential and to verify transformation correctness, so clarity wins
/// over micro-optimisation here.
///
/// ```
/// use pte_tensor::Tensor;
/// let t = Tensor::from_fn(&[2, 2], |ix| (ix[0] * 2 + ix[1]) as f32);
/// assert_eq!(t.at(&[1, 0]), 2.0);
/// assert_eq!(t.iter().sum::<f32>(), 6.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given dimensions.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: vec![value; len] }
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor by evaluating `f` at every coordinate.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = Shape::new(dims);
        let mut data = Vec::with_capacity(shape.len());
        for flat in 0..shape.len() {
            let coords = shape.unflatten(flat).expect("flat index in range");
            data.push(f(&coords));
        }
        Tensor { shape, data }
    }

    /// Creates a tensor from an existing flat buffer.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidShape`] if `data.len()` does not match the
    /// product of `dims`.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.len() != data.len() {
            return Err(TensorError::InvalidShape {
                op: "from_vec",
                reason: format!("buffer of {} elements cannot have shape {}", data.len(), shape),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor of standard-normal samples (deterministic per seed).
    pub fn randn(dims: &[usize], seed: u64) -> Self {
        let mut r = rng::seeded(seed);
        let shape = Shape::new(dims);
        let mut data = Vec::new();
        rng::fill_normal(&mut r, shape.len(), &mut data);
        Tensor { shape, data }
    }

    /// Kaiming-He normal initialization for a conv weight of shape
    /// `[c_out, c_in_per_group, k_h, k_w]` (or a linear weight `[out, in]`),
    /// the same scheme PyTorch applies to the paper's networks at init.
    pub fn kaiming(dims: &[usize], seed: u64) -> Self {
        let fan_in: usize = dims.iter().skip(1).product::<usize>().max(1);
        let std = (2.0 / fan_in as f32).sqrt();
        let mut t = Tensor::randn(dims, seed);
        for v in t.data.iter_mut() {
            *v *= std;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat data buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional coordinate.
    ///
    /// # Panics
    /// Panics if the coordinate is out of range; use [`Shape::flatten`] for a
    /// checked path.
    pub fn at(&self, index: &[usize]) -> f32 {
        let flat = self.shape.flatten(index).expect("index in range");
        self.data[flat]
    }

    /// Sets the element at a multi-dimensional coordinate.
    ///
    /// # Panics
    /// Panics if the coordinate is out of range.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let flat = self.shape.flatten(index).expect("index in range");
        self.data[flat] = value;
    }

    /// Iterator over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Reinterprets the tensor with a new shape of equal length.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidShape`] if the lengths differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.len() != self.data.len() {
            return Err(TensorError::InvalidShape {
                op: "reshape",
                reason: format!("cannot reshape {} to {}", self.shape, shape),
            });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Elementwise map, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip",
                expected: self.shape.clone(),
                found: other.shape.clone(),
            });
        }
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Tensor { shape: self.shape.clone(), data })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute difference to another tensor of identical shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                expected: self.shape.clone(),
                found: other.shape.clone(),
            });
        }
        Ok(self.data.iter().zip(&other.data).fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs())))
    }

    /// True when every element is within `tol` of `other` elementwise.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self.data.iter().take(8).map(|x| format!("{x:.4}")).collect();
        write!(f, "[{}{}]", preview.join(", "), if self.data.len() > 8 { ", ..." } else { "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_fn(&[2, 3], |ix| (ix[0] * 3 + ix[1]) as f32);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(&[2, 2], vec![1.0; 5]),
            Err(TensorError::InvalidShape { .. })
        ));
    }

    #[test]
    fn zip_checks_shapes() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn randn_deterministic_per_seed() {
        let a = Tensor::randn(&[16], 99);
        let b = Tensor::randn(&[16], 99);
        let c = Tensor::randn(&[16], 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let narrow = Tensor::kaiming(&[64, 4, 3, 3], 1);
        let wide = Tensor::kaiming(&[64, 256, 3, 3], 1);
        // Wider fan-in must shrink the init scale (std ~ sqrt(2/fan_in)).
        let var = |t: &Tensor| t.iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        assert!(var(&wide) < var(&narrow) / 4.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |ix| (ix[0] * 6 + ix[1]) as f32);
        let r = t.reshape(&[3, 4]).unwrap();
        assert_eq!(r.at(&[2, 3]), 11.0);
        assert!(t.reshape(&[5, 5]).is_err());
    }

    proptest! {
        /// map(identity) is the identity.
        #[test]
        fn map_identity(seed in 0u64..500) {
            let t = Tensor::randn(&[3, 4], seed);
            let mapped = t.map(|x| x);
            prop_assert_eq!(mapped.as_slice(), t.as_slice());
        }

        /// add is commutative.
        #[test]
        fn add_commutes(s1 in 0u64..200, s2 in 0u64..200) {
            let a = Tensor::randn(&[2, 5], s1);
            let b = Tensor::randn(&[2, 5], s2);
            let ab = a.add(&b).unwrap();
            let ba = b.add(&a).unwrap();
            prop_assert!(ab.allclose(&ba, 0.0));
        }

        /// scale distributes over sum.
        #[test]
        fn scale_linear(seed in 0u64..200, k in -4.0f32..4.0) {
            let t = Tensor::randn(&[10], seed);
            let lhs = t.scale(k).sum();
            let rhs = t.sum() * k;
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }
    }
}

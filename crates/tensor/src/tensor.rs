//! The dense row-major `f32` tensor type.

use crate::rng::Rng;
use crate::Shape;
use serde::Serialize;
use std::fmt;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// `Tensor` is a plain value type: cloning copies the buffer, and all
/// operations return fresh tensors. This keeps federated-learning code
/// (model averaging, gradient ascent, update calibration) free of aliasing
/// concerns at the cost of some allocations, which is an acceptable trade
/// at the scales this simulator targets.
///
/// # Examples
///
/// ```
/// use qd_tensor::Tensor;
///
/// let x = Tensor::full(&[2, 2], 3.0);
/// let y = x.add(&Tensor::full(&[2, 2], 1.0));
/// assert_eq!(y.data(), &[4.0, 4.0, 4.0, 4.0]);
/// ```
#[derive(Clone, PartialEq, Serialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a raw buffer and shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied
    /// by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        let problem = Self::misfit(&data, &shape);
        assert!(problem.is_none(), "{}", problem.unwrap_or_default());
        Tensor { shape, data }
    }

    /// Why `data` does not fill a tensor of `shape`, if it does not:
    /// [`Tensor::from_vec`]'s check, shared with tensors read back from
    /// disk (whose dims may multiply past `usize`).
    fn misfit(data: &[f32], shape: &Shape) -> Option<String> {
        let len = (shape.dims().iter()).try_fold(1usize, |n, &d| n.checked_mul(d));
        (len != Some(data.len())).then(|| {
            format!(
                "buffer of {} elements does not fit shape {shape}",
                data.len()
            )
        })
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor of i.i.d. standard-normal samples.
    pub fn randn(shape: &[usize], rng: &mut Rng) -> Self {
        let shape = Shape::new(shape);
        let data = (0..shape.len()).map(|_| rng.normal()).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions as a slice (empty for scalars).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The single element of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() on tensor with shape {}", self.shape);
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(self.data.clone(), shape)
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_map shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum of two same-shaped tensors.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a / b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|a| a * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|a| a + s)
    }

    /// In-place scaled accumulation: `self += alpha * other`.
    ///
    /// This is the hot kernel of SGD/SGA and FedAvg, so it mutates in place
    /// instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
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

    /// Euclidean norm of the flattened buffer.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&a| a * a).sum::<f32>().sqrt()
    }

    /// Dot product of the flattened buffers.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Returns `true` if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }

    /// Returns `true` if any element is NaN or infinite.
    ///
    /// The complement of [`Tensor::all_finite`], named for guard-style
    /// call sites (`if t.has_non_finite() { reject }`); like it, the scan
    /// short-circuits at the first offending element.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|a| !a.is_finite())
    }

    /// Maximum absolute difference between two same-length tensors.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "max_abs_diff length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

// Read back through the check `from_vec` asserts: a stored tensor whose
// shape does not account for its buffer is a malformed file, not a value.
// An owned tree's buffer becomes the tensor's; a borrowed one is copied.
impl serde::Deserialize for Tensor {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Self::from_owned(v.clone())
    }

    fn from_owned(mut v: serde::Value) -> Result<Self, serde::DeError> {
        let shape: Shape = serde::Deserialize::from_owned(v.take_field("Tensor", "shape")?)?;
        let data: Vec<f32> = serde::Deserialize::from_owned(v.take_field("Tensor", "data")?)?;
        match Self::misfit(&data, &shape) {
            Some(problem) => Err(serde::DeError::new(problem)),
            None => Ok(Tensor { shape, data }),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= PREVIEW {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "{:?}…", &self.data[..PREVIEW])
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_element_count() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not fit shape")]
    fn from_vec_rejects_wrong_count() {
        let _ = Tensor::from_vec(vec![1.0], &[2]);
    }

    #[test]
    fn deserialize_checks_element_count() {
        use serde::Deserialize;
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let back = Tensor::from_value(&t.to_value()).unwrap();
        assert_eq!(back, t);
        for dims in [vec![3u64, 3], vec![6, 0], vec![u64::MAX, 2]] {
            let mut v = t.to_value();
            let serde::Value::Map(entries) = &mut v else {
                panic!("a tensor serializes as a map");
            };
            entries[0].1 = serde::Value::Seq(dims.into_iter().map(serde::Value::U64).collect());
            let err = Tensor::from_value(&v).unwrap_err().to_string();
            assert!(err.contains("does not fit shape"), "{err}");
        }
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates_in_place() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[0.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.dot(&a), 25.0);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.sum(), 3.0);
        assert_eq!(i.data()[0], 1.0);
        assert_eq!(i.data()[1], 0.0);
        assert_eq!(i.data()[4], 1.0);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    #[should_panic(expected = "item()")]
    fn item_rejects_vectors() {
        let _ = Tensor::zeros(&[2]).item();
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        let b = a.reshape(&[2, 2]);
        assert_eq!(b.dims(), &[2, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn randn_is_seeded_and_deterministic() {
        let mut r1 = Rng::seed_from(7);
        let mut r2 = Rng::seed_from(7);
        let a = Tensor::randn(&[16], &mut r1);
        let b = Tensor::randn(&[16], &mut r2);
        assert_eq!(a.data(), b.data());
        assert!(a.all_finite());
    }

    #[test]
    fn max_abs_diff_measures_gap() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.5, 1.0], &[2]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn debug_is_never_empty() {
        let s = format!("{:?}", Tensor::zeros(&[2, 2]));
        assert!(s.contains("Tensor"));
        let big = format!("{:?}", Tensor::zeros(&[100]));
        assert!(big.contains('…'));
    }
}

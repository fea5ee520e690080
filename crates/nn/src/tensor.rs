//! A minimal dense tensor: row-major `f32` storage plus a shape.
//!
//! The layers interpret tensors as `[batch, features]` matrices or
//! `[batch, channels, height, width]` images; this type only owns storage,
//! shape bookkeeping and element-wise helpers. Heavy lifting (GEMM) lives
//! in [`crate::linalg`].

use std::fmt;

/// Dense row-major `f32` tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from data and shape.
    ///
    /// # Panics
    /// Panics if the element count does not match the shape product.
    pub fn new(data: Vec<f32>, shape: &[usize]) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expect,
            "data length {} != shape product {expect}",
            data.len()
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for zero-element tensors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Leading dimension — the batch size for `[batch, ...]` tensors.
    ///
    /// # Panics
    /// Panics for rank-0 tensors.
    #[inline]
    pub fn batch(&self) -> usize {
        assert!(!self.shape.is_empty(), "rank-0 tensor has no batch dim");
        self.shape[0]
    }

    /// Elements per leading-dimension row.
    #[inline]
    pub fn row_len(&self) -> usize {
        if self.shape.is_empty() {
            0
        } else {
            self.shape[1..].iter().product()
        }
    }

    /// Immutable raw data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the raw data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Row `i` of a `[batch, ...]` tensor as a flat slice.
    pub fn row(&self, i: usize) -> &[f32] {
        let w = self.row_len();
        &self.data[i * w..(i + 1) * w]
    }

    /// Reshapes this tensor in place to `shape`, resizing the backing
    /// buffer as needed (new elements are zero) while keeping its
    /// allocation when the capacity suffices — the warm-up-once primitive
    /// behind allocation-free inference.
    pub fn resize_in_place(&mut self, shape: &[usize]) {
        let len = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(len, 0.0);
    }

    /// Resizes to `like`'s shape with a different leading dimension,
    /// reusing the backing allocation when the capacity suffices. The
    /// data content is unspecified afterwards (callers overwrite it).
    pub fn resize_like(&mut self, like: &Tensor, rows: usize) {
        assert!(!like.shape.is_empty(), "rank-0 tensor has no batch dim");
        self.shape.clear();
        self.shape.extend_from_slice(&like.shape);
        self.shape[0] = rows;
        self.data.resize(rows * like.row_len(), 0.0);
    }

    /// Copies `src`'s shape and data into this tensor, reusing the
    /// backing allocation when the capacity suffices — the warm-cache
    /// counterpart of `clone` used by the training hot path.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// In-place element-wise `self += other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Maximum absolute element (0 when empty).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.batch(), 2);
        assert_eq!(t.row_len(), 3);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn zeros_and_full() {
        assert!(Tensor::zeros(&[3, 4]).data().iter().all(|&v| v == 0.0));
        assert!(Tensor::full(&[2, 2], 7.0).data().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn map_and_arithmetic() {
        let t = Tensor::new(vec![1.0, -2.0], &[2]);
        let sq = t.map(|v| v * v);
        assert_eq!(sq.data(), &[1.0, 4.0]);
        let mut a = Tensor::new(vec![1.0, 1.0], &[2]);
        a.add_assign(&t);
        assert_eq!(a.data(), &[2.0, -1.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[4.0, -2.0]);
    }

    #[test]
    fn max_abs_and_finiteness() {
        let t = Tensor::new(vec![1.0, -3.0, 2.0], &[3]);
        assert_eq!(t.max_abs(), 3.0);
        assert!(t.all_finite());
        let bad = Tensor::new(vec![f32::NAN], &[1]);
        assert!(!bad.all_finite());
    }

    #[test]
    #[should_panic(expected = "shape product")]
    fn bad_shape_rejected() {
        let _ = Tensor::new(vec![0.0; 5], &[2, 3]);
    }
}

//! In-memory dataset with shuffling, splitting and mini-batching — the
//! "shuffled and then divided into 38,000 / 1,000 / 1,000" workflow of the
//! paper's §IV.A.1.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paired inputs and targets, both `[n, ...]` with a shared leading
/// dimension.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Inputs `[n, ...]`.
    pub x: Tensor,
    /// Targets `[n, out]`.
    pub y: Tensor,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    /// Panics if the leading dimensions differ.
    pub fn new(x: Tensor, y: Tensor) -> Self {
        assert_eq!(x.batch(), y.batch(), "input/target count mismatch");
        Self { x, y }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.batch()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a new dataset with rows permuted by a seeded Fisher–Yates
    /// shuffle.
    pub fn shuffled(&self, seed: u64) -> Self {
        let mut perm = Vec::new();
        shuffle_permutation(&mut perm, self.len(), seed);
        self.select(&perm)
    }

    /// Gathers the given rows into caller-owned batch tensors (resized in
    /// place) — the allocation-free counterpart of [`Dataset::select`]:
    /// once `x`/`y` are warm, no heap allocation happens. Gathering
    /// `shuffle_permutation`'s output in consecutive chunks reproduces
    /// `self.shuffled(seed)` batching exactly.
    pub fn gather_into(&self, indices: &[usize], x: &mut Tensor, y: &mut Tensor) {
        let (xw, yw) = (self.x.row_len(), self.y.row_len());
        x.resize_like(&self.x, indices.len());
        y.resize_like(&self.y, indices.len());
        for (r, &i) in indices.iter().enumerate() {
            x.data_mut()[r * xw..(r + 1) * xw].copy_from_slice(self.x.row(i));
            y.data_mut()[r * yw..(r + 1) * yw].copy_from_slice(self.y.row(i));
        }
    }

    /// Builds a dataset from the given row indices (in order).
    pub fn select(&self, indices: &[usize]) -> Self {
        let xw = self.x.row_len();
        let yw = self.y.row_len();
        let mut xd = Vec::with_capacity(indices.len() * xw);
        let mut yd = Vec::with_capacity(indices.len() * yw);
        for &i in indices {
            xd.extend_from_slice(self.x.row(i));
            yd.extend_from_slice(self.y.row(i));
        }
        let mut x_shape = self.x.shape().to_vec();
        x_shape[0] = indices.len();
        let mut y_shape = self.y.shape().to_vec();
        y_shape[0] = indices.len();
        Self::new(Tensor::new(xd, &x_shape), Tensor::new(yd, &y_shape))
    }

    /// Splits into consecutive chunks of the given sizes (like the paper's
    /// 38k/1k/1k). The sizes must sum to at most `len`; a final remainder
    /// chunk is NOT returned.
    ///
    /// # Panics
    /// Panics if the sizes exceed the sample count.
    pub fn split(&self, sizes: &[usize]) -> Vec<Dataset> {
        let total: usize = sizes.iter().sum();
        assert!(
            total <= self.len(),
            "split sizes {total} exceed dataset {}",
            self.len()
        );
        let mut out = Vec::with_capacity(sizes.len());
        let mut start = 0;
        for &s in sizes {
            let idx: Vec<usize> = (start..start + s).collect();
            out.push(self.select(&idx));
            start += s;
        }
        out
    }

    /// Ranges covering the dataset in batches of `batch_size` (the last
    /// batch may be short).
    pub fn batch_ranges(&self, batch_size: usize) -> Vec<(usize, usize)> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.len() {
            let end = (start + batch_size).min(self.len());
            out.push((start, end - start));
            start = end;
        }
        out
    }
}

/// Fills `perm` (resized in place) with the seeded Fisher–Yates
/// permutation of `0..n` that [`Dataset::shuffled`] applies — shared so
/// the trainer can shuffle indices without copying the dataset.
pub fn shuffle_permutation(perm: &mut Vec<usize>, n: usize, seed: u64) {
    perm.clear();
    perm.extend(0..n);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_dataset(n: usize) -> Dataset {
        let x = Tensor::new((0..n * 2).map(|i| i as f32).collect(), &[n, 2]);
        let y = Tensor::new((0..n).map(|i| i as f32).collect(), &[n, 1]);
        Dataset::new(x, y)
    }

    #[test]
    fn shuffle_preserves_pairing_and_content() {
        let d = seq_dataset(100);
        let s = d.shuffled(7);
        assert_eq!(s.len(), 100);
        // Pairing: row i of x is [2y, 2y+1] for its y.
        for i in 0..100 {
            let label = s.y.row(i)[0];
            assert_eq!(s.x.row(i), &[2.0 * label, 2.0 * label + 1.0]);
        }
        // Content: the multiset of labels is unchanged.
        let mut labels: Vec<f32> = (0..100).map(|i| s.y.row(i)[0]).collect();
        labels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(labels, (0..100).map(|i| i as f32).collect::<Vec<_>>());
        // Shuffle actually moved something.
        assert_ne!(s.y.data(), d.y.data());
    }

    #[test]
    fn shuffle_is_deterministic() {
        let d = seq_dataset(50);
        assert_eq!(d.shuffled(3).y.data(), d.shuffled(3).y.data());
        assert_ne!(d.shuffled(3).y.data(), d.shuffled(4).y.data());
    }

    #[test]
    fn split_partitions_in_order() {
        let d = seq_dataset(10);
        let parts = d.split(&[7, 2, 1]);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 7);
        assert_eq!(parts[1].len(), 2);
        assert_eq!(parts[2].len(), 1);
        assert_eq!(parts[1].y.data(), &[7.0, 8.0]);
        assert_eq!(parts[2].y.data(), &[9.0]);
    }

    #[test]
    fn batch_ranges_cover_everything_once() {
        let d = seq_dataset(10);
        let ranges = d.batch_ranges(4);
        assert_eq!(ranges, vec![(0, 4), (4, 4), (8, 2)]);
        let total: usize = ranges.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn multidim_inputs_keep_trailing_shape() {
        let x = Tensor::zeros(&[6, 1, 4, 4]);
        let y = Tensor::zeros(&[6, 3]);
        let d = Dataset::new(x, y);
        let s = d.shuffled(0);
        assert_eq!(s.x.shape(), &[6, 1, 4, 4]);
        let parts = d.split(&[4, 2]);
        assert_eq!(parts[0].x.shape(), &[4, 1, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "exceed dataset")]
    fn oversized_split_rejected() {
        let _ = seq_dataset(3).split(&[2, 2]);
    }

    #[test]
    fn gathered_permutation_batches_match_shuffled_copy_batches() {
        // The trainer's allocation-free path (shuffle a permutation,
        // gather batches) must reproduce the historical path (copy the
        // whole dataset shuffled, slice batches) bit for bit.
        let d = seq_dataset(23);
        let seed = 99;
        let shuffled = d.shuffled(seed);
        let mut perm = Vec::new();
        shuffle_permutation(&mut perm, d.len(), seed);
        let mut bx = Tensor::zeros(&[0]);
        let mut by = Tensor::zeros(&[0]);
        for (start, size) in d.batch_ranges(7) {
            let rows: Vec<usize> = (start..start + size).collect();
            let expect = shuffled.select(&rows);
            d.gather_into(&perm[start..start + size], &mut bx, &mut by);
            assert_eq!(bx.shape(), expect.x.shape());
            assert_eq!(bx.data(), expect.x.data());
            assert_eq!(by.shape(), expect.y.shape());
            assert_eq!(by.data(), expect.y.data());
        }
    }
}

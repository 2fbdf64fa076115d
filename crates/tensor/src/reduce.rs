//! Reductions: sums, means, extrema, and the `sum_to` used by broadcasting
//! backward passes.

use crate::arena;
use crate::ops::PAR_MIN_ELEMS;
use crate::shape::Shape;
use crate::simd;
use crate::tensor::Tensor;

/// Fixed chunk size for parallel reductions — a multiple of
/// [`simd::LANES`], so every full chunk has identical lane structure.
/// Partials are computed per chunk and folded **in chunk order**, so the
/// association — and therefore the result bits — depend only on the data
/// length, never on the thread count or SIMD level (each chunk partial is a
/// canonical lane-structured reduction from [`simd`]). Slices at or below
/// one chunk reduce in a single call.
const REDUCE_CHUNK: usize = 1 << 15;

/// Chunk-parallel, thread-count-invariant reduction: `part(range)` computes
/// the partial for one fixed-size chunk of `0..len`, and the partials are
/// folded in chunk order.
fn chunked_reduce(len: usize, part: impl Fn(std::ops::Range<usize>) -> f32 + Sync) -> f32 {
    if len <= REDUCE_CHUNK {
        return part(0..len);
    }
    let nchunks = len.div_ceil(REDUCE_CHUNK);
    let mut partials = vec![0.0f32; nchunks];
    let pref = &part;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = partials
        .iter_mut()
        .enumerate()
        .map(|(ci, slot)| {
            Box::new(move || {
                let lo = ci * REDUCE_CHUNK;
                *slot = pref(lo..(lo + REDUCE_CHUNK).min(len));
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    muse_parallel::join_all(jobs);
    partials.into_iter().sum()
}

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        let s = self.as_slice();
        chunked_reduce(s.len(), |r| simd::sum(&s[r]))
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element. Panics on empty tensors.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.as_slice().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Panics on empty tensors.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.as_slice().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let s = self.as_slice();
        chunked_reduce(s.len(), |r| simd::sum_sq_dev(&s[r], m)) / self.len() as f32
    }

    /// Population standard deviation of all elements.
    pub fn std(&self) -> f32 {
        self.variance().sqrt()
    }

    /// Sum along `axis`, dropping that axis.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        assert!(axis < self.rank(), "sum_axis {axis} out of range for rank {}", self.rank());
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = arena::take_zeroed(outer * inner);
        let src = self.as_slice();
        // Each output row `o` accumulates over ascending `m` no matter
        // which job owns it, so partitioning rows cannot change the bits.
        let reduce_rows = |o0: usize, chunk: &mut [f32]| {
            for (d, orow) in chunk.chunks_mut(inner).enumerate() {
                let o = o0 + d;
                for m in 0..mid {
                    let base = (o * mid + m) * inner;
                    for (acc, &v) in orow.iter_mut().zip(&src[base..base + inner]) {
                        *acc += v;
                    }
                }
            }
        };
        if inner > 0 && self.len() >= PAR_MIN_ELEMS {
            muse_parallel::parallel_for_rows(&mut out, inner, 1, reduce_rows);
        } else if inner > 0 {
            reduce_rows(0, &mut out);
        }
        let mut out_dims = dims.to_vec();
        out_dims.remove(axis);
        Tensor::from_vec(out, &out_dims)
    }

    /// Mean along `axis`, dropping that axis.
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        let n = self.dims()[axis] as f32;
        self.sum_axis(axis).mul_scalar(1.0 / n)
    }

    /// Maximum along `axis`, dropping that axis.
    pub fn max_axis(&self, axis: usize) -> Tensor {
        assert!(axis < self.rank(), "max_axis {axis} out of range");
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        assert!(mid > 0, "max_axis over empty extent");
        let mut out = arena::take_full(outer * inner, f32::NEG_INFINITY);
        let src = self.as_slice();
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                for i in 0..inner {
                    let v = src[base + i];
                    let slot = &mut out[o * inner + i];
                    if v > *slot {
                        *slot = v;
                    }
                }
            }
        }
        let mut out_dims = dims.to_vec();
        out_dims.remove(axis);
        Tensor::from_vec(out, &out_dims)
    }

    /// Reduce this tensor (by summation) to `target` dims, inverting a
    /// broadcast. Used by autograd to fold gradients of broadcast operands.
    ///
    /// `target` must be broadcast-compatible with (and no larger than) the
    /// current shape when right-aligned.
    pub fn sum_to(&self, target: &[usize]) -> Tensor {
        if self.dims() == target {
            return self.clone();
        }
        let rank = self.rank();
        let t_rank = target.len();
        assert!(t_rank <= rank, "sum_to target rank {} exceeds source rank {}", t_rank, rank);
        // Sum away leading extra axes.
        let mut cur = self.clone();
        for _ in 0..rank - t_rank {
            cur = cur.sum_axis(0);
        }
        // Sum stretched axes back down to 1 (indexing two parallel arrays,
        // so an index loop is clearer than zip here).
        #[allow(clippy::needless_range_loop)]
        for axis in 0..t_rank {
            if target[axis] == 1 && cur.dims()[axis] != 1 {
                cur = cur.sum_axis(axis).unsqueeze(axis);
            } else {
                assert_eq!(
                    cur.dims()[axis],
                    target[axis],
                    "sum_to: axis {axis} extent {} not reducible to {}",
                    cur.dims()[axis],
                    target[axis]
                );
            }
        }
        cur
    }

    /// Index of the largest element in a rank-1 tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        let s = self.as_slice();
        for i in 1..s.len() {
            if s[i] > s[best] {
                best = i;
            }
        }
        best
    }

    /// Softmax along the last axis.
    pub fn softmax_last(&self) -> Tensor {
        let dims = self.dims();
        assert!(!dims.is_empty(), "softmax of scalar");
        let inner = dims[dims.len() - 1];
        // Every row is fully overwritten; rows of width 0 leave nothing.
        let mut out = arena::take_uninit(self.len());
        let src = self.as_slice();
        // Rows are independent; parallel partitioning is per whole row.
        let softmax_rows = |o0: usize, chunk: &mut [f32]| {
            for (d, orow) in chunk.chunks_mut(inner).enumerate() {
                let row = &src[(o0 + d) * inner..(o0 + d + 1) * inner];
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut denom = 0.0;
                for (e, &v) in orow.iter_mut().zip(row) {
                    *e = (v - m).exp();
                    denom += *e;
                }
                for e in orow.iter_mut() {
                    *e /= denom;
                }
            }
        };
        if inner > 0 && self.len() >= PAR_MIN_ELEMS {
            muse_parallel::parallel_for_rows(&mut out, inner, 1, softmax_rows);
        } else if inner > 0 {
            softmax_rows(0, &mut out);
        }
        Tensor::from_vec(out, dims)
    }

    /// Dot product of two rank-1 tensors of equal length.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.rank(), 1, "dot requires rank-1 lhs");
        assert_eq!(other.rank(), 1, "dot requires rank-1 rhs");
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        simd::dot(self.as_slice(), other.as_slice())
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        let s = self.as_slice();
        chunked_reduce(s.len(), |r| simd::sum_squares(&s[r])).sqrt()
    }

    /// Fused sum of squared errors against `other` (same shape required):
    /// `Σ (self[i] - other[i])²` in one pass, bit-identical to
    /// `self.sub(other).square().sum()` but with no temporaries.
    pub fn sse(&self, other: &Tensor) -> f32 {
        assert_eq!(self.dims(), other.dims(), "sse shape mismatch: {:?} vs {:?}", self.dims(), other.dims());
        let (a, b) = (self.as_slice(), other.as_slice());
        chunked_reduce(a.len(), |r| simd::sse(&a[r.start..r.end], &b[r.start..r.end]))
    }

    /// Sum over all axes except axis 0 — handy for per-sample reductions.
    pub fn sum_per_row(&self) -> Tensor {
        assert!(self.rank() >= 1, "sum_per_row on scalar");
        let n = self.dims()[0];
        let flat = self.reshaped(&[n, self.len() / n.max(1)]);
        flat.sum_axis(1)
    }
}

/// Build a one-hot rank-1 tensor of length `n` with 1.0 at `index`.
pub fn one_hot(n: usize, index: usize) -> Tensor {
    assert!(index < n, "one_hot index {index} out of range {n}");
    let mut t = Tensor::zeros(&[n]);
    t.as_mut_slice()[index] = 1.0;
    let _ = Shape::new(&[n]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
        assert!((t.variance() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn axis_reductions() {
        let t = Tensor::arange(0.0, 6.0).reshape(&[2, 3]);
        assert_eq!(t.sum_axis(0).as_slice(), &[3.0, 5.0, 7.0]);
        assert_eq!(t.sum_axis(1).as_slice(), &[3.0, 12.0]);
        assert_eq!(t.mean_axis(1).as_slice(), &[1.0, 4.0]);
        assert_eq!(t.max_axis(0).as_slice(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn sum_axis_middle() {
        let t = Tensor::arange(0.0, 24.0).reshape(&[2, 3, 4]);
        let s = t.sum_axis(1);
        assert_eq!(s.dims(), &[2, 4]);
        assert_eq!(s.at(&[0, 0]), 0.0 + 4.0 + 8.0);
        assert_eq!(s.at(&[1, 3]), 15.0 + 19.0 + 23.0);
    }

    #[test]
    fn sum_to_inverts_broadcast() {
        // Broadcast [3] -> [2,3], gradient folds back to [3].
        let g = Tensor::ones(&[2, 3]);
        assert_eq!(g.sum_to(&[3]).as_slice(), &[2.0, 2.0, 2.0]);
        // Broadcast [2,1] -> [2,3].
        assert_eq!(g.sum_to(&[2, 1]).dims(), &[2, 1]);
        assert_eq!(g.sum_to(&[2, 1]).as_slice(), &[3.0, 3.0]);
        // No-op case.
        assert_eq!(g.sum_to(&[2, 3]), g);
        // Down to scalar shape.
        assert_eq!(g.sum_to(&[]).item(), 6.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = t.softmax_last();
        for r in 0..2 {
            let row_sum: f32 = (0..3).map(|c| s.at(&[r, c])).sum();
            assert!((row_sum - 1.0).abs() < 1e-6);
        }
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_large_values_stable() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[2]);
        let s = t.softmax_last();
        assert!(s.all_finite());
        assert!((s.sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dot_norm_argmax() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
        assert!((Tensor::from_vec(vec![3.0, 4.0], &[2]).norm() - 5.0).abs() < 1e-6);
        assert_eq!(a.argmax(), 2);
    }

    #[test]
    fn one_hot_and_sum_per_row() {
        assert_eq!(one_hot(3, 1).as_slice(), &[0.0, 1.0, 0.0]);
        let t = Tensor::arange(0.0, 6.0).reshape(&[2, 3]);
        assert_eq!(t.sum_per_row().as_slice(), &[3.0, 12.0]);
    }
}

//! 2-D convolution kernels (im2col/col2im based), with explicit backward
//! functions used by the autograd layer.
//!
//! Layout conventions (matching the paper's `2×H×W` flow tensors batched to
//! NCHW):
//! * input `[N, C, H, W]`
//! * weight `[OC, C, KH, KW]`
//! * bias `[OC]`
//! * output `[N, OC, OH, OW]`
//!
//! Both `conv2d` and `conv2d_backward` fan out **per sample** across the
//! `muse-parallel` pool: each sample's column buffer comes from the
//! [`arena`](crate::arena) and its output lands in a disjoint slice, so no
//! floats are shared between jobs and results are bit-identical for any
//! thread count.
//! The backward pass writes per-sample weight/bias partials into
//! per-sample slots and folds them sequentially in sample order afterward,
//! which keeps the accumulation association fixed.

use crate::linalg::{gemm_at_rows, gemm_bt_rows, gemm_rows};
use crate::simd;
use crate::tensor::Tensor;
use muse_obs as obs;

/// Static description of a conv2d: geometry only, no parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Stride (rows, cols).
    pub stride: (usize, usize),
    /// Zero padding (rows, cols) applied symmetrically.
    pub padding: (usize, usize),
}

impl Conv2dSpec {
    /// A square-kernel, stride-1 convolution with "same" padding when
    /// `kernel` is odd — the configuration every encoder in this repo uses.
    pub fn same(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kernel: (kernel, kernel),
            stride: (1, 1),
            padding: (kernel / 2, kernel / 2),
        }
    }

    /// Output spatial size for an `h x w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding.0 - self.kernel.0) / self.stride.0 + 1;
        let ow = (w + 2 * self.padding.1 - self.kernel.1) / self.stride.1 + 1;
        (oh, ow)
    }

    /// Number of learnable parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel.0 * self.kernel.1 + self.out_channels
    }

    /// Multiply-accumulate count for an `h x w` input (per sample) — used by
    /// the Table I complexity analysis.
    pub fn macs(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.output_hw(h, w);
        oh * ow * self.out_channels * self.in_channels * self.kernel.0 * self.kernel.1
    }
}

/// Unfold one `[C, H, W]` image into columns `[C*KH*KW, OH*OW]`, writing
/// every element of `out` (padding positions get explicit zeros, so `out`
/// may hold garbage from a recycled arena buffer).
pub fn im2col_into(img: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, out: &mut [f32]) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.output_hw(h, w);
    let cols = oh * ow;
    assert_eq!(out.len(), c * kh * kw * cols, "im2col_into buffer size mismatch");
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let base = row * cols;
                for oi in 0..oh {
                    let dst = &mut out[base + oi * ow..base + (oi + 1) * ow];
                    let ii = (oi * sh + ki) as isize - ph as isize;
                    if ii < 0 || ii >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_row = &img[ch * h * w + ii as usize * w..][..w];
                    if sw == 1 {
                        // jj = oj + kj - pw; the valid oj range is contiguous,
                        // so the interior is one memcpy between zero fringes.
                        let lo = (pw as isize - kj as isize).clamp(0, ow as isize) as usize;
                        let hi = ((w + pw) as isize - kj as isize).clamp(lo as isize, ow as isize) as usize;
                        dst[..lo].fill(0.0);
                        dst[hi..].fill(0.0);
                        let off = lo + kj - pw;
                        dst[lo..hi].copy_from_slice(&src_row[off..off + (hi - lo)]);
                    } else {
                        for (oj, d) in dst.iter_mut().enumerate() {
                            let jj = (oj * sw + kj) as isize - pw as isize;
                            *d = if jj < 0 || jj >= w as isize { 0.0 } else { src_row[jj as usize] };
                        }
                    }
                }
            }
        }
    }
}

/// Unfold one `[C, H, W]` image into columns `[C*KH*KW, OH*OW]`.
pub fn im2col(img: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    let (kh, kw) = spec.kernel;
    let (oh, ow) = spec.output_hw(h, w);
    let rows = c * kh * kw;
    let cols = oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    im2col_into(img, c, h, w, spec, &mut out);
    Tensor::from_vec(out, &[rows, cols])
}

/// Fold columns `[C*KH*KW, OH*OW]` back into a `[C, H, W]` image slice,
/// **accumulating** overlapping contributions (adjoint of [`im2col`]).
/// `img` must be zeroed by the caller if a plain fold is wanted.
pub fn col2im_into(cols: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, img: &mut [f32]) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.output_hw(h, w);
    let ncols = oh * ow;
    assert_eq!(cols.len(), c * kh * kw * ncols, "col2im_into column size mismatch");
    assert_eq!(img.len(), c * h * w, "col2im_into image size mismatch");
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let base = row * ncols;
                for oi in 0..oh {
                    let ii = (oi * sh + ki) as isize - ph as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    let dst_row = ch * h * w + ii as usize * w;
                    if sw == 1 {
                        // Mirror of the im2col fast path: the valid oj range
                        // is contiguous, so the scatter is one vector
                        // accumulate. Each image element still receives the
                        // same contributions in the same (ki, kj, oi) order
                        // as the scalar loop below.
                        let lo = (pw as isize - kj as isize).clamp(0, ow as isize) as usize;
                        let hi = ((w + pw) as isize - kj as isize).clamp(lo as isize, ow as isize) as usize;
                        let off = lo + kj - pw;
                        simd::add_assign(
                            &mut img[dst_row + off..dst_row + off + (hi - lo)],
                            &cols[base + oi * ow + lo..base + oi * ow + hi],
                        );
                    } else {
                        for oj in 0..ow {
                            let jj = (oj * sw + kj) as isize - pw as isize;
                            if jj < 0 || jj >= w as isize {
                                continue;
                            }
                            img[dst_row + jj as usize] += cols[base + oi * ow + oj];
                        }
                    }
                }
            }
        }
    }
}

/// Fold columns `[C*KH*KW, OH*OW]` back into an image `[C, H, W]`,
/// accumulating overlapping contributions (adjoint of [`im2col`]).
pub fn col2im(cols: &Tensor, c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Vec<f32> {
    let (kh, kw) = spec.kernel;
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(cols.dims(), &[c * kh * kw, oh * ow], "col2im shape mismatch");
    let mut img = vec![0.0f32; c * h * w];
    col2im_into(cols.as_slice(), c, h, w, spec, &mut img);
    img
}

/// Forward conv2d: `[N,C,H,W] * [OC,C,KH,KW] + [OC] -> [N,OC,OH,OW]`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: &Conv2dSpec) -> Tensor {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "conv2d input must be [N,C,H,W], got {}", input.shape());
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, spec.in_channels, "conv2d channel mismatch: input {c}, spec {}", spec.in_channels);
    assert_eq!(
        weight.dims(),
        &[spec.out_channels, spec.in_channels, spec.kernel.0, spec.kernel.1],
        "conv2d weight shape mismatch"
    );
    if let Some(b) = bias {
        assert_eq!(b.dims(), &[spec.out_channels], "conv2d bias shape mismatch");
    }
    let (oh, ow) = spec.output_hw(h, w);
    let _t = obs::kernel_timer(
        "tensor.conv2d",
        ((input.len() + weight.len() + n * spec.out_channels * oh * ow) * std::mem::size_of::<f32>()) as u64,
    );
    let oc = spec.out_channels;
    let ksize = c * spec.kernel.0 * spec.kernel.1;
    let (chw, ohw) = (c * h * w, oh * ow);
    // Weight layout [OC, C, KH, KW] is already the [OC, ksize] GEMM operand.
    let wmat = weight.as_slice();
    let bias_s = bias.map(|b| b.as_slice());
    let input_s = input.as_slice();
    let mut out = crate::arena::take_zeroed(n * oc * ohw); // gemm_rows accumulates into zeroes
    muse_parallel::parallel_for_rows(&mut out, oc * ohw, 1, |s0, chunk| {
        let mut cols = crate::arena::take_uninit(ksize * ohw); // im2col_into writes every element
        for (ds, so) in chunk.chunks_mut(oc * ohw).enumerate() {
            let img = &input_s[(s0 + ds) * chw..][..chw];
            im2col_into(img, c, h, w, spec, &mut cols);
            gemm_rows(wmat, &cols, so, 0, ksize, ohw); // so is zeroed
            if let Some(bs) = bias_s {
                for (ocx, orow) in so.chunks_mut(ohw).enumerate() {
                    simd::add_scalar_assign(orow, bs[ocx]);
                }
            }
        }
        crate::arena::recycle(cols);
    });
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

/// Gradients of conv2d given upstream `grad_out [N,OC,OH,OW]`.
///
/// Returns `(grad_input, grad_weight, grad_bias)`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(grad_out.dims(), &[n, spec.out_channels, oh, ow], "conv2d_backward grad shape mismatch");
    let _t = obs::kernel_timer(
        "tensor.conv2d_backward",
        ((input.len() + weight.len() + grad_out.len()) * std::mem::size_of::<f32>()) as u64,
    );
    let oc = spec.out_channels;
    let ksize = c * spec.kernel.0 * spec.kernel.1;
    let (chw, ohw) = (c * h * w, oh * ow);
    let wmat = weight.as_slice();
    let input_s = input.as_slice();
    let go_all = grad_out.as_slice();
    let mut grad_input = crate::arena::take_zeroed(n * chw); // col2im accumulates into zeroes

    // Per-sample partials: each job owns one slot, the fold below walks the
    // slots in sample order so the accumulation association never depends
    // on how jobs were scheduled. Every slot is fully assigned (gemm_bt
    // assigns, db is a plain store), so recycled contents are fine.
    let mut dw_all = crate::arena::take_uninit(n * oc * ksize);
    let mut db_all = crate::arena::take_uninit(n * oc);
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = grad_input
        .chunks_mut(chw)
        .zip(dw_all.chunks_mut(oc * ksize))
        .zip(db_all.chunks_mut(oc))
        .enumerate()
        .map(|(s, ((gi, dw), db))| {
            Box::new(move || {
                let img = &input_s[s * chw..][..chw];
                let go = &go_all[s * oc * ohw..][..oc * ohw];
                let mut cols = crate::arena::take_uninit(ksize * ohw); // im2col_into writes every element
                im2col_into(img, c, h, w, spec, &mut cols);
                // dW_s = go x cols^T
                gemm_bt_rows(go, &cols, dw, 0, ohw, ksize);
                crate::arena::recycle(cols);
                // db_s = rowsum(go), canonical lane reduction per row
                for (ocx, d) in db.iter_mut().enumerate() {
                    *d = simd::sum(&go[ocx * ohw..][..ohw]);
                }
                // dX_s = col2im(W^T x go)
                let mut dcols = crate::arena::take_zeroed(ksize * ohw);
                gemm_at_rows(wmat, go, &mut dcols, 0, oc, ksize, ohw);
                col2im_into(&dcols, c, h, w, spec, gi);
                crate::arena::recycle(dcols);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    muse_parallel::join_all(jobs);
    let mut grad_wmat = crate::arena::take_zeroed(oc * ksize);
    for dw in dw_all.chunks(oc * ksize) {
        simd::add_assign(&mut grad_wmat, dw);
    }
    let mut grad_bias = crate::arena::take_zeroed(oc);
    for db in db_all.chunks(oc) {
        simd::add_assign(&mut grad_bias, db);
    }
    crate::arena::recycle(dw_all);
    crate::arena::recycle(db_all);
    (
        Tensor::from_vec(grad_input, dims),
        Tensor::from_vec(grad_wmat, &[oc, spec.in_channels, spec.kernel.0, spec.kernel.1]),
        Tensor::from_vec(grad_bias, &[oc]),
    )
}

/// Naive direct convolution used by tests to validate the im2col kernel.
pub fn conv2d_reference(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: &Conv2dSpec) -> Tensor {
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = spec.output_hw(h, w);
    let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
    for s in 0..n {
        for oc in 0..spec.out_channels {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = bias.map_or(0.0, |b| b.as_slice()[oc]);
                    for ch in 0..c {
                        for ki in 0..spec.kernel.0 {
                            for kj in 0..spec.kernel.1 {
                                let ii = (oi * spec.stride.0 + ki) as isize - spec.padding.0 as isize;
                                let jj = (oj * spec.stride.1 + kj) as isize - spec.padding.1 as isize;
                                if ii >= 0 && (ii as usize) < h && jj >= 0 && (jj as usize) < w {
                                    acc += input.at(&[s, ch, ii as usize, jj as usize])
                                        * weight.at(&[oc, ch, ki, kj]);
                                }
                            }
                        }
                    }
                    *out.at_mut(&[s, oc, oi, oj]) = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SeededRng;

    fn rand_tensor(rng: &mut SeededRng, dims: &[usize]) -> Tensor {
        Tensor::rand_uniform(rng, dims, -1.0, 1.0)
    }

    #[test]
    fn output_geometry() {
        let spec = Conv2dSpec::same(3, 8, 3);
        assert_eq!(spec.output_hw(10, 20), (10, 20));
        let strided =
            Conv2dSpec { in_channels: 1, out_channels: 1, kernel: (3, 3), stride: (2, 2), padding: (1, 1) };
        assert_eq!(strided.output_hw(8, 8), (4, 4));
        assert_eq!(spec.param_count(), 8 * 3 * 9 + 8);
        assert!(spec.macs(10, 20) > 0);
    }

    #[test]
    fn conv_matches_reference() {
        let mut rng = SeededRng::new(7);
        let spec = Conv2dSpec::same(2, 3, 3);
        let x = rand_tensor(&mut rng, &[2, 2, 5, 6]);
        let w = rand_tensor(&mut rng, &[3, 2, 3, 3]);
        let b = rand_tensor(&mut rng, &[3]);
        let fast = conv2d(&x, &w, Some(&b), &spec);
        let slow = conv2d_reference(&x, &w, Some(&b), &spec);
        assert!(fast.approx_eq(&slow, 1e-4), "max diff {}", fast.max_abs_diff(&slow));
    }

    #[test]
    fn conv_strided_matches_reference() {
        let mut rng = SeededRng::new(11);
        let spec =
            Conv2dSpec { in_channels: 1, out_channels: 2, kernel: (3, 2), stride: (2, 1), padding: (1, 0) };
        let x = rand_tensor(&mut rng, &[1, 1, 7, 5]);
        let w = rand_tensor(&mut rng, &[2, 1, 3, 2]);
        let fast = conv2d(&x, &w, None, &spec);
        let slow = conv2d_reference(&x, &w, None, &spec);
        assert!(fast.approx_eq(&slow, 1e-4));
    }

    #[test]
    fn im2col_overwrites_dirty_buffers() {
        // Scratch buffers come back dirty; im2col_into must be a total
        // overwrite including the zero-padding fringe.
        let mut rng = SeededRng::new(13);
        let spec = Conv2dSpec::same(2, 1, 3);
        let (c, h, w) = (2, 4, 5);
        let x = rand_tensor(&mut rng, &[c, h, w]);
        let clean = im2col(x.as_slice(), c, h, w, &spec);
        let mut dirty = vec![f32::NAN; clean.len()];
        im2col_into(x.as_slice(), c, h, w, &spec, &mut dirty);
        assert_eq!(clean.as_slice(), &dirty[..]);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1 is the identity map.
        let spec =
            Conv2dSpec { in_channels: 1, out_channels: 1, kernel: (1, 1), stride: (1, 1), padding: (0, 0) };
        let x = Tensor::arange(0.0, 12.0).reshape(&[1, 1, 3, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, &spec);
        assert!(y.approx_eq(&x, 1e-6));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the backward pass relies on.
        let mut rng = SeededRng::new(3);
        let spec = Conv2dSpec::same(2, 1, 3);
        let (c, h, w) = (2, 4, 5);
        let x = rand_tensor(&mut rng, &[c, h, w]);
        let cols_shape = [c * 9, h * w];
        let y = rand_tensor(&mut rng, &cols_shape);
        let ix = im2col(x.as_slice(), c, h, w, &spec);
        let lhs: f32 = ix.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| a * b).sum();
        let cy = col2im(&y, c, h, w, &spec);
        let rhs: f32 = x.as_slice().iter().zip(&cy).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = SeededRng::new(5);
        let spec = Conv2dSpec::same(1, 2, 3);
        let x = rand_tensor(&mut rng, &[1, 1, 4, 4]);
        let w = rand_tensor(&mut rng, &[2, 1, 3, 3]);
        let b = rand_tensor(&mut rng, &[2]);
        // Loss = sum(conv(x)); upstream gradient of ones.
        let y = conv2d(&x, &w, Some(&b), &spec);
        let go = Tensor::ones(y.dims());
        let (gx, gw, gb) = conv2d_backward(&x, &w, &go, &spec);
        let eps = 1e-2f32;
        // Check a sample of input positions.
        for &i in &[0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (conv2d(&xp, &w, Some(&b), &spec).sum() - conv2d(&xm, &w, Some(&b), &spec).sum())
                / (2.0 * eps);
            assert!((num - gx.as_slice()[i]).abs() < 1e-2, "input grad {i}: {num} vs {}", gx.as_slice()[i]);
        }
        for &i in &[0usize, 4, 9, 17] {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let num = (conv2d(&x, &wp, Some(&b), &spec).sum() - conv2d(&x, &wm, Some(&b), &spec).sum())
                / (2.0 * eps);
            assert!((num - gw.as_slice()[i]).abs() < 1e-2, "weight grad {i}: {num} vs {}", gw.as_slice()[i]);
        }
        // Bias gradient of a sum-loss is the number of output positions.
        assert!((gb.as_slice()[0] - 16.0).abs() < 1e-3);
    }

    #[test]
    fn multi_sample_backward_matches_per_sample() {
        // Batched backward (parallel per-sample jobs + ordered fold) must
        // agree with summing per-sample single-batch calls in order.
        let mut rng = SeededRng::new(17);
        let spec = Conv2dSpec::same(2, 3, 3);
        let (n, c, h, w) = (5, 2, 4, 6);
        let x = rand_tensor(&mut rng, &[n, c, h, w]);
        let wt = rand_tensor(&mut rng, &[3, c, 3, 3]);
        let go = rand_tensor(&mut rng, &[n, 3, h, w]);
        let (gx, gw, gb) = conv2d_backward(&x, &wt, &go, &spec);
        let mut gw_sum = Tensor::zeros(gw.dims());
        let mut gb_sum = Tensor::zeros(gb.dims());
        for s in 0..n {
            let xs =
                Tensor::from_vec(x.as_slice()[s * c * h * w..(s + 1) * c * h * w].to_vec(), &[1, c, h, w]);
            let gos =
                Tensor::from_vec(go.as_slice()[s * 3 * h * w..(s + 1) * 3 * h * w].to_vec(), &[1, 3, h, w]);
            let (gxs, gws, gbs) = conv2d_backward(&xs, &wt, &gos, &spec);
            assert_eq!(&gx.as_slice()[s * c * h * w..(s + 1) * c * h * w], gxs.as_slice());
            gw_sum.add_assign(&gws);
            gb_sum.add_assign(&gbs);
        }
        assert!(gw.approx_eq(&gw_sum, 1e-5));
        assert!(gb.approx_eq(&gb_sum, 1e-5));
    }
}

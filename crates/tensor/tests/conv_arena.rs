//! The conv kernels take every buffer — per-sample column buffers included —
//! from the tensor arena and give it back, so a warm conv step allocates
//! nothing. One test in its own binary: no other test thread shares the
//! process-wide pool, so the counters move only by this test's takes.

use muse_tensor::conv::{conv2d, conv2d_backward};
use muse_tensor::init::SeededRng;
use muse_tensor::{arena, Conv2dSpec, Tensor};

#[test]
fn warm_conv_step_takes_every_buffer_from_the_arena() {
    muse_parallel::with_threads(1, || {
        arena::set_enabled(true);
        // Every buffer is at least MIN_POOL_LEN = 32 elements: grad_bias is
        // `oc` = 32, the output area 4×8 = 32.
        let (n, c, h, w, oc) = (2, 4, 4, 8, 32);
        let spec = Conv2dSpec::same(c, oc, 3);
        let mut rng = SeededRng::new(21);
        let x = Tensor::rand_uniform(&mut rng, &[n, c, h, w], -1.0, 1.0);
        let wt = Tensor::rand_uniform(&mut rng, &[oc, c, 3, 3], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[oc], -1.0, 1.0);
        let go = Tensor::rand_uniform(&mut rng, &[n, oc, h, w], -1.0, 1.0);
        let step = || {
            let y = conv2d(&x, &wt, Some(&b), &spec);
            let (gx, gw, gb) = conv2d_backward(&x, &wt, &go, &spec);
            [y, gx, gw, gb].map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
        };
        let warm = step();
        let before = arena::stats();
        let again = step();
        let after = arena::stats();
        assert_eq!(warm, again, "buffer identity never changes values");
        assert_eq!(after.alloc_bytes, before.alloc_bytes, "a warm conv step allocates nothing");
        // conv2d: the output plus one column buffer (one chunk on one
        // thread). conv2d_backward: grad_input, the dW and db partials,
        // per sample one `cols` and one `dcols`, then grad_weight and
        // grad_bias.
        let takes = 2 + (3 + 2 * n + 2) as u64;
        assert_eq!(after.pool_hits - before.pool_hits, takes, "every take is a pool hit");
        assert_eq!(after.pool_misses, before.pool_misses);
    });
}

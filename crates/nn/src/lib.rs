#![warn(missing_docs)]

//! # muse-nn
//!
//! Neural-network building blocks on top of [`muse_autograd`]: parameter
//! management, layers (linear, conv2d, recurrent cells), initializers,
//! losses, and optimizers (SGD, Adam).
//!
//! The central abstraction is the [`Session`]: a thin wrapper around a
//! gradient [`Tape`](muse_autograd::Tape) that also remembers which tape
//! nodes correspond to which [`Param`]s, so that after `session.backward(loss)`
//! every parameter's `.grad` is populated and an optimizer can step.
//!
//! ```
//! use muse_nn::{Session, Linear, Adam, Optimizer};
//! use muse_autograd::Tape;
//! use muse_tensor::{init::SeededRng, Tensor};
//!
//! let mut rng = SeededRng::new(0);
//! let layer = Linear::new(&mut rng, 3, 1);
//! let mut opt = Adam::with_defaults(layer.params(), 1e-2);
//! for _ in 0..10 {
//!     let tape = Tape::new();
//!     let s = Session::new(&tape);
//!     let x = tape.constant(Tensor::ones(&[4, 3]));
//!     let y = layer.forward(&s, x);
//!     let target = Tensor::zeros(&[4, 1]);
//!     let loss = muse_autograd::vae_ops::mse(&y, &target);
//!     s.backward(loss);
//!     opt.step();
//!     opt.zero_grad();
//! }
//! ```

pub mod layers;
pub mod loss;
pub mod optim;
pub mod param;
pub mod rnn;
pub mod serialize;

pub use layers::{Activation, Conv2dLayer, Linear, Mlp};
pub use loss::{l1_loss, mse_loss};
pub use optim::{clip_grad_norm, Adam, Optimizer, Sgd};
pub use param::{restore, snapshot, Param, ParamRef, Session};
pub use rnn::{GruCell, RnnCell};
pub use serialize::{
    decode_checkpoint, load_checkpoint, load_checkpoint_full, load_params, save_params,
    save_params_with_meta, Checkpoint, CheckpointError, CheckpointView,
};

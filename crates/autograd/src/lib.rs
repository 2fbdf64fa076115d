#![warn(missing_docs)]

//! # muse-autograd
//!
//! Tape-based reverse-mode automatic differentiation over [`muse_tensor`].
//!
//! A [`Tape`] records every operation applied to its [`Var`]s during a
//! forward pass. Calling [`Tape::backward`] on a scalar loss walks the tape
//! in reverse, accumulating gradients for every recorded node. Training code
//! builds one tape per step and throws it away afterwards.
//!
//! Design notes:
//! * Ops are data: each node records an `Op` value holding its kind, its
//!   operands' node ids and the scalars or spec its gradient needs, and the
//!   reverse sweep is one `match` over it ([`ops`]). Operand values are read
//!   back from the tape during the sweep, so recording an op clones no
//!   tensor and needs no heap beyond its forward value; a forward-only tape
//!   records the same nodes.
//! * Tapes are reusable: [`Tape::reset`] keeps node capacity (and, via the
//!   tensor arena, the value buffers) so a steady-state training step runs
//!   allocation-free.
//! * Broadcasting ops fold gradients back with `Tensor::sum_to`, so `[B, D] +
//!   [D]` bias additions "just work".
//! * A few hot chains are fused into single ops with their own gradient
//!   kernels ([`fused`], [`vae_ops::kl_between_fused`]), each bit-identical
//!   to the composition of primitives it replaces. The rest of [`vae_ops`]
//!   composes primitives. Every gradient rule is covered by the
//!   finite-difference checks in [`grad_check`].
//!
//! ```
//! use muse_autograd::Tape;
//! use muse_tensor::Tensor;
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![2.0], &[1]));
//! let y = x.mul(&x).add_scalar(1.0); // y = x^2 + 1
//! let loss = y.sum();
//! let grads = tape.backward(loss);
//! assert_eq!(grads.get(x).unwrap().as_slice(), &[4.0]); // dy/dx = 2x
//! ```

pub mod fused;
pub mod grad_check;
pub mod ops;
pub mod tape;
pub mod vae_ops;

pub use fused::FusedActivation;
pub use tape::{Gradients, Tape, Var};

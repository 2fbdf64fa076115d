//! Parameters and the forward/backward [`Session`].

use muse_autograd::{Tape, Var};
use muse_tensor::Tensor;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard};

/// A learnable tensor with its accumulated gradient.
///
/// Layers hold `Arc<Param>` ([`ParamRef`]) so the same parameter can be bound
/// into any number of forward passes and shared with an optimizer. The value
/// and gradient sit behind uncontended mutexes, which makes every model
/// `Send`: a daemon can run one on whichever thread holds its lock, while
/// training stays single-threaded.
///
/// There is one copy of the value. It is held as an `Arc<Tensor>`, and
/// [`Session::param`] records a tape leaf sharing it rather than a copy.
/// Updates ([`Param::apply_update`], and through it the optimizers;
/// [`restore`] and checkpoint loading) write in place when nothing else
/// holds the value; while a tape still does, they copy on write and the
/// tape keeps the value it recorded.
///
/// The gradient is allocated on first use ([`Param::accumulate_grad`],
/// [`Param::with_grad`], [`Param::grad`], [`Param::scale_grad`]), so a
/// parameter that is only ever served holds no gradient buffer. An untouched
/// gradient reads as zeros.
#[derive(Debug)]
pub struct Param {
    name: String,
    value: Mutex<Arc<Tensor>>,
    grad: Mutex<Option<Tensor>>,
}

/// Shared handle to a [`Param`].
pub type ParamRef = Arc<Param>;

/// Lock `m` even if a panic poisoned it: no update changes a tensor's
/// shape, so the value behind a poisoned lock is still a valid tensor.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Param {
    /// Create a named parameter with an initial value (no gradient buffer
    /// until one is needed).
    pub fn new(name: impl Into<String>, value: Tensor) -> ParamRef {
        Arc::new(Param { name: name.into(), value: Mutex::new(Arc::new(value)), grad: Mutex::new(None) })
    }

    /// Human-readable name (used in diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Clone of the current value.
    pub fn value(&self) -> Tensor {
        Tensor::clone(&lock(&self.value))
    }

    /// Clone of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.with_grad_mut(|g| g.clone())
    }

    /// Run `f` against the current value without cloning it.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&lock(&self.value))
    }

    /// Run `f` against a writable value: the parameter's own buffer when
    /// nothing else holds it, a copy of it (which then becomes the value)
    /// while a tape still does.
    pub(crate) fn with_value_mut<R>(&self, f: impl FnOnce(&mut Tensor) -> R) -> R {
        f(Arc::make_mut(&mut lock(&self.value)))
    }

    /// Run `f` against the accumulated gradient without cloning it.
    pub fn with_grad<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        self.with_grad_mut(|g| f(g))
    }

    /// Run `f` against the gradient, allocating it (zeroed) on first use.
    fn with_grad_mut<R>(&self, f: impl FnOnce(&mut Tensor) -> R) -> R {
        let mut grad = lock(&self.grad);
        f(grad.get_or_insert_with(|| Tensor::zeros(lock(&self.value).dims())))
    }

    /// Scale the accumulated gradient in place (global-norm clipping).
    pub fn scale_grad(&self, scale: f32) {
        self.with_grad_mut(|g| g.scale_assign(scale));
    }

    /// Dimension extents of the parameter.
    pub fn dims(&self) -> Vec<usize> {
        lock(&self.value).dims().to_vec()
    }

    /// Element count.
    pub fn len(&self) -> usize {
        lock(&self.value).len()
    }

    /// Whether the parameter holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overwrite the value (e.g. a test's fixed weights). The old buffer is
    /// released unless a tape still holds it.
    pub fn set_value(&self, value: Tensor) {
        let mut current = lock(&self.value);
        assert_eq!(value.dims(), current.dims(), "set_value shape mismatch for {}", self.name);
        *current = Arc::new(value);
    }

    /// Add `delta` into the accumulated gradient.
    pub fn accumulate_grad(&self, delta: &Tensor) {
        self.with_grad_mut(|g| g.add_assign(delta));
    }

    /// Reset the gradient to zero, reusing its buffer (an unallocated
    /// gradient already reads as zero).
    pub fn zero_grad(&self) {
        if let Some(g) = lock(&self.grad).as_mut() {
            g.as_mut_slice().fill(0.0);
        }
    }

    /// In-place SGD-style update: `value -= lr * update`.
    pub fn apply_update(&self, update: &Tensor, lr: f32) {
        self.with_value_mut(|v| v.axpy_assign(-lr, update));
    }
}

/// One forward/backward pass: a tape plus the parameter bindings created on
/// it.
///
/// `Session::param` records a leaf sharing the parameter's current value
/// (no copy) and remembers the node id; `Session::backward` then routes the
/// tape's gradients into each bound parameter's `.grad`.
pub struct Session<'t> {
    tape: &'t Tape,
    bindings: RefCell<Vec<(ParamRef, usize)>>,
}

impl<'t> Session<'t> {
    /// Wrap a tape.
    pub fn new(tape: &'t Tape) -> Self {
        Session { tape, bindings: RefCell::new(Vec::new()) }
    }

    /// The underlying tape.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Drop all parameter bindings, retaining capacity. Pair with
    /// [`Tape::reset`] to reuse one tape + session across training steps
    /// without reallocating either.
    pub fn reset(&self) {
        self.bindings.borrow_mut().clear();
    }

    /// Bind a parameter into this pass, returning its tape variable. The
    /// leaf shares the parameter's buffer; an update made while the tape
    /// still holds it copies on write, so the pass keeps the value it read.
    pub fn param(&self, p: &ParamRef) -> Var<'t> {
        let var = self.tape.leaf_shared(Arc::clone(&lock(&p.value)));
        self.bindings.borrow_mut().push((Arc::clone(p), var.id()));
        var
    }

    /// Record a constant input (no gradient routing).
    pub fn input(&self, value: Tensor) -> Var<'t> {
        self.tape.constant(value)
    }

    /// Run the reverse pass from `loss` and accumulate parameter gradients.
    ///
    /// Returns the raw [`muse_autograd::Gradients`] for callers that also
    /// want gradients of non-parameter nodes.
    pub fn backward(&self, loss: Var<'t>) -> muse_autograd::Gradients<'t> {
        let grads = self.tape.backward(loss);
        for (param, id) in self.bindings.borrow().iter() {
            if let Some(g) = grads.get(self.tape.var_by_id(*id)) {
                param.accumulate_grad(g);
            }
        }
        grads
    }

    /// Number of parameters bound so far (a parameter bound twice counts
    /// twice; gradients still accumulate correctly).
    pub fn bound_params(&self) -> usize {
        self.bindings.borrow().len()
    }
}

/// Count the total number of scalar parameters in a set.
pub fn total_params(params: &[ParamRef]) -> usize {
    params.iter().map(|p| p.len()).sum()
}

/// Clone the current values of a parameter set (for best-epoch
/// checkpointing).
pub fn snapshot(params: &[ParamRef]) -> Vec<Tensor> {
    params.iter().map(|p| p.value()).collect()
}

/// Restore values captured by [`snapshot`] (order and shapes must match),
/// copying into each parameter's buffer.
pub fn restore(params: &[ParamRef], snapshot: &[Tensor]) {
    assert_eq!(params.len(), snapshot.len(), "snapshot length mismatch");
    for (p, v) in params.iter().zip(snapshot) {
        p.with_value_mut(|value| {
            assert_eq!(value.dims(), v.dims(), "restore shape mismatch for {}", p.name());
            value.as_mut_slice().copy_from_slice(v.as_slice());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_autograd::vae_ops::mse;

    #[test]
    fn param_value_grad_lifecycle() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        assert_eq!(p.name(), "w");
        assert_eq!(p.grad().as_slice(), &[0.0, 0.0]);
        p.accumulate_grad(&Tensor::from_vec(vec![0.5, 0.5], &[2]));
        p.accumulate_grad(&Tensor::from_vec(vec![0.5, 0.5], &[2]));
        assert_eq!(p.grad().as_slice(), &[1.0, 1.0]);
        p.zero_grad();
        assert_eq!(p.grad().as_slice(), &[0.0, 0.0]);
        p.apply_update(&Tensor::ones(&[2]), 0.1);
        assert!((p.value().as_slice()[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn session_routes_gradients_to_params() {
        let p = Param::new("w", Tensor::from_vec(vec![3.0], &[1]));
        let tape = Tape::new();
        let s = Session::new(&tape);
        let w = s.param(&p);
        let loss = w.square().sum(); // d/dw w^2 = 2w = 6
        s.backward(loss);
        assert_eq!(p.grad().as_slice(), &[6.0]);
    }

    #[test]
    fn a_bound_leaf_shares_the_parameter_buffer() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let address = |t: &Tensor| t.as_slice().as_ptr();
        let own = p.with_value(address);
        let tape = Tape::new();
        let s = Session::new(&tape);
        let w = s.param(&p);
        assert_eq!(w.with_value(address), own, "binding copied the value");
        // An update while the tape holds the value copies on write: the
        // pass keeps what it read, the parameter moves to a new buffer.
        p.apply_update(&Tensor::ones(&[2]), 0.5);
        assert_eq!(w.with_value(|t| t.as_slice().to_vec()), vec![1.0, 2.0]);
        assert_eq!(p.value().as_slice(), &[0.5, 1.5]);
        let copied = p.with_value(address);
        assert_ne!(copied, own);
        // Once the tape lets go, updates write in place.
        tape.reset();
        s.reset();
        p.apply_update(&Tensor::ones(&[2]), 0.5);
        assert_eq!(p.with_value(address), copied);
        assert_eq!(p.value().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn the_gradient_is_allocated_on_first_use() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        p.zero_grad();
        assert!(lock(&p.grad).is_none(), "zero_grad allocated a gradient");
        assert_eq!(p.with_grad(|g| g.as_slice().to_vec()), vec![0.0, 0.0]);
        assert!(lock(&p.grad).is_some());
        let q = Param::new("v", Tensor::ones(&[3]));
        q.scale_grad(2.0);
        assert_eq!(q.grad().as_slice(), &[0.0; 3]);
    }

    #[test]
    fn same_param_bound_twice_accumulates() {
        let p = Param::new("w", Tensor::from_vec(vec![2.0], &[1]));
        let tape = Tape::new();
        let s = Session::new(&tape);
        let w1 = s.param(&p);
        let w2 = s.param(&p);
        let loss = w1.add(&w2).sum(); // dL/dw through both bindings = 1 + 1
        s.backward(loss);
        assert_eq!(p.grad().as_slice(), &[2.0]);
        assert_eq!(s.bound_params(), 2);
    }

    #[test]
    fn training_reduces_simple_loss() {
        // One scalar parameter fit to target 5 by plain gradient steps.
        let p = Param::new("w", Tensor::zeros(&[1, 1]));
        let target = Tensor::full(&[1, 1], 5.0);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let tape = Tape::new();
            let s = Session::new(&tape);
            let w = s.param(&p);
            let loss = mse(&w, &target);
            let l = loss.item();
            s.backward(loss);
            p.apply_update(&p.grad(), 0.2);
            p.zero_grad();
            assert!(l <= last + 1e-4, "loss increased: {last} -> {l}");
            last = l;
        }
        assert!(last < 1e-2, "did not converge: {last}");
    }

    #[test]
    fn total_params_counts_scalars() {
        let a = Param::new("a", Tensor::zeros(&[2, 3]));
        let b = Param::new("b", Tensor::zeros(&[4]));
        assert_eq!(total_params(&[a, b]), 10);
    }
}

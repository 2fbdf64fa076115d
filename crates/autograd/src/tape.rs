//! The gradient tape, its variables, and the reverse pass.

use crate::ops::{backward, Op};
use muse_obs as obs;
use muse_tensor::Tensor;
use std::cell::RefCell;
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

/// A node's forward value: computed and owned by the tape, or shared with
/// the tensor it was bound from (a parameter), so binding copies nothing.
pub(crate) enum Value {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

impl Deref for Value {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Value::Owned(t) => t,
            Value::Shared(t) => t,
        }
    }
}

pub(crate) struct Node {
    pub(crate) value: Value,
    /// The op that computed `value`, with its operands' node ids.
    pub(crate) op: Op,
}

/// Read-only view handed to [`backward`] for one node: the recorded nodes
/// (for operand values), the tape's operand list (for ops with a variable
/// number of operands), the id of the node being differentiated, and its
/// upstream gradient.
pub(crate) struct BackwardCtx<'a> {
    nodes: &'a [Node],
    operands: &'a [usize],
    id: usize,
    grad: &'a Tensor,
}

impl<'a> BackwardCtx<'a> {
    /// Upstream gradient flowing into this node.
    pub(crate) fn grad(&self) -> &'a Tensor {
        self.grad
    }

    /// Forward value of any node recorded before this one.
    pub(crate) fn value(&self, id: usize) -> &'a Tensor {
        debug_assert!(id <= self.id, "backward read of node {id} after {}", self.id);
        &self.nodes[id].value
    }

    /// Forward value of the node being differentiated (its saved output).
    pub(crate) fn out(&self) -> &'a Tensor {
        &self.nodes[self.id].value
    }

    /// Node ids an op stored with [`Tape::push_operands`].
    pub(crate) fn operands(&self, range: Range<usize>) -> &'a [usize] {
        &self.operands[range]
    }
}

/// Accumulator for parent gradients during the reverse sweep. Only slots for
/// nodes recorded *before* the current one are reachable, which enforces the
/// topological-order invariant structurally.
///
/// All helpers accumulate **in place** when a slot already holds a gradient
/// (no `old + piece` temporary), and all fused forms are bit-identical to
/// materializing the piece and calling `Tensor::add_assign`.
pub(crate) struct GradSink<'a> {
    grads: &'a mut [Option<Tensor>],
}

impl GradSink<'_> {
    /// `grads[id] += piece`, cloning only when the slot is empty.
    pub(crate) fn add(&mut self, id: usize, piece: &Tensor) {
        match &mut self.grads[id] {
            Some(acc) => acc.add_assign(piece),
            slot @ None => *slot = Some(piece.clone()),
        }
    }

    /// `grads[id] += piece`, consuming the piece (moved into an empty slot).
    pub(crate) fn add_owned(&mut self, id: usize, piece: Tensor) {
        match &mut self.grads[id] {
            Some(acc) => acc.add_assign(&piece),
            slot @ None => *slot = Some(piece),
        }
    }

    /// `grads[id] += s * piece` without materializing the scaled tensor.
    pub(crate) fn add_scaled(&mut self, id: usize, piece: &Tensor, s: f32) {
        match &mut self.grads[id] {
            Some(acc) => acc.axpy_assign(s, piece),
            slot @ None => *slot = Some(piece.mul_scalar(s)),
        }
    }

    /// `grads[id] += f(a, b)` elementwise (equal shapes) without the
    /// intermediate `zip_with` tensor when accumulating.
    pub(crate) fn add_zip(&mut self, id: usize, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
        match &mut self.grads[id] {
            Some(acc) => acc.accum_zip(a, b, &f),
            slot @ None => *slot = Some(a.zip_with(b, &f)),
        }
    }

    /// `grads[id] += full(dims, v)` without materializing the constant.
    pub(crate) fn add_splat(&mut self, id: usize, dims: &[usize], v: f32) {
        match &mut self.grads[id] {
            Some(acc) => {
                debug_assert_eq!(acc.dims(), dims, "add_splat shape mismatch");
                acc.map_inplace(|x| x + v);
            }
            slot @ None => *slot = Some(Tensor::full(dims, v)),
        }
    }

    /// Fold a broadcast gradient back to operand shape and accumulate:
    /// `grads[id] += g.sum_to(dims)`, skipping the fold when shapes match.
    pub(crate) fn add_sum_to(&mut self, id: usize, g: &Tensor, dims: &[usize]) {
        if g.dims() == dims {
            self.add(id, g);
        } else {
            self.add_owned(id, g.sum_to(dims));
        }
    }

    /// `grads[id] += (s * g).sum_to(dims)` with the same fast path.
    pub(crate) fn add_sum_to_scaled(&mut self, id: usize, g: &Tensor, dims: &[usize], s: f32) {
        if g.dims() == dims {
            self.add_scaled(id, g, s);
        } else {
            self.add_owned(id, g.mul_scalar(s).sum_to(dims));
        }
    }

    /// Scatter `g` into the flat element range `[start_el, start_el + g.len())`
    /// of a `dims`-shaped gradient (the inverse of a contiguous slice).
    pub(crate) fn add_range(&mut self, id: usize, dims: &[usize], start_el: usize, g: &Tensor) {
        match &mut self.grads[id] {
            Some(acc) => {
                debug_assert_eq!(acc.dims(), dims, "add_range shape mismatch");
                let dst = &mut acc.as_mut_slice()[start_el..start_el + g.len()];
                for (d, &s) in dst.iter_mut().zip(g.as_slice()) {
                    *d += s;
                }
            }
            slot @ None => {
                let mut grad = Tensor::zeros(dims);
                grad.as_mut_slice()[start_el..start_el + g.len()].copy_from_slice(g.as_slice());
                *slot = Some(grad);
            }
        }
    }

    /// `grads[id] += g` where `g` has the same element count but a different
    /// shape (reshape backward); accumulation ignores shape.
    pub(crate) fn add_flat(&mut self, id: usize, g: &Tensor, dims: &[usize]) {
        match &mut self.grads[id] {
            Some(acc) => {
                debug_assert_eq!(acc.len(), g.len(), "add_flat length mismatch");
                for (d, &s) in acc.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *d += s;
                }
            }
            slot @ None => *slot = Some(g.reshaped(dims)),
        }
    }
}

/// A recording of a forward computation, enabling one reverse sweep.
///
/// A `Tape` is `Send` but not `Sync`: one thread records on it at a time
/// (the training loop is single-threaded, and the daemon runs its forward
/// passes under one lock), and interior mutability lets `Var` methods push
/// nodes through a shared reference.
///
/// A tape is reusable: [`Tape::reset`] clears the recording while keeping the
/// node vector's capacity (and, via the tensor arena, the value buffers), so
/// a steady-state training step records onto warm storage.
///
/// A node's value is either owned by the tape (every op's output, and the
/// tensors handed to [`Tape::leaf`] and [`Tape::constant`]) or shared with
/// its source through [`Tape::leaf_shared`]: a bound parameter's leaf holds
/// one more reference to the parameter's own buffer, not a copy. The tape
/// never writes a node's value, so sharing is safe; the source copies on
/// write if it is updated while the tape still holds it.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
    /// Operand ids of ops with a variable number of operands (`concat`);
    /// each such node records its range here.
    operands: RefCell<Vec<usize>>,
    /// Recycled gradient-slot storage, returned by `Gradients::drop`.
    grads_cache: RefCell<Vec<Option<Tensor>>>,
    /// Inference mode: [`Tape::backward`] is unavailable.
    forward_only: bool,
}

/// A handle to a value recorded on a [`Tape`].
///
/// Cheap to copy; all arithmetic lives on this type (see [`crate::ops`]).
#[derive(Clone, Copy)]
pub struct Var<'t> {
    pub(crate) tape: &'t Tape,
    pub(crate) id: usize,
}

/// Gradients produced by [`Tape::backward`], indexed by node id.
///
/// Dropping this returns the slot storage to the tape for the next sweep.
pub struct Gradients<'t> {
    grads: Vec<Option<Tensor>>,
    tape: &'t Tape,
}

impl Gradients<'_> {
    /// Gradient of the loss w.r.t. `var`, if the node influenced the loss.
    pub fn get(&self, var: Var<'_>) -> Option<&Tensor> {
        self.grads.get(var.id).and_then(|g| g.as_ref())
    }

    /// Gradient or a zero tensor of the variable's shape.
    pub fn get_or_zeros(&self, var: Var<'_>) -> Tensor {
        self.get(var).cloned().unwrap_or_else(|| Tensor::zeros(&var.dims()))
    }
}

impl Drop for Gradients<'_> {
    fn drop(&mut self) {
        let mut grads = std::mem::take(&mut self.grads);
        grads.clear(); // tensors recycle into the arena
        let mut cache = self.tape.grads_cache.borrow_mut();
        if cache.capacity() < grads.capacity() {
            *cache = grads;
        }
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// An empty inference tape, on which [`Tape::backward`] panics. It
    /// records the same nodes as a training tape: an op's record is plain
    /// data, so keeping it costs no heap. Combined with [`Tape::reset`] the
    /// same tape serves repeated forward passes out of warm storage.
    pub fn forward_only() -> Self {
        Tape { forward_only: true, ..Tape::default() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clear the recording, keeping allocated capacity for the next step.
    ///
    /// Node values are released to the tensor arena, so the following forward
    /// pass reuses their buffers. Any [`Var`] handle obtained before the
    /// reset is invalidated — ids restart from zero — and must not be used.
    pub fn reset(&self) {
        self.nodes.borrow_mut().clear();
        self.operands.borrow_mut().clear();
    }

    pub(crate) fn push(&self, value: Tensor, op: Op) -> Var<'_> {
        self.record(Value::Owned(value), op)
    }

    fn record(&self, value: Value, op: Op) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node { value, op });
        Var { tape: self, id }
    }

    /// Append operand ids to the tape's operand list, returning their range
    /// for the op to record.
    pub(crate) fn push_operands(&self, ids: impl IntoIterator<Item = usize>) -> Range<usize> {
        let mut operands = self.operands.borrow_mut();
        let start = operands.len();
        operands.extend(ids);
        start..operands.len()
    }

    /// Record a differentiable leaf (e.g. an input that needs gradients).
    pub fn leaf(&self, value: Tensor) -> Var<'_> {
        self.push(value, Op::Leaf)
    }

    /// Record a differentiable leaf that shares `value` instead of owning
    /// a copy (a bound parameter): the node holds one more reference to the
    /// same buffer until [`Tape::reset`] drops it.
    pub fn leaf_shared(&self, value: Arc<Tensor>) -> Var<'_> {
        self.record(Value::Shared(value), Op::Leaf)
    }

    /// Record a constant. Structurally identical to a leaf — the distinction
    /// is for readers: constants never have their gradients read.
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.push(value, Op::Leaf)
    }

    /// Reconstruct a [`Var`] handle from a node id previously obtained via
    /// [`Var::id`]. Panics if the id is not on this tape.
    pub fn var_by_id(&self, id: usize) -> Var<'_> {
        assert!(id < self.len(), "var id {id} not on this tape (len {})", self.len());
        Var { tape: self, id }
    }

    /// Clone the current value of `var`. Prefer [`Tape::with_value`] on hot
    /// paths — it lends the tensor without copying.
    pub fn value(&self, var: Var<'_>) -> Tensor {
        Tensor::clone(&self.nodes.borrow()[var.id].value)
    }

    /// Borrow the current value of `var` for the duration of `f`, avoiding
    /// the clone that [`Tape::value`] makes.
    pub fn with_value<R>(&self, var: Var<'_>, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.nodes.borrow()[var.id].value)
    }

    /// Run the reverse sweep from a scalar (or any-shaped) `loss` node.
    ///
    /// The seed gradient is a tensor of ones shaped like the loss, so calling
    /// this on a non-scalar computes the gradient of its element sum.
    pub fn backward(&self, loss: Var<'_>) -> Gradients<'_> {
        assert!(!self.forward_only, "backward on a forward-only tape");
        let nodes = self.nodes.borrow();
        let operands = self.operands.borrow();
        assert!(loss.id < nodes.len(), "loss var not on this tape");
        let telemetry = obs::enabled();
        if telemetry {
            static TAPE_LEN: OnceLock<&obs::Gauge> = OnceLock::new();
            TAPE_LEN.get_or_init(|| obs::gauge("autograd.tape_len")).set(nodes.len() as f64);
        }
        let _sweep = obs::span("autograd.backward");
        // Reuse slot storage from the previous sweep when available.
        let mut grads = std::mem::take(&mut *self.grads_cache.borrow_mut());
        grads.clear();
        grads.resize_with(nodes.len(), || None);
        grads[loss.id] = Some(Tensor::ones(nodes[loss.id].value.dims()));
        for id in (0..=loss.id).rev() {
            let Some(grad) = grads[id].take() else { continue };
            let op = &nodes[id].op;
            if !matches!(op, Op::Leaf) {
                let t0 = telemetry.then(std::time::Instant::now);
                {
                    // Only slots below `id` are writable: backward edges are
                    // topologically ordered by construction.
                    let (lower, _) = grads.split_at_mut(id);
                    let ctx = BackwardCtx { nodes: &nodes, operands: &operands, id, grad: &grad };
                    backward(op, &ctx, &mut GradSink { grads: lower });
                }
                if let Some(t0) = t0 {
                    backward_histogram(op).record(t0.elapsed().as_nanos() as u64 as f64);
                }
            }
            grads[id] = Some(grad);
        }
        Gradients { grads, tape: self }
    }
}

/// The `autograd.backward.<name>` histogram of `op`'s kind, interned the
/// first time the process times that kind.
fn backward_histogram(op: &Op) -> &'static obs::Histogram {
    static HISTOGRAMS: [OnceLock<&obs::Histogram>; Op::KINDS] = [const { OnceLock::new() }; Op::KINDS];
    HISTOGRAMS[op.kind()]
        .get_or_init(|| obs::metrics::histogram_owned(&format!("autograd.backward.{}", op.name())))
}

impl<'t> Var<'t> {
    /// The tape this variable is recorded on.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Node id (stable for the lifetime of the tape).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Clone the forward value. Prefer [`Var::with_value`] on hot paths.
    pub fn value(&self) -> Tensor {
        self.tape.value(*self)
    }

    /// Borrow the forward value for the duration of `f`, without cloning.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        self.tape.with_value(*self, f)
    }

    /// Dimension extents of the forward value.
    pub fn dims(&self) -> Vec<usize> {
        self.tape.nodes.borrow()[self.id].value.dims().to_vec()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.tape.nodes.borrow()[self.id].value.len()
    }

    /// Whether the value holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scalar value (panics if not a single element).
    pub fn item(&self) -> f32 {
        self.tape.nodes.borrow()[self.id].value.item()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_value_roundtrip() {
        let tape = Tape::new();
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let v = tape.leaf(t.clone());
        assert_eq!(v.value(), t);
        assert_eq!(v.dims(), vec![2]);
        assert_eq!(tape.len(), 1);
        v.with_value(|borrowed| assert_eq!(borrowed, &t));
    }

    #[test]
    fn backward_of_leaf_is_ones() {
        let tape = Tape::new();
        let v = tape.leaf(Tensor::zeros(&[3]));
        let grads = tape.backward(v);
        assert_eq!(grads.get(v).unwrap().as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn unrelated_node_has_no_grad() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(&[2]));
        let b = tape.leaf(Tensor::zeros(&[2]));
        let grads = tape.backward(b);
        assert!(grads.get(a).is_none());
        assert_eq!(grads.get_or_zeros(a).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn reset_clears_recording_but_keeps_capacity() {
        let tape = Tape::new();
        for _ in 0..8 {
            tape.leaf(Tensor::zeros(&[4]));
        }
        assert_eq!(tape.len(), 8);
        tape.reset();
        assert_eq!(tape.len(), 0);
        assert!(tape.nodes.borrow().capacity() >= 8, "reset must retain node capacity");
        // The tape records fresh nodes with ids restarting from zero.
        let v = tape.leaf(Tensor::ones(&[2]));
        assert_eq!(v.id(), 0);
    }

    #[test]
    fn gradient_storage_is_recycled_across_sweeps() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let loss = x.square().sum();
        {
            let grads = tape.backward(loss);
            assert_eq!(grads.get(x).unwrap().as_slice(), &[2.0, 4.0]);
        } // drop returns slot storage to the tape
        assert!(tape.grads_cache.borrow().capacity() >= tape.len());
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn forward_only_tape_matches_forward_values_and_records_the_same_ops() {
        let run = |tape: &Tape| {
            let x = tape.leaf(Tensor::from_vec(vec![0.5, -1.5, 2.0], &[3]));
            x.tanh().square().sum().value()
        };
        let names = |tape: &Tape| tape.nodes.borrow().iter().map(|n| n.op.name()).collect::<Vec<_>>();
        let train = Tape::new();
        let infer = Tape::forward_only();
        assert_eq!(run(&train).as_slice(), run(&infer).as_slice());
        assert_eq!(names(&infer), ["leaf", "tanh", "square", "sum"]);
        assert_eq!(names(&infer), names(&train));
        // And the same inference tape is reusable across requests.
        infer.reset();
        assert_eq!(run(&train).as_slice(), run(&infer).as_slice());
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn backward_on_forward_only_tape_panics() {
        let tape = Tape::forward_only();
        let x = tape.leaf(Tensor::ones(&[2]));
        let loss = x.sum();
        let _ = tape.backward(loss);
    }
}

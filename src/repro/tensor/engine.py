"""Graph executor for the declarative op registry.

This module owns everything that happens *between* op definitions
(:mod:`repro.tensor.ops`) and the user-facing :class:`~repro.tensor.Tensor`:

* :func:`apply_op` — run a registered op's forward pass and wire the output
  into the autograd graph (parents, op name, saved context).
* :func:`backward` — topologically sort the graph below a root, drive each
  node's VJP in reverse order, accumulate gradients **in place** into
  preallocated buffers, and free interior gradients as soon as they have been
  consumed.
* The global gradient-mode switch (:class:`no_grad` / :func:`is_grad_enabled`)
  that decides whether ``apply_op`` records graph structure at all.
* Per-op timing hooks: :func:`add_op_timing_hook` registers a callable
  ``hook(op_name, seconds)`` invoked for every forward (``"matmul"``) and
  backward (``"matmul:backward"``) execution.  The aggregation side lives in
  :mod:`repro.metrics.profiler`.

Gradient accumulation strategy
------------------------------
Each tensor carries a ``_grad_owned`` flag.  The first gradient that reaches a
node is stored by reference (no copy); when a node is known to have fan-in
greater than one, the executor immediately promotes that first gradient to a
privately-owned buffer so that every subsequent contribution is an in-place
``+=`` rather than the ``grad = grad + g`` reallocation the engine used
historically.  Ownership is dropped for gradients that outlive the backward
pass (leaves and the root) so a later ``backward()`` never mutates arrays the
caller may still hold.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter

import numpy as np

from .ops import OPS, OpContext, get_op

__all__ = [
    "apply_op",
    "backward",
    "no_grad",
    "is_grad_enabled",
    "graph_nodes_created",
    "add_op_timing_hook",
    "remove_op_timing_hook",
]

# Set by repro.tensor.tensor at import time; breaks the circular dependency
# between the executor (which constructs Tensors) and the Tensor class (whose
# methods dispatch through the executor).
_TENSOR_CLS = None

class _ThreadState(threading.local):
    """Per-thread autograd mode and graph-node counter.

    Both are thread-local on purpose: serving engines run no-grad forwards
    on scheduler/handler threads *concurrently* with other threads, and a
    process-global switch would let one thread's ``no_grad.__exit__``
    re-enable gradients in the middle of another thread's forward (a real
    race: it intermittently tripped the serving layer's strict zero-graph
    assert under concurrent multi-engine load).  Every thread starts with
    gradients enabled.
    """

    def __init__(self):
        self.grad_enabled = True
        self.graph_nodes_created = 0
        # Active OpTracer (repro.tensor.trace) or None.  Thread-local so a
        # session tracing on a scheduler thread never records ops from a
        # concurrent training thread into its plan.
        self.tracer = None


_state = _ThreadState()

# Registered timing hooks, kept as an immutable tuple that is *replaced* (not
# mutated) on add/remove.  ``_emit_timing`` iterates whatever snapshot it
# reads; a concurrent add/remove builds a new tuple and can never invalidate
# an iteration already in flight (the old list-based storage raced here).
_TIMING_HOOKS: tuple = ()
_TIMING_HOOKS_LOCK = threading.Lock()

# Shared context kwargs for the (common) no-kwargs dispatch; OpContext holders
# must treat ``ctx.kwargs`` as read-only, so one empty dict can serve them all.
_NO_KWARGS: dict = {}


# ---------------------------------------------------------------------------
# Gradient-mode switch (mirrors torch.no_grad()).
# ---------------------------------------------------------------------------

class no_grad:
    """Context manager *and* decorator that disables graph construction.

    Inside a ``with no_grad():`` block, operations on tensors do not record
    backward state, which makes inference cheaper and prevents accidental
    gradient accumulation during evaluation.  Nesting is supported; each
    block restores the mode that was active when it was entered.  The switch
    is **per thread**, so a serving thread in inference mode never disables
    (or re-enables) gradients under a concurrently training thread.

    Applied as a decorator (``@no_grad()``), the wrapped function runs
    entirely in inference mode — the serving layer uses this on its hot
    prediction paths::

        @no_grad()
        def predict(model, batch):
            return model(batch)

    Each *call* of the wrapped function enters a fresh block, so decorated
    functions are reentrant and safe to nest with explicit ``with`` blocks.
    """

    def __enter__(self):
        self._previous = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        _state.grad_enabled = self._previous
        return False

    def __call__(self, function):
        @functools.wraps(function)
        def wrapped(*args, **kwargs):
            with no_grad():
                return function(*args, **kwargs)
        return wrapped


def is_grad_enabled() -> bool:
    """Return ``True`` when operations record the autograd graph (per thread)."""
    return _state.grad_enabled


def graph_nodes_created() -> int:
    """Total autograd graph nodes constructed so far *on this thread*.

    Only nodes that actually record backward state count — operations run
    under :class:`no_grad` (or on tensors that do not require grad) leave the
    counter untouched, which is exactly what makes the counter useful: take
    the difference across a code region to assert it built *zero* graph.
    Thread-locality keeps the assert honest — a training loop on another
    thread cannot inflate a serving forward's delta (see
    :class:`repro.serve.InferenceSession`).
    """
    return _state.graph_nodes_created


# ---------------------------------------------------------------------------
# Timing hooks
# ---------------------------------------------------------------------------

def add_op_timing_hook(hook) -> None:
    """Register ``hook(op_name, seconds)`` to observe every op execution.

    Forward passes report under the op name, backward passes under
    ``"<name>:backward"``.  Timing is only measured while at least one hook is
    installed, so the zero-hook fast path stays free.  Registration swaps in a
    fresh tuple snapshot, so hooks may be added or removed from any thread
    while other threads are mid-dispatch.
    """
    global _TIMING_HOOKS
    with _TIMING_HOOKS_LOCK:
        _TIMING_HOOKS = _TIMING_HOOKS + (hook,)


def remove_op_timing_hook(hook) -> None:
    """Unregister a hook added with :func:`add_op_timing_hook`."""
    global _TIMING_HOOKS
    with _TIMING_HOOKS_LOCK:
        hooks = list(_TIMING_HOOKS)
        hooks.remove(hook)
        _TIMING_HOOKS = tuple(hooks)


def _emit_timing(name: str, seconds: float) -> None:
    for hook in _TIMING_HOOKS:
        hook(name, seconds)


# ---------------------------------------------------------------------------
# Forward dispatch
# ---------------------------------------------------------------------------

def apply_op(name: str, *inputs, **kwargs):
    """Execute registered op ``name`` on ``inputs`` and return a new Tensor.

    Non-Tensor inputs (scalars, NumPy arrays) are wrapped as constant
    tensors.  Non-array configuration (axes, strides, …) travels through
    ``kwargs`` and is available to the VJP via the node's context.
    """
    opdef = get_op(name)
    tensor_cls = _TENSOR_CLS
    # Fast path: most dispatches (everything issued by Tensor methods and
    # Module forwards) pass Tensors only — skip the per-element conditional
    # rebuild and reuse the argument tuple as-is.
    for value in inputs:
        if not isinstance(value, tensor_cls):
            tensors = tuple(v if isinstance(v, tensor_cls) else tensor_cls(v)
                            for v in inputs)
            break
    else:
        tensors = inputs
    requires_grad = _state.grad_enabled and any(t.requires_grad for t in tensors)
    ctx = OpContext(tuple(t.data for t in tensors), kwargs or _NO_KWARGS, requires_grad)
    if _TIMING_HOOKS:
        start = perf_counter()
        if kwargs:
            data = opdef.forward(ctx, *ctx.inputs, **kwargs)
        else:
            data = opdef.forward(ctx, *ctx.inputs)
        _emit_timing(name, perf_counter() - start)
    elif kwargs:
        data = opdef.forward(ctx, *ctx.inputs, **kwargs)
    else:
        data = opdef.forward(ctx, *ctx.inputs)
    out = tensor_cls(data, requires_grad=requires_grad,
                     _parents=tensors if requires_grad else (), _op=name)
    if requires_grad:
        _state.graph_nodes_created += 1
        out._ctx = ctx
    tracer = _state.tracer
    if tracer is not None:
        tracer.record(name, tensors, kwargs, out)
    return out


# ---------------------------------------------------------------------------
# Backward execution
# ---------------------------------------------------------------------------

def _topological_order(root) -> list:
    """Iterative post-order DFS over the graph reachable from ``root``."""
    topo: list = []
    visited: set[int] = set()
    stack: list[tuple] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


def backward(root, grad: np.ndarray | None = None) -> None:
    """Backpropagate from ``root`` to every reachable tensor requiring grad.

    Parameters
    ----------
    root:
        The tensor to differentiate.  Must have ``requires_grad=True``.
    grad:
        Gradient of the final objective with respect to ``root``.  May be
        omitted only for scalar tensors, in which case it defaults to 1.
    """
    if not root.requires_grad:
        raise RuntimeError("backward() called on a tensor that does not require grad")
    if grad is None:
        if root.data.size != 1:
            raise RuntimeError("grad must be provided for non-scalar outputs")
        grad = np.ones_like(root.data)
    grad = np.asarray(grad, dtype=root.data.dtype)

    topo = _topological_order(root)

    # Fan-in census: how many gradient contributions each node will receive.
    # Nodes with fan-in > 1 get a preallocated accumulation buffer on their
    # first contribution so every later one is an in-place ``+=``.
    fan_in: dict[int, int] = {}
    for node in topo:
        if node._ctx is not None:
            for parent in node._parents:
                fan_in[id(parent)] = fan_in.get(id(parent), 0) + 1

    root._accumulate(grad, fan_in.get(id(root), 0) + 1)

    # Arrays known to be referenced outside a single node's grad slot: the
    # caller-supplied seed, and any gradient a VJP passed through by
    # reference (same-shape ``add`` hands the output grad to both parents).
    # Retained grads backed by one of these must be materialized below.
    shared_ids: set[int] = {id(grad)}

    timing = bool(_TIMING_HOOKS)
    for node in reversed(topo):
        node_grad = node.grad
        if node_grad is None:
            continue
        if node._ctx is not None:
            opdef = OPS[node._op]
            needs = tuple(parent.requires_grad for parent in node._parents)
            if timing:
                start = perf_counter()
                grads = opdef.vjp(node._ctx, node_grad, needs)
                _emit_timing(node._op + ":backward", perf_counter() - start)
            else:
                grads = opdef.vjp(node._ctx, node_grad, needs)
            for parent, parent_grad in zip(node._parents, grads):
                if parent_grad is not None and parent.requires_grad:
                    if parent_grad is node_grad:
                        shared_ids.add(id(parent_grad))
                    parent._accumulate(parent_grad, fan_in.get(id(parent), 1))
        # Interior nodes do not need to keep their gradient once it has been
        # propagated; leaves (no parents) keep it for optimizers.
        if node._parents and node is not root:
            node.grad = None
            node._grad_owned = False

    # Gradients that survive the pass (root and leaves) are handed to user
    # code, which may write them or hold them across steps — so they must be
    # private, writable buffers.  VJPs are allowed to emit read-only
    # broadcast views (``sum``) or pass the incoming gradient through by
    # reference, which is fine for interior grads (freed above) but not for
    # retained ones: materialize those.  Ownership is also dropped so a
    # later backward() never mutates arrays the caller may still hold.
    for node in topo:
        retained = node.grad
        if retained is not None:
            if (retained.base is not None or not retained.flags.writeable
                    or id(retained) in shared_ids):
                node.grad = np.array(retained)
            node._grad_owned = False

"""Compile a recorded trace into a flat, replayable execution plan.

The compiler turns a :class:`~repro.tensor.trace.Trace` into an
:class:`ExecutionPlan`: a list of step objects that call the registered ops'
raw ``forward`` callables over plain NumPy arrays.  Replay allocates **zero
Tensors, zero OpContexts, and zero autograd graph nodes** — the per-op Python
dispatch cost that dominates small-batch inference is paid once, at trace
time.

Two optimizations are applied while lowering:

**Elementwise fusion.**  Chains of registry-declared elementwise ops
(``OpDef.elementwise``, whose forwards take ``out=``) are collapsed into a
single :class:`_ComposedStep` when every intermediate is consumed exactly
once, by the next link of the chain.  Non-chain steps sitting between two
links (e.g. a parameter ``reshape`` between BatchNorm's ``mul`` and ``add``)
are hoisted ahead of the chain — safe because, by the single-consumer rule,
nothing between two links can read a chain intermediate.  The whole chain
writes through one arena buffer; intermediates never materialize.

**Arena allocation.**  Every elementwise step's output buffer is preallocated
once per plan (``np.empty`` with the traced shape/dtype) and reused across
replays, so steady-state replay does not allocate for those steps at all.
An elementwise step that fuses with nothing is a one-link
:class:`_ComposedStep`: every link, alone or chained, calls its op's one
``forward`` with ``out=`` the step's buffer.

Arena ownership rules
---------------------
* Arena buffers are owned by the plan and **overwritten on every replay**.
* The step producing the plan *output* never writes into the arena, and if
  the output would be a *view* of an arena buffer (a ``reshape`` of a fused
  result, say) the plan copies it on the way out — callers always receive an
  array that later replays cannot clobber.
* Constants are referenced, not copied: updating a parameter in place is
  visible to subsequent replays (there is no constant folding).

Because a trace bakes in everything ``apply_op`` did not see (Python control
flow, array-valued kwargs, NumPy math done outside the registry),
:func:`compile_forward` *validates* each candidate plan: it replays on fresh
random inputs and requires byte-identical agreement with a normally
dispatched forward.  Models that fail — e.g. the transformer, whose token ids
travel through a ``getitem`` index kwarg and hand-built mask constants —
return ``None`` and keep using dispatch.  Validation is the safety net that
makes the tracer's "record everything, fold nothing" simplicity sound.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import no_grad
from .ops import OPS, OpContext
from .trace import Trace, TraceError, record_trace

__all__ = [
    "ExecutionPlan",
    "PlanCache",
    "compile_plan",
    "compile_forward",
    "plan_key",
]

# Ops whose outputs may share memory with their first input.  Needed to spot
# plan outputs that would alias an arena buffer (and must be copied out).
_VIEW_OPS = frozenset({"reshape", "transpose", "expand_dims", "squeeze", "getitem"})

# One immutable inference context serves every replayed forward: registered
# forwards only consult ``ctx.requires_grad`` (False here) and write
# ``ctx.saved`` only when it is set, so sharing is safe — and it keeps
# OpContext construction off the replay path entirely.
_INFERENCE_CTX = OpContext((), {}, False)

#: Marker for "the previous link's result" inside a fused chain.
_PREV = object()


class _OpStep:
    """A step outside the arena — a non-elementwise op or the plan output —
    calling the op's ``forward`` for a fresh output array."""

    __slots__ = ("name", "forward", "refs", "kwargs", "out_slot")

    def __init__(self, name, forward, refs, kwargs, out_slot):
        self.name = name
        self.forward = forward
        self.refs = refs
        self.kwargs = kwargs
        self.out_slot = out_slot

    def run(self, values, constants):
        args = [values[r] if r >= 0 else constants[-r - 1] for r in self.refs]
        if self.kwargs:
            values[self.out_slot] = self.forward(_INFERENCE_CTX, *args, **self.kwargs)
        else:
            values[self.out_slot] = self.forward(_INFERENCE_CTX, *args)


class _ComposedStep:
    """A chain of one or more elementwise ops sharing one arena buffer.

    ``parts`` is a list of ``(forward, refs, kwargs)``; refs may contain
    :data:`_PREV`, meaning "the chain buffer as written by the previous
    part".  Intermediates never land in the value table — only the final
    result is published, under ``out_slot``.  A one-link step keeps its op's
    name; a longer chain is named ``fused(a+b+…)``.
    """

    __slots__ = ("names", "parts", "out_slot", "buffer")

    def __init__(self, names, parts, out_slot, buffer):
        self.names = names
        self.parts = parts
        self.out_slot = out_slot
        self.buffer = buffer

    @property
    def name(self) -> str:
        if len(self.names) == 1:
            return self.names[0]
        return "fused(" + "+".join(self.names) + ")"

    def run(self, values, constants):
        buffer = self.buffer
        for forward, refs, kwargs in self.parts:
            args = [buffer if r is _PREV
                    else (values[r] if r >= 0 else constants[-r - 1])
                    for r in refs]
            forward(_INFERENCE_CTX, *args, out=buffer, **kwargs)
        values[self.out_slot] = buffer


class ExecutionPlan:
    """A compiled trace: flat steps, constant table, arena buffers."""

    __slots__ = ("n_inputs", "n_slots", "steps", "constants", "output_slot",
                 "copy_output", "input_shapes", "input_dtypes", "traced_ops",
                 "fused_chains", "fused_ops", "arena_buffers", "arena_bytes",
                 "replays")

    def __init__(self, n_inputs, n_slots, steps, constants, output_slot,
                 copy_output, input_shapes, input_dtypes, traced_ops,
                 fused_chains, fused_ops, arena_buffers, arena_bytes):
        self.n_inputs = n_inputs
        self.n_slots = n_slots
        self.steps = steps
        self.constants = constants
        self.output_slot = output_slot
        self.copy_output = copy_output
        self.input_shapes = input_shapes
        self.input_dtypes = input_dtypes
        self.traced_ops = traced_ops
        self.fused_chains = fused_chains
        self.fused_ops = fused_ops
        self.arena_buffers = arena_buffers
        self.arena_bytes = arena_bytes
        self.replays = 0

    def replay(self, *inputs: np.ndarray) -> np.ndarray:
        """Execute the plan on ``inputs`` (raw arrays in, raw array out)."""
        values = [None] * self.n_slots
        values[:self.n_inputs] = inputs
        constants = self.constants
        for step in self.steps:
            step.run(values, constants)
        output = values[self.output_slot]
        if self.copy_output:
            output = np.array(output)
        self.replays += 1
        return output

    __call__ = replay

    def describe(self) -> dict:
        """Summary stats (shown through ``session.describe()``/``/v1/stats``)."""
        return {
            "traced_ops": self.traced_ops,
            "steps": len(self.steps),
            "fused_chains": self.fused_chains,
            "fused_ops": self.fused_ops,
            "arena_buffers": self.arena_buffers,
            "arena_bytes": self.arena_bytes,
            "replays": self.replays,
        }

    def __repr__(self) -> str:
        return (f"ExecutionPlan(steps={len(self.steps)}, "
                f"fused_chains={self.fused_chains}, arena_bytes={self.arena_bytes})")


def compile_plan(trace: Trace) -> ExecutionPlan:
    """Lower a :class:`Trace` into an :class:`ExecutionPlan`.

    Applies elementwise-chain fusion and assigns arena buffers; see the
    module docstring for the exact rules.
    """
    steps = trace.steps
    output_slot = trace.output_slot

    consumers: dict[int, list[int]] = {}
    for index, step in enumerate(steps):
        for ref in step.refs:
            if ref >= 0:
                consumers.setdefault(ref, []).append(index)

    def fusible(step) -> bool:
        return OPS[step.name].elementwise and step.out_slot != output_slot

    plan_steps: list = []
    emitted = [False] * len(steps)
    aliases_arena = [False] * trace.n_slots
    fused_chains = 0
    fused_ops = 0
    arena_buffers = 0
    arena_bytes = 0

    def emit_chain(chain: list[int]) -> None:
        """One arena buffer and one :class:`_ComposedStep` for ``chain``."""
        nonlocal arena_buffers, arena_bytes
        tail = steps[chain[-1]]
        buffer = np.empty(tail.out_shape, tail.out_dtype)
        arena_buffers += 1
        arena_bytes += buffer.nbytes
        parts = []
        names = []
        previous_slot = None
        for index in chain:
            step = steps[index]
            refs = tuple(_PREV if (ref >= 0 and ref == previous_slot) else ref
                         for ref in step.refs)
            parts.append((OPS[step.name].forward, refs, step.kwargs))
            names.append(step.name)
            previous_slot = step.out_slot
            emitted[index] = True
        aliases_arena[tail.out_slot] = True
        plan_steps.append(_ComposedStep(tuple(names), parts, tail.out_slot, buffer))

    def emit_single(index: int) -> None:
        step = steps[index]
        if fusible(step):
            emit_chain([index])
            return
        if step.name in _VIEW_OPS:
            source = step.refs[0]
            aliases_arena[step.out_slot] = source >= 0 and aliases_arena[source]
        plan_steps.append(_OpStep(step.name, OPS[step.name].forward, step.refs,
                                  step.kwargs, step.out_slot))
        emitted[index] = True

    for start in range(len(steps)):
        if emitted[start]:
            continue
        if not fusible(steps[start]):
            emit_single(start)
            continue
        # Grow a chain: tail's output must have exactly one consumer, which
        # must itself be fusible with the same shape/dtype.  Steps recorded
        # between two links never read a chain intermediate (the intermediate's
        # only consumer is the next link), so they can be hoisted ahead.
        shape, dtype = steps[start].out_shape, steps[start].out_dtype
        chain = [start]
        hoisted: list[int] = []
        tail = start
        while True:
            tail_consumers = consumers.get(steps[tail].out_slot, [])
            if len(tail_consumers) != 1:
                break
            nxt = tail_consumers[0]
            candidate = steps[nxt]
            if not fusible(candidate):
                break
            if candidate.out_shape != shape or candidate.out_dtype != dtype:
                break
            hoisted.extend(k for k in range(tail + 1, nxt) if not emitted[k])
            chain.append(nxt)
            tail = nxt
        for index in hoisted:
            emit_single(index)
        emit_chain(chain)
        if len(chain) > 1:
            fused_chains += 1
            fused_ops += len(chain)

    copy_output = aliases_arena[output_slot]
    return ExecutionPlan(
        n_inputs=trace.n_inputs,
        n_slots=trace.n_slots,
        steps=plan_steps,
        constants=list(trace.constants),
        output_slot=output_slot,
        copy_output=copy_output,
        input_shapes=trace.input_shapes,
        input_dtypes=trace.input_dtypes,
        traced_ops=len(steps),
        fused_chains=fused_chains,
        fused_ops=fused_ops,
        arena_buffers=arena_buffers,
        arena_bytes=arena_bytes,
    )


def _validation_inputs(arrays, seed: int = 0x5EED) -> list[np.ndarray]:
    """Fresh random inputs with the traced shapes/dtypes.

    Values are drawn independently of the trace inputs so anything the trace
    baked in (token ids in kwargs, masks computed outside the registry)
    produces a detectable mismatch.
    """
    rng = np.random.default_rng(seed)
    fresh = []
    for array in arrays:
        if np.issubdtype(array.dtype, np.floating):
            fresh.append(rng.standard_normal(array.shape).astype(array.dtype))
        elif np.issubdtype(array.dtype, np.integer):
            high = max(int(array.max()) + 1, 2) if array.size else 2
            fresh.append(rng.integers(0, high, size=array.shape, dtype=array.dtype))
        else:
            fresh.append(np.array(array))
    return fresh


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def compile_forward(function, *arrays):
    """Trace, compile, and validate ``function`` on example ``arrays``.

    Returns ``(plan, output)`` where ``output`` is the (dispatched) forward
    result for ``arrays`` — callers serving a request while compiling can
    hand it straight back.  ``plan`` is ``None`` when the forward cannot be
    traced or the compiled plan fails the byte-identity validation replay;
    the caller should then keep dispatching normally.
    """
    try:
        trace = record_trace(function, *arrays)
    except TraceError:
        return None, None
    output = trace.example_output
    plan = compile_plan(trace)
    # Anything going wrong from here on — including environmental failures
    # like allocation errors — means the plan is unproven: fall back to
    # dispatch rather than fail a request the normal path could serve.
    # (Model errors in the *trace* forward above propagate: dispatch would
    # have raised them too.)
    try:
        fresh = _validation_inputs(arrays)
        with no_grad():
            expected = function(*[engine._TENSOR_CLS(a) for a in fresh])
        if not isinstance(expected, engine._TENSOR_CLS):
            return None, output
        got = plan.replay(*fresh)
        if not _identical(expected.data, got):
            return None, output
    except Exception:
        return None, output
    plan.replays = 0
    return plan, output


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

#: Cache sentinel: this key was tried and cannot be served from a plan.
FALLBACK = object()


def plan_key(shapes, dtypes) -> tuple:
    """Cache key for a set of input shapes/dtypes."""
    return (tuple(tuple(s) for s in shapes), tuple(str(d) for d in dtypes))


class PlanCache:
    """Per-session plan store keyed by ``(input shapes, dtypes)``.

    Entries are either an :class:`ExecutionPlan` or :data:`FALLBACK` (the key
    was traced but failed compilation/validation; keep dispatching).  Callers
    are expected to serialize access — :class:`repro.serve.InferenceSession`
    holds its lock across lookup and insert.
    """

    def __init__(self):
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0

    def lookup(self, key):
        """Return the cached plan, :data:`FALLBACK`, or ``None`` (miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        elif entry is FALLBACK:
            self.fallbacks += 1
        else:
            self.hits += 1
        return entry

    def store(self, key, plan) -> None:
        """Insert a compiled plan, or :data:`FALLBACK` when ``plan`` is None."""
        self._entries[key] = FALLBACK if plan is None else plan

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        plans = [p for p in self._entries.values() if p is not FALLBACK]
        return {
            "plans": len(plans),
            "fallback_keys": len(self._entries) - len(plans),
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
            "replays": sum(p.replays for p in plans),
            "fused_chains": sum(p.fused_chains for p in plans),
            "fused_ops": sum(p.fused_ops for p in plans),
            "arena_bytes": sum(p.arena_bytes for p in plans),
        }

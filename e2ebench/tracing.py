"""In-memory spans around the public entry points of each layer.

The traced run installs wrappers at runtime, from this file, on the
attribute a caller looks up: a class attribute for methods (so every
object the workload builds is covered) or the module-level name a caller
imports (``repro.serving.engine.parallel_qmatmul``).  Nothing under
``src/`` is edited.  Spans stay in memory; :func:`chrome_trace` writes
them out after the run.

A span's *self* time is its duration minus the durations of its direct
children.  Wrappers nest strictly on one thread, so children never
overlap and the self times of a root's subtree sum to the root's wall
time exactly; :func:`layer_breakdown` checks that.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, layer, key).  The attribute path is either a
#: module-level function or ``Class.method``.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.data.synthetic", "SyntheticPile.sample_tokens", "data", "batch"),
    ("repro.numeric.transformer", "TinyTransformer.loss_and_grads",
     "numeric", "fwd_bwd"),
    ("repro.optim.implementations", "GraceAdam.step", "optim", "adam"),
    ("repro.optim.rollback", "SnapshotRollback.capture", "optim", "rollback"),
    ("repro.optim.rollback", "SnapshotRollback.rollback", "optim",
     "rollback"),
    ("repro.optim.rollback", "SnapshotRollback.discard", "optim", "rollback"),
    ("repro.optim.mixed_precision", "MixedPrecisionState.sync_model_copy",
     "optim", "cast"),
    ("repro.core.stv", "check_gradients", "optim", "validate"),
    ("repro.training.dp_trainer", "check_gradients", "optim", "validate"),
    ("repro.core.engine", "SuperOffloadEngine.train_step", "core", "step"),
    ("repro.parallel.zero", "ZeroShardedAdam.step_flat", "parallel",
     "zero_step"),
    ("repro.tensors.spill", "SpillTicket.wait", "tensors", "spill_wait"),
    ("repro.training.checkpoint", "AsyncCheckpointer.save", "training",
     "ckpt_save"),
    ("repro.training.checkpoint", "AsyncCheckpointer.wait", "training",
     "ckpt_wait"),
    ("repro.training.dp_trainer", "DataParallelTrainer.train_step",
     "training", "step"),
    ("repro.serving.scheduler", "ContinuousBatchingScheduler.step",
     "serving", "scheduler"),
    ("repro.serving.engine", "InferenceEngine.step", "serving",
     "engine_step"),
    ("repro.serving.engine", "parallel_qmatmul", "exec", "qmatmul"),
    ("repro.serving.engine", "paged_attention", "tensors", "paged_attention"),
)


class Span:
    """One call of a wrapped entry point (or a benchmark root)."""

    __slots__ = ("sid", "parent", "tid", "layer", "key", "t0", "t1",
                 "child_s", "attrs")

    def __init__(self, sid: int, parent: Optional["Span"], tid: int,
                 layer: str, key: str, t0: float):
        self.sid = sid
        self.parent = parent
        self.tid = tid
        self.layer = layer
        self.key = key
        self.t0 = t0
        self.t1 = t0
        self.child_s = 0.0
        self.attrs: Dict[str, object] = {}

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.key}"

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Recorder:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        #: Optional per-key hooks: ``hook(span, args, result)``.
        self.probes: Dict[str, Callable] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, key: str) -> Span:
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, stack[-1] if stack else None,
                    threading.get_ident(), layer, key, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.dur
        self.spans.append(span)

    def span(self, layer: str, key: str) -> "_Scope":
        return _Scope(self, layer, key)

    def clear(self) -> None:
        self.spans = []

    # -- wrapper installation ------------------------------------------

    def wrap(self, fn: Callable, layer: str, key: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(layer, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            probe = recorder.probes.get(key)
            if probe is not None:
                probe(span, args, result)
            return result

        return traced

    def install(self, targets: Sequence[Tuple[str, str, str, str]] = TARGETS
                ) -> None:
        """Replace each target attribute with a span-recording wrapper."""
        for module_name, path, layer, key in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            setattr(owner, attr, self.wrap(owner.__dict__[attr], layer, key))


class _Scope:
    __slots__ = ("_rec", "_layer", "_key", "span")

    def __init__(self, rec: Recorder, layer: str, key: str):
        self._rec = rec
        self._layer = layer
        self._key = key

    def __enter__(self) -> Span:
        self.span = self._rec.open(self._layer, self._key)
        return self.span

    def __exit__(self, *exc) -> bool:
        self._rec.close(self.span)
        return False


def subtree(spans: Sequence[Span], roots: Sequence[Span]) -> List[Span]:
    """Every span whose outermost ancestor is one of ``roots``."""
    root_ids = {r.sid for r in roots}

    def top(span: Span) -> Span:
        while span.parent is not None:
            span = span.parent
        return span

    return [s for s in spans if top(s).sid in root_ids]


def layer_breakdown(spans: Sequence[Span], roots: Sequence[Span],
                    root_layer: str) -> Dict[str, object]:
    """Self time per layer over the subtrees of ``roots``.

    Self time the root keeps for itself is reported under ``root_layer``
    (``"unaccounted"`` when the root is the benchmark's own iteration
    window).  Returns the per-layer self seconds; the per-``layer.key``
    span seconds, self seconds and call counts; the total root wall; and
    whether the self times sum to that wall with none negative
    (``sums_ok``).
    """
    members = subtree(spans, roots)
    wall = sum(r.dur for r in roots)
    root_ids = {r.sid for r in roots}
    by_layer: Dict[str, float] = {}
    by_key: Dict[str, float] = {}
    self_by_key: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    negative = 0
    for s in members:
        self_s = s.self_s
        if self_s < -1e-9:
            negative += 1
        layer = root_layer if s.sid in root_ids else s.layer
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
        by_key[s.name] = by_key.get(s.name, 0.0) + s.dur
        self_by_key[s.name] = self_by_key.get(s.name, 0.0) + self_s
        calls[s.name] = calls.get(s.name, 0) + 1
    total = sum(by_layer.values())
    return {
        "wall_s": wall,
        "self_s": by_layer,
        "span_s": by_key,
        "self_by_name": self_by_key,
        "calls": calls,
        "sums_ok": negative == 0 and abs(total - wall) <= 1e-6 * max(wall, 1),
    }


def chrome_trace(spans: Sequence[Span], path: str,
                 meta: Optional[Dict[str, object]] = None) -> None:
    """Write ``spans`` as Chrome ``trace_event`` complete events."""
    if not spans:
        origin = 0.0
    else:
        origin = min(s.t0 for s in spans)
    tids: Dict[int, int] = {}
    events = []
    for s in sorted(spans, key=lambda s: s.t0):
        tid = tids.setdefault(s.tid, len(tids) + 1)
        args: Dict[str, object] = {"id": s.sid, "self_us": s.self_s * 1e6}
        if s.parent is not None:
            args["parent"] = s.parent.sid
        args.update(s.attrs)
        events.append({
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": tid,
            "ts": (s.t0 - origin) * 1e6, "dur": s.dur * 1e6, "args": args,
        })
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "metadata": meta or {}}, f)

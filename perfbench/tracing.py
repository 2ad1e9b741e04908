"""In-memory span tracing from outside the program.

A traced run installs wrappers around public functions of the layers
under test (:func:`install_layers`), records one span per call and
removes every wrapper when the run ends.  Spans stay in memory and are
written out by the caller once the run is over.

Each span belongs to a *group* (``phase``, ``nn``, ``formats``,
``scrub``, ``serve``).  Its parent is the innermost open span of the
same group on the same thread, so every group forms its own call tree
and a span's self time is its duration minus the durations of its
children.  Because children nest strictly inside their parent, the self
times of one tree add up exactly to the duration of its root.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclasses.dataclass
class Span:
    """One timed call: name, interval, parent span and the item it served."""

    id: int
    name: str
    group: str
    start: float
    end: float
    parent: Optional[int]
    key: Any = None
    size: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and owns the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        #: ``arrival.id`` is set by the traffic generator just before each
        #: submit, so requests built inside ``submit`` carry their arrival.
        self.arrival = threading.local()

    # ------------------------------------------------------------- spans
    def _stack(self, group: str) -> List[int]:
        stacks = getattr(self._local, "stacks", None)
        if stacks is None:
            stacks = self._local.stacks = {}
        return stacks.setdefault(group, [])

    @contextlib.contextmanager
    def span(self, name: str, group: str, key: Any = None,
             size: float = 0.0) -> Iterator[None]:
        """Record the enclosed block as one span."""
        stack = self._stack(group)
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, group, start, end, parent,
                                   key, size))

    # ----------------------------------------------------------- patching
    def wrap(self, owner: Any, attr: str, name: str, group: str,
             key: Optional[Callable[..., Any]] = None,
             size: Optional[Callable[..., float]] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``key`` and ``size`` compute the span's item id and work size
        from the call's arguments.
        """
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, group,
                           key(*args, **kwargs) if key else None,
                           size(*args, **kwargs) if size else 0.0):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had_own))

    def wrap_context(self, owner: Any, attr: str, name: str,
                     group: str) -> None:
        """Like :meth:`wrap` for a context-manager factory: the span
        covers the ``with`` block, not the factory call."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        tracer = self

        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            with tracer.span(name, group), original(*args, **kwargs) as value:
                yield value

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had_own))

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr`` by ``value`` until :meth:`remove`."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, value)
        self._patches.append((owner, attr, original, had_own))

    def remove(self) -> None:
        """Undo every patch, newest first, restoring the original objects."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> int:
        return len(self._patches)


# ------------------------------------------------------------- analysis
def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in out:
            out[span.parent] -= span.duration
    return out


def descendants(spans: List[Span], root_id: int) -> List[Span]:
    """Every span below ``root_id`` in its group's tree."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: List[Span] = []
    todo = list(children.get(root_id, ()))
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(children.get(span.id, ()))
    return out


def phase_breakdown(spans: List[Span], root: Span) -> Dict[str, float]:
    """Self seconds per span name under ``root``, plus ``other`` (the
    root's own self time).  The values add up to the root's duration."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for span in descendants(spans, root.id):
        out[span.name] = out.get(span.name, 0.0) + selfs[span.id]
    out["other"] = selfs[root.id]
    return out


def check_breakdown(breakdown: Dict[str, float], phases: Tuple[str, ...],
                    wall_s: float, tolerance: float) -> Optional[str]:
    """Check that ``phases`` plus ``other`` add up to ``wall_s``.

    Returns an error message, or None when the sum is within
    ``tolerance`` (a share of ``wall_s``).  A span name missing from
    ``phases`` leaves its time out of the sum and fails the check.
    """
    total = sum(breakdown.get(name, 0.0) for name in phases) \
        + breakdown.get("other", 0.0)
    if abs(total - wall_s) > tolerance * wall_s:
        missing = sorted(set(breakdown) - set(phases) - {"other"})
        return (f"phase breakdown sums to {total:.4f} s, wall is "
                f"{wall_s:.4f} s (untracked phases: {missing})")
    return None


# ---------------------------------------------------------- layer hooks
def _nbytes(_self: Any, x: Any, *_args: Any, **_kwargs: Any) -> float:
    return float(getattr(x, "nbytes", 0))


def _model_param(scrubber: Any, name: str, *_args: Any) -> Tuple[int, str]:
    return (id(scrubber.model), name)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer.

    The same set is installed on every workload, so a layer a workload
    never calls reads as a measured zero.
    """
    from repro.experiments import common
    from repro.experiments import table3_weight_act_quant as table3
    from repro.formats.base import AdaptiveQuantizer, Quantizer
    from repro import nn
    from repro.nn.models import ResNet, Seq2Seq, Transformer
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.resilience import campaign
    from repro.resilience.engine import TrialEngine
    from repro.resilience.scrub import WeightScrubber
    from repro.serve import engine

    # campaign / table3 phases (group "phase", rooted at the run span)
    tracer.wrap(campaign, "trained_model", "load", "phase")
    tracer.wrap(TrialEngine, "faulty_tensor", "inject", "phase",
                key=lambda _engine, target, *_a, **_k: target)
    tracer.wrap(nn, "scan_parameters", "scan", "phase")
    tracer.wrap(table3, "trained_model", "load", "phase")
    tracer.wrap_context(table3, "calibrate", "calibrate", "phase")
    tracer.wrap(table3, "qar_retrain", "qar", "phase")
    for name in common.MODEL_NAMES:
        tracer.wrap(common.get_bundle(name), "evaluate", "evaluate", "phase")
    tracer.wrap(campaign, "_probe_logits", "probe", "phase")

    # repro.nn layers
    for model in (Transformer, Seq2Seq, ResNet):
        tracer.wrap(model, "forward", "forward", "nn")
    tracer.wrap(Transformer, "encode", "encode", "nn")
    tracer.wrap(Seq2Seq, "encode", "encode", "nn")
    tracer.wrap(Transformer, "decode_step", "decode_step", "nn")
    tracer.wrap(Transformer, "greedy_decode", "greedy_decode.transformer",
                "nn")
    tracer.wrap(Seq2Seq, "greedy_decode", "greedy_decode.seq2seq", "nn")
    tracer.wrap(Tensor, "backward", "backward", "nn")
    tracer.wrap(Adam, "step", "optim_step", "nn")

    # repro.formats quantizers (nested calls count once: top level only)
    tracer.wrap(Quantizer, "quantize", "quantize", "formats", size=_nbytes)
    tracer.wrap(AdaptiveQuantizer, "quantize", "quantize", "formats",
                size=_nbytes)
    tracer.wrap(AdaptiveQuantizer, "quantize_with_params", "quantize",
                "formats", size=_nbytes)

    # repro.resilience.scrub
    tracer.wrap(WeightScrubber, "scrub", "scrub", "scrub")
    tracer.wrap(WeightScrubber, "restore", "restore", "scrub",
                key=_model_param)

    # repro.serve batching, as the engine calls it; requests the engine
    # builds inside submit() are tagged with the generator's arrival id
    arrival = tracer.arrival

    class TaggedRequest(engine.Request):
        def __post_init__(self) -> None:
            super().__post_init__()
            self.arrival = getattr(arrival, "id", None)

    tracer.patch(engine, "Request", TaggedRequest)
    tracer.wrap(engine, "run_microbatch", "batch", "serve",
                key=lambda _entry, requests: [
                    getattr(r, "arrival", None) for r in requests],
                size=lambda _entry, requests: float(len(requests)))

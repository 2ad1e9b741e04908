"""Thread-safe labeled metrics: counters, gauges, histograms.

One :class:`Registry` holds every metric family the process exposes.
The design targets the serving hot path:

* **Lock striping** — each family is pinned to one of the registry's
  lock stripes by a CRC of its name, so concurrent mutation of
  unrelated metrics never contends on a single global lock while a
  :meth:`Registry.snapshot` still observes each family consistently.
* **Near-zero disabled path** — every mutation starts with one
  attribute read and a branch on the registry's ``enabled`` flag; with
  the registry disabled no lock is taken and no state changes, so
  instrumented code costs a few dozen nanoseconds per call site
  (gated <2% on the serve benchmark by
  ``benchmarks/test_serve_throughput.py``).
* **Fixed bucket schemas** — histograms declare their bucket bounds at
  family creation (:data:`LATENCY_BUCKETS` / :data:`SIZE_BUCKETS` /
  :data:`WIDE_SECONDS_BUCKETS` or custom), so two processes exporting
  the same family are always aggregatable.
* **Pull collectors** — :meth:`Registry.register_collector` hooks run
  before every snapshot/export and copy external counter surfaces
  (codebook LRU, decode-LUT cache, ...) into gauges, which is how the
  legacy ad-hoc stats dicts stay reachable from one
  ``repro.obs.snapshot()``.

Family creation is idempotent: asking for an existing name with the
same type/labels/buckets returns the existing family; a conflicting
re-declaration raises :class:`MetricError`.
"""

from __future__ import annotations

import bisect
import re
import threading
import zlib
from collections import OrderedDict
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricError", "Registry",
    "LATENCY_BUCKETS", "SIZE_BUCKETS", "WIDE_SECONDS_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Sub-millisecond to 10 s: request latency, queue wait, scrub passes.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Powers of two for batch sizes and other small cardinalities.
SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Seconds up to minutes: campaign cells, model builds.
WIDE_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0)


class MetricError(ValueError):
    """Bad metric/label name, negative counter step, or a family
    re-declared with a conflicting type/label/bucket signature."""


class _Child:
    """One (family, label-values) time series."""

    __slots__ = ("_registry", "_lock", "label_values")

    def __init__(self, family: "_Family",
                 label_values: Tuple[str, ...]) -> None:
        self._registry = family._registry
        self._lock = family._lock
        self.label_values = label_values


class _CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, family: "_Family",
                 label_values: Tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry._enabled:
            return
        if amount < 0:
            raise MetricError(f"counters only go up (inc {amount})")
        with self._lock:
            self.value += amount


class _GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, family: "_Family",
                 label_values: Tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._registry._enabled:
            return
        with self._lock:
            self.value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is higher (high-water mark)."""
        if not self._registry._enabled:
            return
        with self._lock:
            if value > self.value:
                self.value = float(value)

    def inc(self, amount: float = 1.0) -> float:
        """Add ``amount``; returns the value this call left behind."""
        if not self._registry._enabled:
            return self.value
        with self._lock:
            self.value += amount
            return self.value

    def dec(self, amount: float = 1.0) -> float:
        return self.inc(-amount)


class _HistogramChild(_Child):
    __slots__ = ("_uppers", "counts", "sum", "count")

    def __init__(self, family: "Histogram",
                 label_values: Tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self._uppers = family.buckets
        self.counts = [0] * (len(self._uppers) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._registry._enabled:
            return
        idx = bisect.bisect_left(self._uppers, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


class _Family:
    """Base class for a named metric family holding labeled children."""

    kind = "untyped"
    _child_cls: type = _Child

    def __init__(self, registry: "Registry", name: str, help: str,
                 labelnames: Tuple[str, ...]) -> None:
        self._registry = registry
        self._lock = registry._stripe(name)
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: "OrderedDict[Tuple[str, ...], _Child]" = \
            OrderedDict()
        if not labelnames:
            self._default: Optional[_Child] = self._child_for(())
        else:
            self._default = None

    def _child_for(self, values: Tuple[str, ...]) -> _Child:
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._child_cls(self, values)
                self._children[values] = child
            return child

    def labels(self, **label_values: str) -> Any:
        """The child time series for these label values (created lazily)."""
        if tuple(sorted(label_values)) != tuple(sorted(self.labelnames)):
            raise MetricError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(label_values))}")
        values = tuple(str(label_values[name]) for name in self.labelnames)
        return self._child_for(values)

    def children(self) -> List[Tuple[Dict[str, str], _Child]]:
        with self._lock:
            items = list(self._children.items())
        return [(dict(zip(self.labelnames, values)), child)
                for values, child in items]

    def _signature(self) -> Tuple:
        return (self.kind, self.labelnames)

    def _reset(self) -> None:
        with self._lock:
            if self.labelnames:
                self._children.clear()
            else:
                self._children.clear()
                self._default = None
        if not self.labelnames:
            self._default = self._child_for(())

    def to_dict(self) -> Dict[str, Any]:
        samples = []
        for labels, child in self.children():
            samples.append(dict(self._sample_dict(child), labels=labels))
        return {"type": self.kind, "help": self.help,
                "labels": list(self.labelnames), "samples": samples}

    def _sample_dict(self, child: _Child) -> Dict[str, Any]:
        raise NotImplementedError


class Counter(_Family):
    """Monotonically increasing count (resets only with the process)."""

    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    @property
    def value(self) -> float:
        return self._default.value if self._default is not None else 0.0

    def _sample_dict(self, child: _Child) -> Dict[str, Any]:
        return {"value": child.value}


class Gauge(_Family):
    """A value that can go up and down (depths, states, cache sizes)."""

    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float) -> None:
        self._default.set(value)

    def set_max(self, value: float) -> None:
        self._default.set_max(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    @property
    def value(self) -> float:
        return self._default.value if self._default is not None else 0.0

    def _sample_dict(self, child: _Child) -> Dict[str, Any]:
        return {"value": child.value}


class Histogram(_Family):
    """Cumulative-bucket histogram with a fixed bound schema."""

    kind = "histogram"
    _child_cls = _HistogramChild

    def __init__(self, registry: "Registry", name: str, help: str,
                 labelnames: Tuple[str, ...],
                 buckets: Sequence[float]) -> None:
        uppers = tuple(float(b) for b in buckets)
        if not uppers:
            raise MetricError(f"{name}: histogram needs >= 1 bucket bound")
        if any(b >= a for b, a in zip(uppers, uppers[1:])):
            raise MetricError(f"{name}: bucket bounds must increase "
                              f"strictly: {uppers}")
        self.buckets = uppers
        super().__init__(registry, name, help, labelnames)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    def _signature(self) -> Tuple:
        return (self.kind, self.labelnames, self.buckets)

    def _sample_dict(self, child: _Child) -> Dict[str, Any]:
        return {"count": child.count, "sum": child.sum,
                "counts": list(child.counts)}

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        out["buckets"] = list(self.buckets)
        return out


class Registry:
    """A process's metric families plus pull collectors.

    Parameters
    ----------
    enabled:
        Initial state of the record path.  Disabled registries accept
        every call but mutate nothing (the near-zero path).
    stripes:
        Number of locks families are striped over.
    """

    def __init__(self, enabled: bool = True, stripes: int = 16) -> None:
        if stripes < 1:
            raise MetricError(f"stripes must be >= 1, got {stripes}")
        self._locks = [threading.Lock() for _ in range(stripes)]
        self._meta_lock = threading.Lock()
        self._families: "OrderedDict[str, _Family]" = OrderedDict()
        self._collectors: List[Callable[["Registry"], None]] = []
        self._enabled = bool(enabled)
        self.collector_errors = 0

    # ----------------------------------------------------------- enabling
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # ----------------------------------------------------------- plumbing
    def _stripe(self, name: str) -> threading.Lock:
        return self._locks[zlib.crc32(name.encode()) % len(self._locks)]

    def _family(self, cls: type, name: str, help: str,
                labelnames: Sequence[str],
                **extra: Any) -> _Family:
        if not _NAME_RE.match(name):
            raise MetricError(f"bad metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise MetricError(f"bad label name {label!r} on {name}")
        with self._meta_lock:
            existing = self._families.get(name)
            if existing is not None:
                probe = (cls.kind, labelnames)
                if cls is Histogram:
                    probe = probe + (tuple(float(b)
                                           for b in extra["buckets"]),)
                if existing._signature() != probe:
                    raise MetricError(
                        f"{name} already registered as {existing._signature()}"
                        f", re-declared as {probe}")
                return existing
            family = cls(self, name, help, labelnames, **extra)
            self._families[name] = family
            return family

    # ------------------------------------------------------------ factory
    def counter(self, name: str, help: str,
                labelnames: Sequence[str] = ()) -> Counter:
        return self._family(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str,
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._family(Histogram, name, help, labelnames,
                            buckets=buckets)

    # --------------------------------------------------------- collectors
    def register_collector(self,
                           collector: Callable[["Registry"], None]) -> None:
        """Run ``collector(registry)`` before every snapshot/export.

        Collectors copy external counter surfaces into gauges; a raising
        collector is counted (``collector_errors``) and skipped rather
        than breaking the snapshot.
        """
        with self._meta_lock:
            self._collectors.append(collector)

    def run_collectors(self) -> None:
        with self._meta_lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector(self)
            except Exception:
                self.collector_errors += 1

    # ------------------------------------------------------------ reading
    def families(self) -> List[_Family]:
        with self._meta_lock:
            return list(self._families.values())

    def get(self, name: str) -> Optional[_Family]:
        with self._meta_lock:
            return self._families.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every family (collectors run first)."""
        self.run_collectors()
        return {family.name: family.to_dict()
                for family in self.families()}

    def reset(self) -> None:
        """Zero every family's children (tests/benchmarks only)."""
        for family in self.families():
            family._reset()


#: Type accepted wherever a metric value may be read back.
MetricValue = Union[int, float]

"""Per-server serving metrics: a view over the :mod:`repro.obs` registry.

The paper motivates AdaptivFloat by the efficiency of *deployed*
inference (Table 4 budgets 81.2 us per inference on the accelerator);
the serving engine therefore measures itself the way a deployment
would: request/batch counters, queue-depth high-water marks, a
batch-size histogram (how well the scheduler coalesces), and latency
percentiles split into queue wait vs. total.

The process-wide registry is the only store of these counts.  Each
:class:`ServerStats` takes a process-unique ``server`` id, resolves its
children of the ``repro_serve_*`` families once and writes each event
once, into them; :meth:`ServerStats.snapshot` reads them back into a
JSON-safe dict (``BENCH_serve.json`` embeds it verbatim), with this
server's series under ``"obs"``.  Only the :class:`LatencyRecorder`
rings, the exact windowed p50/p95/p99 that histogram buckets can only
bound, live outside the registry, under one lock.  With the registry
disabled (``REPRO_OBS=0`` or :func:`repro.obs.disabled`) every count in
the snapshot reads 0 and the degradation state ``"ok"``.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional

import numpy as np

from .. import obs
from ..obs.registry import SIZE_BUCKETS

__all__ = ["LatencyRecorder", "ServerStats"]

#: Latency samples kept per recorder; enough for every benchmark in the
#: repo while bounding memory for long-running servers (beyond the cap,
#: new samples overwrite the oldest — percentile estimates stay recent).
_SAMPLE_CAP = 100_000

# ---- the per-server families, every one labeled by ``server`` ----------
_REQUESTS = obs.counter(
    "repro_serve_requests_total", "Request lifecycle events by server.",
    ("server", "event"))
_QUEUE_DEPTH = obs.gauge(
    "repro_serve_queue_depth", "In-flight requests (submitted, not yet "
    "resolved).", ("server",))
_QUEUE_PEAK = obs.gauge(
    "repro_serve_queue_depth_peak", "High-water mark of the queue depth.",
    ("server",))
_BATCHES = obs.counter(
    "repro_serve_batches_total", "Micro-batches dispatched by the "
    "scheduler, by exact batch size.", ("server", "size"))
_BATCH_SIZE = obs.histogram(
    "repro_serve_batch_size", "Requests coalesced per dispatched "
    "micro-batch.", ("server",), buckets=SIZE_BUCKETS)
_LATENCY = obs.histogram(
    "repro_serve_latency_seconds", "Total request residence time "
    "(submit to resolve), successful requests only.", ("server",))
_QUEUE_WAIT = obs.histogram(
    "repro_serve_queue_wait_seconds", "Submit-to-dispatch wait inside "
    "the scheduler, successful requests only.", ("server",))
_SCRUB_PASSES = obs.counter(
    "repro_serve_scrubs_total", "Scrub passes observed by serving "
    "(periodic daemon + on-demand).", ("server",))
_SCRUB_TENSORS = obs.counter(
    "repro_serve_scrub_tensors_total", "Tensors CRC-checked by scrub "
    "passes observed by serving.", ("server",))
_SCRUB_SECONDS = obs.histogram(
    "repro_serve_scrub_seconds", "Duration of scrub passes observed by "
    "serving.", ("server",))
_FAULTS = obs.counter(
    "repro_serve_faults_total", "Detected weight/numeric faults by "
    "detector kind.", ("server", "kind"))
_RETRIES = obs.counter(
    "repro_serve_retries_total", "Micro-batch retry attempts after a "
    "detected-and-repaired fault.", ("server",))
_RESTORES = obs.counter(
    "repro_serve_restores_total", "Tensors repaired from golden streams, "
    "as observed by serving.", ("server",))
_RECOVERED = obs.counter(
    "repro_serve_recovered_batches_total", "Micro-batches that survived "
    "a fault through retry.", ("server",))
_UNCORRECTABLE = obs.counter(
    "repro_serve_uncorrectable_total", "Faults the scrubber could not "
    "repair (corrupted golden or retries exhausted).", ("server",))
_DEGRADATION = obs.gauge(
    "repro_serve_degradation_state", "Circuit-breaker degradation: "
    "0=ok, 1=half-open, 2=open.", ("server",))

_FAMILIES = (_REQUESTS, _QUEUE_DEPTH, _QUEUE_PEAK, _BATCHES, _BATCH_SIZE,
             _LATENCY, _QUEUE_WAIT, _SCRUB_PASSES, _SCRUB_TENSORS,
             _SCRUB_SECONDS, _FAULTS, _RETRIES, _RESTORES, _RECOVERED,
             _UNCORRECTABLE, _DEGRADATION)

#: Breaker state -> numeric gauge level, and the level read back.
_DEGRADATION_LEVELS = {"ok": 0.0, "closed": 0.0, "half-open": 1.0,
                       "open": 2.0}
_DEGRADATION_STATES = {0.0: "ok", 1.0: "half-open", 2.0: "open"}

_SERVER_IDS = itertools.count()


class LatencyRecorder:
    """Ring buffer of latency samples with percentile summaries."""

    def __init__(self, cap: int = _SAMPLE_CAP) -> None:
        # cap=0 used to slip through and blow up later inside record()
        # with a ZeroDivisionError on the ring modulo; reject it here.
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self._cap = cap
        self._samples: List[float] = []
        self._next = 0
        self.count = 0
        self.total = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self._samples) < self._cap:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self._cap

    def summary(self) -> Optional[Dict[str, float]]:
        """Windowed ``{mean, p50, p95, p99, max}`` in ms, or None if empty.

        Every statistic describes the *same* population: the (up to)
        ``cap`` most recent samples in the ring.  Mixing the lifetime
        mean with windowed percentiles (as an earlier version did) made
        the summary internally inconsistent once the ring wrapped — a
        latency regression would move the percentiles while a long calm
        history pinned the mean.  The lifetime request count survives
        under the separate ``count_lifetime`` key; ``window`` is the
        sample count the other fields were computed over.  A 1-sample
        window is well-defined: every percentile equals the sample.
        """
        if not self._samples:
            return None
        arr = np.asarray(self._samples, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        return {
            "mean_ms": round(float(arr.mean()) * 1e3, 4),
            "p50_ms": round(float(p50) * 1e3, 4),
            "p95_ms": round(float(p95) * 1e3, 4),
            "p99_ms": round(float(p99) * 1e3, 4),
            "max_ms": round(float(arr.max()) * 1e3, 4),
            "window": int(arr.size),
            "count_lifetime": self.count,
        }


class ServerStats:
    """Counters of one :class:`~repro.serve.InferenceServer`, kept in the
    registry under this instance's ``server`` label.

    ``record_*`` runs on client, scheduler and worker threads; each
    child takes its stripe lock, so no count is lost, but a
    :meth:`snapshot` taken mid-flight reads each count at its own time.
    """

    def __init__(self) -> None:
        self.server_id = str(next(_SERVER_IDS))
        me = {"server": self.server_id}

        def event(name: str) -> Any:
            return _REQUESTS.labels(event=name, **me)

        self._submitted = event("submitted")
        self._completed = event("completed")
        self._failed = event("failed")
        self._rejected = event("rejected")
        self._deadline = event("deadline_expired")
        self._degraded = event("degraded_rejected")
        self._depth = _QUEUE_DEPTH.labels(**me)
        self._peak = _QUEUE_PEAK.labels(**me)
        self._batches: Dict[int, Any] = {}  # size -> batches_total child
        self._batch_size = _BATCH_SIZE.labels(**me)
        self._latency = _LATENCY.labels(**me)
        self._queue_wait = _QUEUE_WAIT.labels(**me)
        self._scrubs = _SCRUB_PASSES.labels(**me)
        self._scrub_tensors = _SCRUB_TENSORS.labels(**me)
        self._scrub_seconds = _SCRUB_SECONDS.labels(**me)
        self._retries = _RETRIES.labels(**me)
        self._restores = _RESTORES.labels(**me)
        self._recovered = _RECOVERED.labels(**me)
        self._uncorrectable = _UNCORRECTABLE.labels(**me)
        self._degradation = _DEGRADATION.labels(**me)
        self._lock = threading.Lock()       # guards the two rings
        self.latency = LatencyRecorder()
        self.queue_wait = LatencyRecorder()

    # ------------------------------------------------------------ mutation
    def record_submit(self) -> None:
        self._submitted.inc()
        self._peak.set_max(self._depth.inc())

    def record_reject(self) -> None:
        self._rejected.inc()

    def record_batch(self, size: int) -> None:
        child = self._batches.get(size)
        if child is None:               # labels() costs a few us per call
            child = self._batches[size] = _BATCHES.labels(
                server=self.server_id, size=size)
        child.inc()
        self._batch_size.observe(size)

    def record_done(self, latency_s: float, queue_wait_s: float,
                    failed: bool = False) -> None:
        self._depth.dec()
        if failed:
            self._failed.inc()
            return
        self._completed.inc()
        self._latency.observe(latency_s)
        self._queue_wait.observe(queue_wait_s)
        with self._lock:
            self.latency.record(latency_s)
            self.queue_wait.record(queue_wait_s)

    # -------------------------------------------------------- resilience
    def record_scrub(self, checked: int, restored: int, uncorrectable: int,
                     duration_s: float) -> None:
        self._scrubs.inc()
        self._scrub_tensors.inc(checked)
        self._scrub_seconds.observe(duration_s)
        if restored:
            self._restores.inc(restored)
        if uncorrectable:
            self._uncorrectable.inc(uncorrectable)

    def record_fault(self, kind: str) -> None:
        _FAULTS.labels(server=self.server_id, kind=kind).inc()

    def record_retry(self) -> None:
        self._retries.inc()

    def record_recovered(self) -> None:
        self._recovered.inc()

    def record_uncorrectable(self) -> None:
        self._uncorrectable.inc()

    def record_deadline(self) -> None:
        self._deadline.inc()

    def record_degraded_rejection(self) -> None:
        self._degraded.inc()

    def set_degradation(self, state: str) -> None:
        self._degradation.set(_DEGRADATION_LEVELS.get(state, 2.0))

    # ------------------------------------------------------------- reading
    @property
    def rejected(self) -> int:
        return int(self._rejected.value)

    def _mine(self, family: Any, label: str) -> Dict[str, int]:
        """This server's non-zero counts of ``family``, keyed by ``label``."""
        return {labels[label]: int(child.value)
                for labels, child in family.children()
                if labels["server"] == self.server_id and child.value}

    def _series(self, family: Any) -> Dict[str, Any]:
        dump = family.to_dict()
        dump["samples"] = [sample for sample in dump["samples"]
                           if sample["labels"]["server"] == self.server_id]
        return dump

    def snapshot(self) -> Dict:
        """JSON-safe summary of everything recorded so far.

        The ``"obs"`` key carries this server's series of every
        ``repro_serve_*`` family it writes, in the
        :func:`repro.obs.snapshot` layout; the full registry dump is
        :func:`repro.obs.snapshot` itself.
        """
        sizes = {int(size): count for size, count
                 in self._mine(_BATCHES, "size").items()}
        batches = sum(sizes.values())
        mean_batch = (sum(size * count for size, count in sizes.items())
                      / batches) if batches else 0.0
        fault_kinds = dict(sorted(self._mine(_FAULTS, "kind").items()))
        with self._lock:
            latency = self.latency.summary()
            queue_wait = self.queue_wait.summary()
        return {
            "requests": {
                "submitted": int(self._submitted.value),
                "completed": int(self._completed.value),
                "failed": int(self._failed.value),
                "rejected": self.rejected,
            },
            "queue": {
                "depth": int(self._depth.value),
                "depth_peak": int(self._peak.value),
            },
            "batches": {
                "count": batches,
                "mean_size": round(mean_batch, 3),
                "histogram": {str(size): sizes[size]
                              for size in sorted(sizes)},
            },
            "latency": latency,
            "queue_wait": queue_wait,
            "resilience": {
                "scrubs": int(self._scrubs.value),
                "scrub_tensors": int(self._scrub_tensors.value),
                "scrub_time_s": round(self._scrub_seconds.sum, 6),
                "faults_detected": sum(fault_kinds.values()),
                "fault_kinds": fault_kinds,
                "retries": int(self._retries.value),
                "restores": int(self._restores.value),
                "recovered_batches": int(self._recovered.value),
                "uncorrectable": int(self._uncorrectable.value),
                "deadline_expired": int(self._deadline.value),
                "degraded_rejections": int(self._degraded.value),
                "degradation": _DEGRADATION_STATES.get(
                    self._degradation.value, "open"),
            },
            "obs": {family.name: self._series(family)
                    for family in _FAMILIES},
        }

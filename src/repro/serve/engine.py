"""The inference server: bounded ingress, micro-batch scheduler, workers.

Request lifecycle::

    submit() ──> ingress queue ──> scheduler ──> bucket pends ──┐
                (backpressure)     (coalesce)                   │ dispatch
                                                                v
    future.result() <── worker demux <── run_microbatch <── batch queue

* **Backpressure** — at most ``max_queue`` requests may be in flight
  (submitted, not yet resolved).  ``submit(block=True)`` waits for a
  slot; ``block=False`` raises :class:`ServerSaturated` immediately.
* **Coalescing** — the scheduler thread groups compatible requests
  (same :func:`~repro.serve.batching.bucket_key`) and dispatches a
  micro-batch when it reaches ``max_batch`` or when its oldest request
  has waited ``max_wait_ms`` — the classic throughput/latency dial.
* **Workers** — ``workers`` threads run batches through the warm models
  from the shared :class:`~repro.serve.pool.ModelPool` and resolve the
  per-request futures.  Autodiff mode flags are thread-local, so
  concurrent workers cannot race on each other's ``no_grad`` scopes.
* **Drain/shutdown** — :meth:`InferenceServer.drain` blocks until every
  accepted request has resolved; :meth:`InferenceServer.shutdown`
  (also the context-manager exit) optionally drains, then stops the
  threads.  Requests submitted after shutdown raise
  :class:`ServerClosed`.
"""

from __future__ import annotations

import collections
import queue
import threading
from concurrent.futures import Future
from typing import Any, Deque, Dict, Hashable, List, Optional, Tuple

import numpy as np

from .. import obs
from ..nn import Sanitizer, deterministic_matmul
from ..obs import clock
from .batching import Request, bucket_key, run_microbatch
from .pool import ModelPool
from .resilient import PROBE_KINDS, CircuitBreaker, ResilienceConfig
from .stats import ServerStats

__all__ = ["InferenceServer", "ServeError", "ServerClosed",
           "ServerSaturated", "ServerDegraded", "DeadlineExceeded"]


class ServeError(RuntimeError):
    """Base class for serving-engine errors."""


class ServerClosed(ServeError):
    """Submit after shutdown (or before start)."""


class ServerSaturated(ServeError):
    """Bounded queue full and the caller declined to wait."""


class ServerDegraded(ServeError):
    """An uncorrectable fault: the scrubber could not repair the model
    (or retries were exhausted), or the circuit breaker is shedding
    load after repeated uncorrectable faults."""


class DeadlineExceeded(ServeError):
    """The request's deadline expired before a worker could serve it."""


#: Exceptions caught by the engine's broad worker/scheduler handlers.
#: Most are *routed* into the request's future rather than dropped, but
#: every one disappears from its own thread — this counter is the audit
#: trail.  ``site`` names the handler, ``exc`` the exception type.
_SWALLOWED = obs.counter(
    "repro_serve_swallowed_exceptions_total",
    "Exceptions caught by broad serve/resilience handlers, by handler "
    "site and exception type.", ("site", "exc"))


def _count_swallowed(site: str, error: BaseException) -> None:
    _SWALLOWED.labels(site=site, exc=type(error).__name__).inc()


#: The policy of a server built with ``resilience=None``: one attempt
#: per batch, no scrubbing, no probe, no deadline and no breaker.
_PLAIN = ResilienceConfig(scrub_interval_s=None, verify_batches=False,
                          probe=False)


class _Pending:
    """A request riding through the engine with its timing and future.

    All timestamps (``t_submit``, ``t_dispatch``, ``deadline``) are
    readings of the single :mod:`repro.obs.clock` — the scheduler's
    flush arithmetic and ``drain()``'s timeout compare against the same
    clock, so absolute times never cross clock domains.  (An earlier
    version stamped submit times with ``time.perf_counter()`` while
    ``drain()`` and the circuit breaker read ``time.monotonic()``;
    the two have unrelated epochs, which made any future mixing of
    those absolutes silently wrong.)
    """

    __slots__ = ("request", "future", "t_submit", "t_dispatch", "deadline",
                 "trace_id")

    def __init__(self, request: Request,
                 deadline_s: Optional[float] = None) -> None:
        self.request = request
        self.future: "Future[Any]" = Future()
        self.t_submit = clock.now()
        self.t_dispatch = 0.0
        self.trace_id = obs.new_trace_id()
        #: absolute obs-clock time after which the request fails with
        #: DeadlineExceeded instead of riding further retries.
        self.deadline = (None if deadline_s is None
                         else self.t_submit + deadline_s)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


_STOP = object()  # worker sentinel


class InferenceServer:
    """Dynamic micro-batching server over the quantized model zoo.

    Parameters
    ----------
    pool:
        The shared :class:`ModelPool` (models resolve lazily on first
        request for each family).
    max_batch:
        Largest micro-batch the scheduler will form.
    max_wait_ms:
        Longest a request may sit in a partial bucket before the
        scheduler flushes it anyway (the latency bound at low load).
    max_queue:
        In-flight request bound enforced at ``submit`` (backpressure).
    workers:
        Worker threads running batches (one is usually right for the
        NumPy models: BLAS already uses the cores, and a single worker
        maximizes coalescing).
    length_bucket:
        Source-length granule for translate batching
        (:func:`~repro.serve.batching.bucket_key`).
    deterministic:
        Run worker decodes under ``deterministic_matmul`` (the mode
        flags are thread-local, so an equivalence test's context on the
        client thread would not reach the workers otherwise).  Slower;
        meant for the token-identity checks, not production serving.
    resilience:
        A :class:`~repro.serve.resilient.ResilienceConfig` enables the
        self-healing path: golden-copy scrubbing of the pooled models
        (periodic daemon + per-batch CRC verify), a Sanitizer probe
        quarantining numerically-faulty batches, bounded-backoff batch
        retry after repair, per-request deadlines, and a circuit
        breaker shedding load with :class:`ServerDegraded` after
        repeated uncorrectable faults.  ``None`` (default) runs each
        batch once, with no scrubber, probe, deadline or breaker.
    metrics_port:
        When not ``None``, start a :class:`~repro.obs.MetricsServer`
        exposing the process metrics registry over HTTP (``/metrics``
        Prometheus text, ``/metrics.json``) for the server's lifetime;
        ``0`` binds an ephemeral port (read it back from
        ``server.metrics.url``).  The endpoint closes on shutdown.
    """

    def __init__(self, pool: Optional[ModelPool] = None, *,
                 max_batch: int = 16, max_wait_ms: float = 2.0,
                 max_queue: int = 256, workers: int = 1,
                 length_bucket: int = 8, deterministic: bool = False,
                 resilience: Optional[ResilienceConfig] = None,
                 metrics_port: Optional[int] = None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if length_bucket < 1:
            # bucket_key rejects this per request; validating here keeps
            # a bad dial from poisoning the scheduler at runtime.
            raise ValueError(
                f"length_bucket must be >= 1, got {length_bucket}")
        self.pool = pool or ModelPool()
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.max_queue = max_queue
        self.length_bucket = length_bucket
        self.deterministic = deterministic
        self.resilience = resilience
        self._policy = resilience or _PLAIN
        self._breaker: Optional[CircuitBreaker] = None
        self._scrub_thread: Optional[threading.Thread] = None
        self._scrub_stop = threading.Event()
        if resilience is not None:
            self._breaker = CircuitBreaker(resilience.breaker_threshold,
                                           resilience.breaker_reset_s)
            self.pool.enable_scrubbing()
        self.stats = ServerStats()
        self.metrics: Optional[obs.MetricsServer] = None
        if metrics_port is not None:
            self.metrics = obs.MetricsServer(obs.REGISTRY,
                                             port=metrics_port)
        self._slots = threading.BoundedSemaphore(max_queue)
        self._ingress: "queue.Queue[Optional[_Pending]]" = queue.Queue()
        self._batches: "queue.Queue[Any]" = queue.Queue()
        self._buckets: Dict[Hashable, Deque[_Pending]] = \
            collections.OrderedDict()
        self._inflight = 0
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._closed = False
        self._started = False
        self._scheduler: Optional[threading.Thread] = None
        self._workers: List[threading.Thread] = [
            threading.Thread(target=self._worker_loop,
                             name=f"serve-worker-{i}", daemon=True)
            for i in range(workers)]

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "InferenceServer":
        if self._started:
            return self
        self._started = True
        self._scheduler = threading.Thread(target=self._scheduler_loop,
                                           name="serve-scheduler",
                                           daemon=True)
        self._scheduler.start()
        for worker in self._workers:
            worker.start()
        if self._policy.scrub_interval_s is not None:
            self._scrub_thread = threading.Thread(
                target=self._scrub_loop, name="serve-scrubber", daemon=True)
            self._scrub_thread.start()
        return self

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, *exc) -> None:
        self.shutdown(drain=exc_type is None)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted request has resolved.

        Returns False if ``timeout`` elapsed with work still in flight.
        """
        deadline = None if timeout is None else clock.now() + timeout
        with self._idle:
            while self._inflight:
                remaining = None if deadline is None \
                    else deadline - clock.now()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop accepting requests, optionally drain, stop the threads.

        With ``drain=False`` requests still queued or batched are failed
        with :class:`ServerClosed` rather than silently dropped.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        if not self._started:
            if self.metrics is not None:
                self.metrics.close()
            return
        if drain:
            self.drain(timeout)
        if self.metrics is not None:
            self.metrics.close()
        self._scrub_stop.set()
        self._ingress.put(None)            # wake + stop the scheduler
        self._scheduler.join(timeout=30.0)
        for _ in self._workers:
            self._batches.put(_STOP)
        for worker in self._workers:
            worker.join(timeout=30.0)
        if self._scrub_thread is not None:
            self._scrub_thread.join(timeout=30.0)
        if not drain:
            self._fail_remaining()

    def _fail_remaining(self) -> None:
        error = ServerClosed("server shut down before this request ran")
        leftovers: List[_Pending] = []
        with self._state_lock:
            for pends in self._buckets.values():
                leftovers.extend(pends)
            self._buckets.clear()
        while True:
            try:
                item = self._ingress.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                leftovers.append(item)
        while True:
            try:
                job = self._batches.get_nowait()
            except queue.Empty:
                break
            if job is not _STOP:
                leftovers.extend(job[1])
        for pending in leftovers:
            self._resolve(pending, error=error)

    # --------------------------------------------------------------- submit
    def submit(self, kind: str, payload: Any, *,
               max_len: Optional[int] = None,
               beam_size: Optional[int] = None, block: bool = True,
               timeout: Optional[float] = None,
               deadline_s: Optional[float] = None) -> "Future[Any]":
        """Enqueue one request; returns a ``concurrent.futures.Future``.

        The future resolves to a token list (translate/transcribe) or an
        ``int`` label (classify).  Raises :class:`ServerClosed` after
        shutdown, :class:`ServerSaturated` when the in-flight bound is
        hit and ``block`` is False (or ``timeout`` elapses), and
        :class:`ServerDegraded` while the resilience circuit breaker is
        shedding load.  ``deadline_s`` bounds this request's total
        residence time (default: the resilience config's
        ``request_deadline_s``; expired requests resolve with
        :class:`DeadlineExceeded`).
        """
        if not self._started:
            raise ServerClosed("server not started; use start() or a "
                               "'with' block")
        if deadline_s is None:
            deadline_s = self._policy.request_deadline_s
        request = Request(kind, payload, max_len=max_len,
                          beam_size=beam_size)
        if self._closed:
            raise ServerClosed("server is shut down")
        if self._breaker is not None and not self._breaker.allow():
            # Shed before taking a slot: a degraded server must not let
            # doomed requests consume backpressure capacity.
            self.stats.record_degraded_rejection()
            raise ServerDegraded(
                "circuit breaker open after repeated uncorrectable "
                "faults; retry after the breaker's reset window")
        if not self._slots.acquire(blocking=block, timeout=timeout):
            self.stats.record_reject()
            raise ServerSaturated(
                f"{self.max_queue} requests already in flight")
        with self._state_lock:
            if self._closed:
                self._slots.release()
                raise ServerClosed("server is shut down")
            self._inflight += 1
        pending = _Pending(request, deadline_s=deadline_s)
        self.stats.record_submit()
        self._ingress.put(pending)
        return pending.future

    # ------------------------------------------------------------ scheduler
    def _scheduler_loop(self) -> None:
        max_wait_s = self.max_wait_ms / 1e3
        while True:
            timeout = self._next_flush_in(max_wait_s)
            try:
                item = self._ingress.get(timeout=timeout)
            except queue.Empty:
                item = False                      # flush tick
            if item is None:                      # shutdown
                self._flush_all()
                return
            if item is not False:
                try:
                    key = bucket_key(item.request, self.length_bucket)
                except BaseException as error:
                    # A malformed request must fail *its own* future —
                    # an uncaught raise here would kill the scheduler,
                    # leak the request's queue-depth slot, and hang
                    # every later drain().
                    _count_swallowed("scheduler.bucket_key", error)
                    self._resolve(item, error=error)
                    key = None
                if key is not None:
                    with self._state_lock:
                        self._buckets.setdefault(
                            key, collections.deque()).append(item)
            self._dispatch_ready(max_wait_s)

    def _next_flush_in(self, max_wait_s: float) -> Optional[float]:
        """Seconds until the oldest pending bucket must flush."""
        now = clock.now()
        with self._state_lock:
            oldest = min((pends[0].t_submit for pends
                          in self._buckets.values() if pends),
                         default=None)
        if oldest is None:
            return None
        return max(oldest + max_wait_s - now, 0.0) or 1e-4

    def _dispatch_ready(self, max_wait_s: float) -> None:
        now = clock.now()
        jobs: List[Tuple[Hashable, List[_Pending]]] = []
        with self._state_lock:
            for key in list(self._buckets):
                pends = self._buckets[key]
                while len(pends) >= self.max_batch:
                    jobs.append((key, [pends.popleft()
                                       for _ in range(self.max_batch)]))
                if pends and now - pends[0].t_submit >= max_wait_s:
                    jobs.append((key, list(pends)))
                    pends.clear()
                if not pends:
                    del self._buckets[key]
        for job in jobs:
            self._emit(job)

    def _flush_all(self) -> None:
        with self._state_lock:
            jobs = [(key, list(pends)) for key, pends
                    in self._buckets.items() if pends]
            self._buckets.clear()
        for key, pends in jobs:
            while pends:
                self._emit((key, pends[:self.max_batch]))
                pends = pends[self.max_batch:]

    def _emit(self, job: Tuple[Hashable, List[_Pending]]) -> None:
        now = clock.now()
        for pending in job[1]:
            pending.t_dispatch = now
            obs.TRACER.record("serve.queue", pending.t_submit, now,
                              trace_id=pending.trace_id,
                              kind=pending.request.kind)
        self.stats.record_batch(len(job[1]))
        self._batches.put(job)

    # -------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        while True:
            job = self._batches.get()
            if job is _STOP:
                return
            pends = self._drop_expired(job[1])
            if pends:
                self._process_resilient(pends)

    def _run_batch(self, entry: Any, requests: List[Request]) -> List[Any]:
        if self.deterministic:
            with deterministic_matmul():
                return run_microbatch(entry, requests)
        return run_microbatch(entry, requests)

    def _drop_expired(self, pends: List[_Pending]) -> List[_Pending]:
        """Fail deadline-expired requests; return the still-live rest."""
        now = clock.now()
        live = []
        for pending in pends:
            if pending.expired(now):
                self.stats.record_deadline()
                self._resolve(pending, error=DeadlineExceeded(
                    "request deadline expired before the batch ran"))
            else:
                live.append(pending)
        return live

    # ------------------------------------------------- self-healing path
    def _probe_batch(self, entry: Any,
                     requests: List[Request]) -> Tuple[List[Any],
                                                       Optional[str]]:
        """Run the batch under a collecting Sanitizer.

        Returns ``(results, finding kind)`` where the kind is the first
        quarantine-worthy numeric finding (:data:`PROBE_KINDS`) the
        forward produced, or None for a numerically clean batch.
        """
        cfg = self._policy
        with Sanitizer(entry.model, action="collect",
                       clamp_storm=cfg.clamp_storm) as report:
            results = self._run_batch(entry, requests)
        for finding in report.findings:
            if finding.kind in PROBE_KINDS:
                return results, finding.kind
        return results, None

    def _process_resilient(self, pends: List[_Pending]) -> None:
        """Run one micro-batch with detect / repair / retry / degrade.

        Per attempt: run the batch (optionally under the Sanitizer
        probe), then CRC-verify the served model against its golden
        streams.  A detected weight fault is restored by the scrubber
        and the batch retries with exponential backoff (the restore
        bumped ``Parameter.version``, so the weight-quant memo refreshes
        itself).  The scrubber's ``generation`` counter guards the
        daemon race: if a periodic scrub repaired the weights *during*
        our forward, the post-batch CRC looks clean even though the
        forward read corrupted values — a generation change across the
        attempt forces a retry.  Uncorrectable faults (corrupted golden
        copy, retries exhausted) fail the batch with
        :class:`ServerDegraded` and feed the circuit breaker.  With
        ``resilience=None`` this runs under :data:`_PLAIN`, unscrubbed.
        """
        cfg = self._policy
        try:
            entry = self.pool.get(pends[0].request.model_name)
        except BaseException as error:
            _count_swallowed("resilient.pool_get", error)
            for pending in pends:
                self._resolve(pending, error=error)
            return
        scrubber = entry.scrubber if self.resilience is not None else None
        attempt = 0
        live = pends
        while True:
            live = self._drop_expired(live)
            if not live:
                return
            requests = [p.request for p in live]
            gen_before = scrubber.generation if scrubber is not None else 0
            fault: Optional[str] = None
            results: Optional[List[Any]] = None
            error: Optional[BaseException] = None
            t_batch = clock.now()
            try:
                # a corrupted weight may overflow the forward; the probe
                # and the scrub below detect it, so NumPy need not warn
                with np.errstate(over="ignore", invalid="ignore"):
                    if cfg.probe:
                        results, probe_kind = self._probe_batch(entry,
                                                                requests)
                        if probe_kind is not None:
                            fault = "probe"
                    else:
                        results = self._run_batch(entry, requests)
            except BaseException as err:
                _count_swallowed("resilient.attempt", err)
                error = err
            obs.TRACER.record("serve.batch", t_batch, clock.now(),
                              trace_id=live[0].trace_id, size=len(live),
                              attempt=attempt)
            report = None
            if scrubber is not None and (
                    fault is not None or error is not None
                    or cfg.verify_batches):
                report = scrubber.scrub(
                    reason="probe" if fault else
                    ("exception" if error is not None else "verify"))
                self.stats.record_scrub(
                    report.checked, len(report.restored),
                    len(report.uncorrectable), report.duration_s)
                if report.corrupted and fault is None:
                    fault = "exception" if error is not None else "crc"
            if report is not None and report.uncorrectable:
                self._fail_degraded(live, ServerDegraded(
                    "weight fault is uncorrectable (golden copy for "
                    f"{report.uncorrectable} failed its self-checksum)"))
                return
            if error is not None and fault is None:
                # A plain software error with verified-clean weights is
                # not a hardware fault; propagate it as before.
                for pending in live:
                    self._resolve(pending, error=error)
                return
            gen_now = scrubber.generation if scrubber is not None else 0
            if fault is None and gen_now == gen_before:
                if attempt:
                    self.stats.record_recovered()
                if self._breaker is not None:
                    self._breaker.record_success()
                    self._sync_degradation()
                for pending, result in zip(live, results):
                    self._resolve(pending, result=result)
                return
            # fault detected (or the daemon repaired under us): retry
            if fault is not None:
                self.stats.record_fault(fault)
            attempt += 1
            if attempt > cfg.max_retries:
                self.stats.record_uncorrectable()
                self._fail_degraded(live, ServerDegraded(
                    f"fault persisted through {cfg.max_retries} "
                    "retries"))
                return
            self.stats.record_retry()
            backoff = cfg.backoff(attempt - 1)
            if backoff > 0:
                clock.sleep(backoff)

    def _fail_degraded(self, pends: List[_Pending],
                       error: ServerDegraded) -> None:
        if self._breaker is not None:
            self._breaker.record_uncorrectable()
            self._sync_degradation()
        for pending in pends:
            self._resolve(pending, error=error)

    def _sync_degradation(self) -> None:
        self.stats.set_degradation(self._breaker.state)

    def _scrub_loop(self) -> None:
        """Periodic golden-copy sweep over every pooled model."""
        interval = self._policy.scrub_interval_s
        while not self._scrub_stop.wait(interval):
            for scrubber in self.pool.scrubbers().values():
                report = scrubber.scrub(reason="periodic")
                self.stats.record_scrub(
                    report.checked, len(report.restored),
                    len(report.uncorrectable), report.duration_s)
                if report.corrupted:
                    self.stats.record_fault("crc")
                if report.uncorrectable and self._breaker is not None:
                    self._breaker.record_uncorrectable()
                    self._sync_degradation()

    def _resolve(self, pending: _Pending, result: Any = None,
                 error: Optional[BaseException] = None) -> None:
        now = clock.now()
        queue_wait = (pending.t_dispatch or now) - pending.t_submit
        self.stats.record_done(now - pending.t_submit, queue_wait,
                               failed=error is not None)
        obs.TRACER.record("serve.request", pending.t_submit, now,
                          trace_id=pending.trace_id,
                          kind=pending.request.kind,
                          outcome="error" if error is not None else "ok")
        self._slots.release()
        with self._idle:
            self._inflight -= 1
            if not self._inflight:
                self._idle.notify_all()
        # A client may have cancelled the future; InvalidStateError here
        # must not kill the worker mid-demux (that would leak the queue
        # depth of every later pending in the same batch).
        try:
            if error is not None:
                pending.future.set_exception(error)
            else:
                pending.future.set_result(result)
        except Exception as swallowed:
            _count_swallowed("resolve.set_future", swallowed)

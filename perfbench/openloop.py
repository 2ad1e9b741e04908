"""Open-loop traffic for the serving workloads.

Arrivals follow a seeded Poisson schedule and are sent from one thread
with ``submit(block=False)``, whatever the server's state: a stalled
server builds a queue instead of slowing the sender.  Each request is
timed from the moment it was *due*, so a stall also charges the wait it
imposes on the requests behind it, and the sender reports how late it
ran.  A refused, failed or wrong request is a miss with infinite
latency.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

#: Request mix of the serving workloads: (kind, share).
MIX = (("translate", 0.60), ("transcribe", 0.25), ("classify", 0.15))

#: A request meets the latency limit when it resolves correctly within
#: this many seconds of its due time.
LATENCY_LIMIT_S = 0.250

#: Share of sent requests that must meet the limit for a rate to pass.
ON_TIME_SHARE = 0.99

#: Longest wait for a phase's last requests to resolve.
DRAIN_TIMEOUT_S = 60.0

#: Percentiles tried, highest first, by :func:`tail_percentile`.
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclasses.dataclass(frozen=True)
class Arrival:
    due: float       #: seconds after the phase starts
    kind: str        #: request kind (``translate`` / ``transcribe`` / ...)
    index: int       #: which of the kind's prepared payloads to send


def poisson_schedule(seed: int, rate: float, count: int, distinct: int,
                     tag: int = 0) -> List[Arrival]:
    """``count`` arrivals at ``rate`` per second, the first one at 0.

    Deterministic in ``(seed, tag, rate, count, distinct)``.  Every seed
    sends the same multiset of requests: each kind gets its share of
    :data:`MIX` of the arrivals, rounded down, with the remainder going to
    the largest share, and a kind's arrivals take its ``distinct``
    payloads in turn.  The seed sets the arrival times and the order, so
    two seeds ask for the same work at different moments.
    """
    if rate <= 0 or count < 1 or distinct < 1:
        raise ValueError("rate, count and distinct must be positive")
    rng = np.random.default_rng([seed, tag, int(round(rate * 1000)), count,
                                 distinct])
    gaps = rng.exponential(1.0 / rate, size=count)
    dues = np.concatenate([[0.0], np.cumsum(gaps[1:])])
    counts = [int(count * share) for _, share in MIX]
    largest = max(range(len(MIX)), key=lambda k: MIX[k][1])
    counts[largest] += count - sum(counts)
    requests = [(kind, i % distinct)
                for (kind, _), n in zip(MIX, counts) for i in range(n)]
    order = rng.permutation(count)
    return [Arrival(float(d), *requests[int(j)]) for d, j in zip(dues, order)]


def tail_percentile(n: int) -> Optional[float]:
    """The highest of 99.9/99/95/90/75/50 with >= 10 samples beyond it."""
    for pct in _PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``inf`` entries stay ``inf``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclasses.dataclass
class PhaseResult:
    """Everything one open-loop phase measured."""

    rate: float
    planned: int
    due: np.ndarray          #: absolute due times (perf_counter seconds)
    sent: np.ndarray         #: when submit() was called (nan: not sent)
    resolved: np.ndarray     #: when the future resolved (nan: never)
    status: List[str]        #: ok / wrong / refused / failed / unsent
    tag: Any = None          #: the phase's id in ``(tag, i)`` arrival ids
    aborted: bool = False
    backlog_at_end: int = 0
    cpu_s: float = 0.0       #: process CPU time from first send to drain

    @property
    def n_sent(self) -> int:
        return int(np.isfinite(self.sent).sum())

    def count(self, status: str) -> int:
        return sum(1 for s in self.status if s == status)

    def latencies(self) -> List[float]:
        """Seconds from due time to resolve for every sent request;
        misses (refused / failed / wrong) are ``inf``."""
        out = []
        for i, status in enumerate(self.status):
            if status == "unsent":
                continue
            out.append(self.resolved[i] - self.due[i] if status == "ok"
                       else math.inf)
        return out

    def lateness(self) -> np.ndarray:
        """How late the sender submitted each request, in seconds."""
        sent = np.isfinite(self.sent)
        return self.sent[sent] - self.due[sent]

    def on_time_share(self) -> float:
        lat = self.latencies()
        if not lat:
            return 0.0
        return sum(1 for x in lat if x <= LATENCY_LIMIT_S) / len(lat)

    def counts(self) -> Dict[str, int]:
        return {"sent": self.n_sent, "succeeded": self.count("ok"),
                "wrong": self.count("wrong"),
                "refused": self.count("refused"),
                "failed": self.count("failed"), "planned": self.planned}


def run_phase(server: Any, schedule: Sequence[Arrival],
              payloads: Dict[str, List[Any]],
              expected: Dict[str, List[Any]], rate: float, *,
              max_len: Optional[int],
              abort_on_miss: bool = False,
              on_send: Optional[Callable[[float], None]] = None,
              tag: Any = None, arrival_local: Any = None) -> PhaseResult:
    """Send ``schedule`` open-loop to ``server`` and wait for the results.

    ``expected[kind][index]`` is the serial reference result for
    ``payloads[kind][index]``; a result that differs is ``wrong``.  With
    ``abort_on_miss`` the phase stops sending once the certain misses
    exceed what :data:`ON_TIME_SHARE` allows, so an overloaded rate
    probe ends promptly.  ``on_send(now)`` runs after every submit (the
    fault injector of the faulted workload hooks in here), and
    ``arrival_local.id`` is set to ``(tag, i)`` before each submit.
    """
    from repro.serve import ServeError

    n = len(schedule)
    cpu0 = time.process_time()
    t0 = time.perf_counter() + 0.005
    due = np.array([t0 + a.due for a in schedule])
    sent = np.full(n, np.nan)
    resolved = np.full(n, np.nan)
    status = ["unsent"] * n
    done = threading.Event()
    lock = threading.Lock()
    outstanding = [0]
    allowed = int((1.0 - ON_TIME_SHARE) * n)

    def finish(i: int, kind: str, index: int, future: Any) -> None:
        now = time.perf_counter()
        try:
            result = future.result()
        except Exception:  # a failed request is a counted miss
            state = "failed"
        else:
            state = "ok" if result == expected[kind][index] else "wrong"
        resolved[i] = now
        status[i] = state
        with lock:
            outstanding[0] -= 1
            if outstanding[0] == 0:
                done.set()

    def certain_misses(now: float, upto: int) -> int:
        count = 0
        for j in range(upto):
            state = status[j]
            if state in ("refused", "failed", "wrong"):
                count += 1
            elif state == "ok":
                count += resolved[j] - due[j] > LATENCY_LIMIT_S
            elif now - due[j] > LATENCY_LIMIT_S:
                count += 1          # still pending, already too late
        return count

    aborted = False
    next_check = t0
    for i, arrival in enumerate(schedule):
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        payload = payloads[arrival.kind][arrival.index]
        if arrival_local is not None:
            arrival_local.id = (tag, i)
        with lock:
            outstanding[0] += 1
            done.clear()
        status[i] = "pending"
        sent[i] = time.perf_counter()
        try:
            future = server.submit(arrival.kind, payload, max_len=max_len,
                                   block=False)
        except ServeError:
            status[i] = "refused"
            resolved[i] = sent[i]
            with lock:
                outstanding[0] -= 1
        else:
            future.add_done_callback(
                lambda fut, i=i, a=arrival: finish(i, a.kind, a.index, fut))
        if on_send is not None:
            on_send(sent[i])
        now = time.perf_counter()
        if abort_on_miss and now >= next_check:
            next_check = now + 0.1
            misses = certain_misses(now, i + 1)
            if misses > allowed:
                aborted = True
                break
    with lock:
        backlog = outstanding[0]
        if backlog == 0:
            done.set()
    if not done.wait(DRAIN_TIMEOUT_S):
        raise RuntimeError(f"{backlog} requests still unresolved after "
                           f"{DRAIN_TIMEOUT_S:.0f} s")
    return PhaseResult(rate=rate, planned=n, due=due, sent=sent,
                       resolved=resolved, status=status, tag=tag,
                       aborted=aborted,
                       backlog_at_end=backlog,
                       cpu_s=time.process_time() - cpu0)


#: Probe health limits: the sender may not fall behind by more than this
#: (p99, seconds), and a passing probe may leave at most this many
#: requests of backlog per request/s of offered rate when sending ends.
MAX_SENDER_LATE_S = 0.050
MAX_BACKLOG_PER_RPS = LATENCY_LIMIT_S


def passes(result: PhaseResult) -> bool:
    """Does the phase meet the limit without a growing backlog?"""
    if result.aborted or result.n_sent < result.planned:
        return False
    late = result.lateness()
    if late.size and percentile(late.tolist(), 99.0) > MAX_SENDER_LATE_S:
        return False
    if result.backlog_at_end > MAX_BACKLOG_PER_RPS * result.rate + 16:
        return False
    return result.on_time_share() >= ON_TIME_SHARE


def search_max_rate(probe: Callable[[float], PhaseResult], start: float,
                    start_ok: bool, step: float, resolution: float,
                    max_probes: int) -> Dict[str, Any]:
    """Highest passing rate, found by stepping then bisecting.

    ``start`` is a rate already measured (``start_ok`` says whether it
    passed).  From a passing rate the search multiplies by ``step`` until
    the first rate that fails (from a failing one it divides until one
    passes), then bisects geometrically until the passing and failing
    rates are within a factor ``1 + resolution``.  No rate above a
    failing one is ever tried.  ``max_rps`` is None if nothing passed.
    """
    lo: Optional[float] = start if start_ok else None
    hi: Optional[float] = None if start_ok else start
    probes: List[Dict[str, Any]] = []
    while len(probes) < max_probes:
        if lo is not None and hi is not None and hi / lo <= 1 + resolution:
            break
        if hi is None:
            rate = lo * step
        elif lo is None:
            rate = hi / step
        else:
            rate = math.sqrt(lo * hi)
        result = probe(rate)
        ok = passes(result)
        probes.append({"rate": round(rate, 3), "pass": ok,
                       "on_time": round(result.on_time_share(), 4),
                       **result.counts()})
        if ok:
            lo = rate
        else:
            hi = rate
    return {"max_rps": lo, "first_fail_rps": hi, "probes": probes}

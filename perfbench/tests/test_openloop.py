"""The open-loop generator's schedule, percentile rule and miss rules."""

import math
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import openloop
from repro.serve import ServerSaturated


def test_schedule_is_deterministic_per_seed():
    a = openloop.poisson_schedule(3, 50.0, 200, 16)
    assert a == openloop.poisson_schedule(3, 50.0, 200, 16)
    assert a != openloop.poisson_schedule(4, 50.0, 200, 16)
    assert a != openloop.poisson_schedule(3, 50.0, 200, 16, tag=1)
    assert a[0].due == 0.0
    assert all(x.due <= y.due for x, y in zip(a, a[1:]))
    assert {x.kind for x in a} == {kind for kind, _ in openloop.MIX}
    assert all(0 <= x.index < 16 for x in a)
    # the mean gap matches the rate
    assert a[-1].due / (len(a) - 1) == pytest.approx(1 / 50.0, rel=0.2)


def test_every_seed_sends_the_same_requests():
    a = openloop.poisson_schedule(3, 50.0, 203, 16)
    b = openloop.poisson_schedule(4, 50.0, 203, 16)
    assert [(x.kind, x.index) for x in a] != [(x.kind, x.index) for x in b]
    assert sorted((x.kind, x.index) for x in a) == \
        sorted((x.kind, x.index) for x in b)
    kinds = [x.kind for x in a]
    assert [kinds.count(kind) for kind, _ in openloop.MIX] == [123, 50, 30]


@pytest.mark.parametrize("n, pct", [(10000, 99.9), (1000, 99.0),
                                    (999, 95.0), (200, 95.0), (199, 90.0),
                                    (100, 90.0), (40, 75.0), (20, 50.0),
                                    (19, None)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert openloop.tail_percentile(n) == pct


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert openloop.percentile(values, 50.0) == 50
    assert openloop.percentile(values, 99.0) == 99
    assert openloop.percentile([1.0, math.inf], 99.0) == math.inf


class FakeServer:
    """Resolves each request after ``service_s``; scripted misbehaviour."""

    def __init__(self, service_s=0.0, stall_first_s=0.0, refuse=(),
                 fail=()):
        self.service_s = service_s
        self.stall_first_s = stall_first_s
        self.refuse = set(refuse)
        self.fail = set(fail)
        self.calls = 0
        self.timers = []

    def submit(self, kind, payload, max_len=None, block=True):
        assert block is False
        i = self.calls
        self.calls += 1
        if i == 0 and self.stall_first_s:
            time.sleep(self.stall_first_s)   # submit itself stalls
        if i in self.refuse:
            raise ServerSaturated("full")
        future = Future()

        def resolve():
            if i in self.fail:
                future.set_exception(RuntimeError("boom"))
            else:
                future.set_result(payload)
        timer = threading.Timer(self.service_s, resolve)
        self.timers.append(timer)
        timer.start()
        return future


def _schedule(dues):
    return [openloop.Arrival(d, "translate", i) for i, d in enumerate(dues)]


PAYLOADS = {"translate": [[i] for i in range(8)]}


def test_latency_is_measured_from_due_time():
    # request 0 stalls the sender for 0.2 s; request 1 was due at 0.01 s,
    # so it is charged the stall even though the server answers at once
    server = FakeServer(stall_first_s=0.2)
    result = openloop.run_phase(server, _schedule([0.0, 0.01]), PAYLOADS,
                                PAYLOADS, 100.0, max_len=None)
    lat = result.latencies()
    assert lat[1] >= 0.18
    assert result.lateness()[1] >= 0.18
    assert result.counts()["succeeded"] == 2


def test_refusals_failures_and_wrong_results_are_misses():
    server = FakeServer(refuse={1}, fail={2})
    expected = {"translate": [[i] for i in range(8)]}
    expected["translate"][3] = ["different"]
    result = openloop.run_phase(server, _schedule([0.0, 0.0, 0.0, 0.0, 0.0]),
                                PAYLOADS, expected, 100.0, max_len=None)
    assert result.status == ["ok", "refused", "failed", "wrong", "ok"]
    lat = result.latencies()
    assert [math.isinf(x) for x in lat] == [False, True, True, True, False]
    assert result.on_time_share() == pytest.approx(0.4)
    assert not openloop.passes(result)
    counts = result.counts()
    assert (counts["sent"], counts["refused"], counts["failed"],
            counts["wrong"]) == (5, 1, 1, 1)


def test_overloaded_probe_aborts_early():
    server = FakeServer(service_s=0.4)      # every request is too late
    dues = [i * 0.01 for i in range(200)]   # 2 s of traffic
    t0 = time.perf_counter()
    result = openloop.run_phase(server, _schedule(dues),
                                {"translate": [[0]] * 200},
                                {"translate": [[0]] * 200}, 100.0,
                                max_len=None, abort_on_miss=True)
    assert result.aborted
    assert result.n_sent < 200
    assert time.perf_counter() - t0 < 1.5
    assert not openloop.passes(result)


def test_search_stops_at_first_failing_rate_and_bisects():
    tried = []

    def probe(rate):
        tried.append(rate)
        n = 100
        late = 0.01 if rate <= 90.0 else 1.0
        return openloop.PhaseResult(
            rate=rate, planned=n, due=np.zeros(n), sent=np.zeros(n),
            resolved=np.full(n, late), status=["ok"] * n)

    out = openloop.search_max_rate(probe, 50.0, True, 1.4, 0.05, 10)
    assert out["max_rps"] <= 90.0 < out["first_fail_rps"]
    assert out["first_fail_rps"] / out["max_rps"] <= 1.05
    first_fail = tried.index(next(r for r in tried if r > 90.0))
    assert all(r < tried[first_fail] for r in tried[first_fail + 1:])


def test_search_from_a_failing_start_steps_down():
    def probe(rate):
        n = 100
        late = 0.01 if rate <= 30.0 else 1.0
        return openloop.PhaseResult(
            rate=rate, planned=n, due=np.zeros(n), sent=np.zeros(n),
            resolved=np.full(n, late), status=["ok"] * n)

    out = openloop.search_max_rate(probe, 50.0, False, 1.4, 0.05, 10)
    assert out["max_rps"] <= 30.0 < out["first_fail_rps"]

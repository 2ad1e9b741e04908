"""Serving metrics: latency ring buffer and the aggregated counters."""

import collections
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import LatencyRecorder, ServerStats


class TestLatencyRecorder:
    def test_empty_summary_is_none(self):
        assert LatencyRecorder().summary() is None

    @pytest.mark.parametrize("cap", [0, -1, -100])
    def test_non_positive_cap_rejected(self, cap):
        # Regression: cap=0 used to build an empty ring and crash with
        # ZeroDivisionError on the first record()'s index modulo.
        with pytest.raises(ValueError, match="cap"):
            LatencyRecorder(cap=cap)

    def test_single_sample_summary_well_defined(self):
        rec = LatencyRecorder(cap=1)
        rec.record(0.040)
        summary = rec.summary()
        assert summary["window"] == 1
        # with one sample every order statistic IS that sample
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"):
            assert summary[key] == pytest.approx(40.0), key

    def test_summary_fields(self):
        rec = LatencyRecorder()
        for value in (0.010, 0.020, 0.030):
            rec.record(value)
        summary = rec.summary()
        assert summary["window"] == 3
        assert summary["count_lifetime"] == 3
        assert summary["mean_ms"] == 20.0
        assert summary["p50_ms"] == 20.0
        assert summary["max_ms"] == 30.0
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]

    def test_ring_buffer_overwrites_oldest(self):
        rec = LatencyRecorder(cap=4)
        for value in range(8):
            rec.record(float(value))
        # count/total track everything; the window holds the last 4
        assert rec.count == 8
        assert rec.total == float(sum(range(8)))
        assert sorted(rec._samples) == [4.0, 5.0, 6.0, 7.0]
        assert rec.summary()["max_ms"] == 7000.0

    def test_summary_is_windowed_after_wraparound(self):
        # Regression: the mean used to be lifetime (total/count) while
        # the percentiles were windowed, so after the ring wrapped a
        # latency regression moved p50 but a long calm history pinned
        # the mean.  Every statistic must describe the ring window.
        rec = LatencyRecorder(cap=4)
        for _ in range(100):
            rec.record(0.001)           # long calm history...
        for _ in range(4):
            rec.record(1.0)             # ...then a regression fills the ring
        summary = rec.summary()
        assert summary["window"] == 4
        assert summary["count_lifetime"] == 104
        # windowed mean agrees with the windowed percentiles
        assert summary["mean_ms"] == pytest.approx(1000.0)
        assert summary["p50_ms"] == pytest.approx(1000.0)
        # the old buggy lifetime mean would have been ~39ms
        assert summary["mean_ms"] > 900.0


class TestServerStats:
    def test_lifecycle_counters(self):
        stats = ServerStats()
        for _ in range(3):
            stats.record_submit()
        stats.record_reject()
        stats.record_batch(2)
        stats.record_batch(1)
        stats.record_done(0.05, 0.01)
        stats.record_done(0.07, 0.02)
        stats.record_done(0.09, 0.03, failed=True)

        snap = stats.snapshot()
        assert snap["requests"] == {"submitted": 3, "completed": 2,
                                    "failed": 1, "rejected": 1}
        assert snap["queue"] == {"depth": 0, "depth_peak": 3}
        assert snap["batches"]["count"] == 2
        assert snap["batches"]["mean_size"] == 1.5
        assert snap["batches"]["histogram"] == {"1": 1, "2": 1}
        # failed requests are not latency samples
        assert snap["latency"]["window"] == 2
        assert snap["latency"]["count_lifetime"] == 2
        assert snap["queue_wait"]["window"] == 2

    def test_resilience_counters(self):
        stats = ServerStats()
        snap = stats.snapshot()
        assert snap["resilience"]["degradation"] == "ok"
        assert snap["resilience"]["scrubs"] == 0

        stats.record_scrub(checked=88, restored=1, uncorrectable=0,
                           duration_s=0.002)
        stats.record_fault("probe")
        stats.record_fault("crc")
        stats.record_fault("probe")
        stats.record_retry()
        stats.record_recovered()
        stats.record_deadline()
        stats.record_degraded_rejection()
        stats.set_degradation("open")

        res = stats.snapshot()["resilience"]
        assert res["scrubs"] == 1
        assert res["scrub_tensors"] == 88
        assert res["restores"] == 1
        assert res["faults_detected"] == 3
        assert res["fault_kinds"] == {"crc": 1, "probe": 2}
        assert res["retries"] == 1
        assert res["recovered_batches"] == 1
        assert res["deadline_expired"] == 1
        assert res["degraded_rejections"] == 1
        assert res["degradation"] == "open"

    def test_snapshot_is_json_safe(self):
        import json

        stats = ServerStats()
        stats.record_submit()
        stats.record_batch(1)
        stats.record_done(0.01, 0.001)
        stats.record_scrub(1, 0, 0, 0.001)
        stats.record_fault("crc")
        json.dumps(stats.snapshot())  # must not raise

    def test_snapshot_embeds_obs_registry(self):
        stats = ServerStats()
        stats.record_submit()
        snap = stats.snapshot()
        # the registry dump rides along so BENCH_serve.json carries it
        assert "obs" in snap
        assert "repro_serve_requests_total" in snap["obs"]


#: One ``record_*`` call each: (method name, strategy for its arguments).
_RECORD_CALLS = st.one_of(
    st.tuples(st.just("record_submit")),
    st.tuples(st.just("record_reject")),
    st.tuples(st.just("record_batch"), st.integers(1, 8)),
    st.tuples(st.just("record_done"),
              st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans()),
    st.tuples(st.just("record_scrub"), st.integers(0, 100),
              st.integers(0, 3), st.integers(0, 2), st.floats(0.0, 0.01)),
    st.tuples(st.just("record_fault"),
              st.sampled_from(["crc", "probe", "exception"])),
    st.tuples(st.just("record_retry")),
    st.tuples(st.just("record_recovered")),
    st.tuples(st.just("record_uncorrectable")),
    st.tuples(st.just("record_deadline")),
    st.tuples(st.just("record_degraded_rejection")),
    st.tuples(st.just("set_degradation"),
              st.sampled_from(["ok", "closed", "half-open", "open"])),
)


def _tally(calls):
    """The snapshot a plain, single-threaded count of ``calls`` predicts
    (everything but the latency rings and the ``obs`` series)."""
    n = collections.Counter()
    sizes = collections.Counter()
    kinds = collections.Counter()
    depth = peak = 0
    scrub_time = 0.0
    degradation = "ok"
    for name, *args in calls:
        if name == "record_submit":
            n["submitted"] += 1
            depth += 1
            peak = max(peak, depth)
        elif name == "record_done":
            depth -= 1
            n["failed" if args[2] else "completed"] += 1
        elif name == "record_batch":
            sizes[args[0]] += 1
        elif name == "record_scrub":
            checked, restored, uncorrectable, duration = args
            n["scrubs"] += 1
            n["scrub_tensors"] += checked
            n["restores"] += restored
            n["uncorrectable"] += uncorrectable
            scrub_time += duration
        elif name == "record_fault":
            kinds[args[0]] += 1
        elif name == "set_degradation":
            degradation = "ok" if args[0] == "closed" else args[0]
        else:
            n[name] += 1
    batches = sum(sizes.values())
    return {
        "requests": {"submitted": n["submitted"],
                     "completed": n["completed"], "failed": n["failed"],
                     "rejected": n["record_reject"]},
        "queue": {"depth": depth, "depth_peak": peak},
        "batches": {
            "count": batches,
            "mean_size": round(sum(s * c for s, c in sizes.items())
                               / batches, 3) if batches else 0.0,
            "histogram": {str(s): sizes[s] for s in sorted(sizes)}},
        "resilience": {
            "scrubs": n["scrubs"], "scrub_tensors": n["scrub_tensors"],
            "scrub_time_s": round(scrub_time, 6),
            "faults_detected": sum(kinds.values()),
            "fault_kinds": dict(sorted(kinds.items())),
            "retries": n["record_retry"], "restores": n["restores"],
            "recovered_batches": n["record_recovered"],
            "uncorrectable": n["uncorrectable"]
            + n["record_uncorrectable"],
            "deadline_expired": n["record_deadline"],
            "degraded_rejections": n["record_degraded_rejection"],
            "degradation": degradation},
    }


class TestRegistryView:
    """ServerStats keeps no count of its own: every figure in the
    snapshot is read back from this server's registry children."""

    @settings(max_examples=60, deadline=None)
    @given(calls=st.lists(_RECORD_CALLS, max_size=40))
    def test_snapshot_equals_a_plain_tally(self, calls):
        stats = ServerStats()
        for name, *args in calls:
            getattr(stats, name)(*args)
        snap = stats.snapshot()
        expected = _tally(calls)
        for key, value in expected.items():
            assert snap[key] == value, key
        completed = expected["requests"]["completed"]
        for ring in ("latency", "queue_wait"):
            if completed:
                assert snap[ring]["count_lifetime"] == completed
            else:
                assert snap[ring] is None

    def test_two_servers_keep_separate_snapshots(self):
        a, b = ServerStats(), ServerStats()
        assert a.server_id != b.server_id
        for _ in range(3):
            a.record_submit()
        a.record_batch(3)
        a.record_fault("crc")
        b.record_submit()
        b.record_reject()
        b.record_batch(1)
        b.record_done(0.01, 0.001)
        snap_a, snap_b = a.snapshot(), b.snapshot()
        assert snap_a["requests"] == {"submitted": 3, "completed": 0,
                                      "failed": 0, "rejected": 0}
        assert snap_b["requests"] == {"submitted": 1, "completed": 1,
                                      "failed": 0, "rejected": 1}
        assert snap_a["queue"] == {"depth": 3, "depth_peak": 3}
        assert snap_b["queue"] == {"depth": 0, "depth_peak": 1}
        assert snap_a["batches"]["histogram"] == {"3": 1}
        assert snap_b["batches"]["histogram"] == {"1": 1}
        assert snap_a["resilience"]["fault_kinds"] == {"crc": 1}
        assert snap_b["resilience"]["fault_kinds"] == {}
        # each "obs" dump carries its own server's series only
        for stats, snap in ((a, snap_a), (b, snap_b)):
            for family in snap["obs"].values():
                for sample in family["samples"]:
                    assert sample["labels"]["server"] == stats.server_id

    def test_concurrent_recording_loses_no_count(self):
        stats = ServerStats()
        threads, rounds = 8, 1000
        start = threading.Barrier(threads)

        def client():
            start.wait(timeout=30.0)
            for i in range(rounds):
                stats.record_submit()
                stats.record_batch(1 + i % 4)
                stats.record_fault("crc")
                stats.record_done(0.001, 0.0001, failed=i % 5 == 0)

        workers = [threading.Thread(target=client) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)         # interleave the threads often
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        snap = stats.snapshot()
        total = threads * rounds
        failed = threads * sum(1 for i in range(rounds) if i % 5 == 0)
        assert snap["requests"] == {"submitted": total,
                                    "completed": total - failed,
                                    "failed": failed, "rejected": 0}
        assert snap["batches"]["count"] == total
        assert snap["batches"]["histogram"] == {
            str(size): total // 4 for size in (1, 2, 3, 4)}
        assert snap["resilience"]["faults_detected"] == total
        assert snap["latency"]["count_lifetime"] == total - failed
        # each thread holds at most one request in flight
        assert snap["queue"]["depth"] == 0
        assert 1 <= snap["queue"]["depth_peak"] <= threads

    def test_disabled_registry_counts_nothing(self):
        from repro import obs

        stats = ServerStats()
        with obs.disabled():
            stats.record_submit()
            stats.record_batch(2)
            stats.record_fault("probe")
            stats.set_degradation("open")
            stats.record_done(0.01, 0.001)
        snap = stats.snapshot()
        assert snap["requests"]["submitted"] == 0
        assert snap["queue"] == {"depth": 0, "depth_peak": 0}
        assert snap["batches"] == {"count": 0, "mean_size": 0.0,
                                   "histogram": {}}
        assert snap["resilience"]["faults_detected"] == 0
        assert snap["resilience"]["degradation"] == "ok"
        # the latency rings are not registry state: they still fill
        assert snap["latency"]["count_lifetime"] == 1

"""The single clock domain: seam behavior plus the regression guards
that keep serving/resilience timing off raw ``time.monotonic()`` /
``time.perf_counter()`` (whose epochs are unrelated — mixing their
absolute readings in deadline math was the original bug) and their
waits off raw ``time.sleep()``."""

import ast
import pathlib
import threading

import pytest

from repro.obs import ManualClock, clock

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules whose *absolute* timestamps flow into shared arithmetic
#: (deadlines, flush timing, breaker dwell, scrub durations).  Raw
#: stdlib clock calls are banned here; everything reads
#: ``repro.obs.clock.now()`` and waits with ``repro.obs.clock.sleep()``.
SINGLE_CLOCK_MODULES = [
    SRC / "serve" / "engine.py",
    SRC / "serve" / "resilient.py",
    SRC / "serve" / "stats.py",
    SRC / "serve" / "pool.py",
    SRC / "resilience" / "scrub.py",
    SRC / "resilience" / "campaign.py",
]


class TestManualClock:
    def test_starts_at_zero_and_advances(self):
        manual = ManualClock()
        assert manual() == 0.0
        manual.advance(1.5)
        assert manual() == 1.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-0.1)


class TestSeam:
    def test_patched_swaps_and_restores(self):
        manual = ManualClock()
        manual.advance(42.0)
        before = clock.now()
        with clock.patched(manual):
            assert clock.now() == 42.0
        assert clock.now() >= before

    def test_set_source_rejects_non_callable(self):
        with pytest.raises(TypeError):
            clock.set_source(3.0)

    def test_default_source_is_monotonic(self):
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_sleep_advances_a_manual_clock(self):
        manual = ManualClock()
        with clock.patched(manual):
            clock.sleep(0.25)
            clock.sleep(0.5)
        assert manual() == 0.75

    def test_sleep_waits_on_the_default_source(self):
        before = clock.now()
        clock.sleep(0.01)
        assert clock.now() - before >= 0.01


class TestSingleClockDomain:
    """Source-scan regression: no raw stdlib clock reads in the modules
    whose timestamps participate in cross-module arithmetic."""

    @pytest.mark.parametrize("path", SINGLE_CLOCK_MODULES,
                             ids=lambda p: p.name)
    def test_no_raw_clock_calls(self, path):
        tree = ast.parse(path.read_text())
        offenders = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                    and func.attr in ("monotonic", "perf_counter", "time",
                                      "monotonic_ns", "perf_counter_ns",
                                      "sleep")):
                offenders.append(f"{path.name}:{node.lineno} "
                                 f"time.{func.attr}()")
        assert not offenders, (
            "raw stdlib clock calls in single-clock-domain modules "
            f"(use repro.obs.clock.now() / sleep()): {offenders}")


class TestDeadlineArithmetic:
    """Functional proof that deadline/dwell math runs on the one clock."""

    def test_pending_deadline_expires_on_obs_clock(self):
        import numpy as np

        from repro.serve.engine import _Pending
        from repro.serve.batching import Request

        manual = ManualClock()
        with clock.patched(manual):
            pending = _Pending(
                Request("classify", np.zeros((3, 4, 4), dtype="float32")),
                deadline_s=2.0)
            assert pending.t_submit == 0.0
            assert not pending.expired(clock.now())
            manual.advance(1.9)
            assert not pending.expired(clock.now())
            manual.advance(0.2)
            assert pending.expired(clock.now())

    def test_breaker_dwell_on_obs_clock(self):
        from repro.serve.resilient import CircuitBreaker

        manual = ManualClock()
        with clock.patched(manual):
            breaker = CircuitBreaker(threshold=1, reset_s=5.0)
            breaker.record_uncorrectable()
            assert breaker.state == "open"
            assert not breaker.allow()
            manual.advance(4.9)
            assert breaker.state == "open"
            manual.advance(0.2)                 # dwell elapsed on the seam
            assert breaker.state == "half-open"
            assert breaker.allow()
            breaker.record_success()
            assert breaker.state == "closed"

    def test_drain_timeout_on_obs_clock(self):
        """drain(timeout) compares against the same clock _Pending uses;
        with a frozen manual clock a zero in-flight server returns
        immediately and a timed-out wait is computed on the seam."""
        from repro.serve.engine import InferenceServer

        manual = ManualClock()
        with clock.patched(manual):
            server = InferenceServer()
            # No started threads needed: drain() with nothing in flight
            # returns True without waiting, reading only the seam clock.
            assert server.drain(timeout=0.0) is True
            # A fake in-flight count must time out at once: the deadline
            # (now + 0) is already reached on the frozen clock.
            server._inflight = 1

            result = {}

            def waiter():
                result["drained"] = server.drain(timeout=0.0)

            thread = threading.Thread(target=waiter)
            thread.start()
            thread.join(timeout=10.0)
            assert result.get("drained") is False
            server._inflight = 0

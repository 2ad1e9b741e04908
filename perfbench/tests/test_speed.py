"""The host speed probe: how CPU time is charged, and clean removal."""

import signal
import time

import speed


def _probe(work_cpu, kernel_s):
    probe = speed.SpeedProbe()
    probe.work_cpu, probe.kernel_s = work_cpu, list(kernel_s)
    return probe


def test_cpu_at_nominal_speed_is_charged_one_to_one():
    probe = _probe(2.5, [speed.NOMINAL_KERNEL_S] * 4)
    assert abs(probe.normalised_cpu() - 2.5) < 1e-12


def test_a_slow_host_reads_the_same_as_a_fast_one():
    fast = _probe(2.0, [0.6e-3, 0.6e-3, 1.0e-3, 0.6e-3])
    slow = _probe(2.0 * 1.6, [0.96e-3, 0.96e-3, 1.6e-3, 0.96e-3])
    assert abs(fast.normalised_cpu() - slow.normalised_cpu()) < 1e-12


def test_less_work_on_the_same_host_reads_less():
    kernels = [0.9e-3, 1.1e-3, 1.0e-3]
    assert _probe(1.0, kernels).normalised_cpu() < \
        _probe(1.2, kernels).normalised_cpu()


def test_the_probe_samples_and_then_removes_its_timer():
    before = signal.getsignal(signal.SIGALRM)
    cpu0 = time.process_time()
    with speed.SpeedProbe(interval_s=0.05) as probe:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            sum(range(1000))
    spent = time.process_time() - cpu0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.kernel_s) >= 4
    # the kernel's own CPU is not charged to the block
    assert 0.0 < probe.work_cpu <= spent - sum(probe.kernel_s)
    assert probe.normalised_cpu() > 0.0

"""The workloads' correctness rules: what fails a run and what does not."""

import copy

import numpy as np

import openloop
import workloads


def _phase(status):
    n = len(status)
    return openloop.PhaseResult(rate=10.0, planned=n, due=np.zeros(n),
                                sent=np.zeros(n), resolved=np.full(n, 0.01),
                                status=list(status))


def test_refusals_are_misses_not_failures():
    out = workloads.Outcome()
    workloads._check_results(out, {"p": _phase(["ok", "refused", "ok"])})
    assert out.failures == []
    assert (out.attempted, out.failed) == (3, 0)
    assert workloads._correct_share(_phase(["ok", "refused"])) == 1.0


def test_one_wrong_or_failed_result_fails_the_run():
    for bad in ("wrong", "failed"):
        out = workloads.Outcome()
        workloads._check_results(out, {"p": _phase(["ok"] * 999 + [bad])})
        assert len(out.failures) == 1
        assert (out.attempted, out.failed) == (1000, 1)


def test_an_infinite_percentile_is_reported_not_failed():
    phase = _phase(["ok", "refused", "refused"])
    summary = workloads._latency_summary(phase)
    metrics = workloads._latency_metrics(phase, summary)
    assert metrics["serve.latency_p50_ms"] == \
        openloop.LATENCY_LIMIT_S * 1e6
    assert metrics["serve.on_time_share"] == 1 / 3


def _grid():
    return {"models": {"m": {"formats": {
        "float": {"any": {"sdc_rate": 0.1, "timing": {"s": 1.0}},
                  "exp_bias": None},
        "adaptivfloat": {"any": {"sdc_rate": 0.2, "timing": {"s": 2.0}},
                         "exp_bias": {"sdc_rate": 0.0}}}}}}


def test_campaign_cells_compare_without_timing():
    reference = _grid()
    result = copy.deepcopy(reference)
    result["models"]["m"]["formats"]["float"]["any"]["timing"]["s"] = 9.0
    assert workloads.check_campaign(result, reference) == (3, [])


def test_campaign_names_the_cell_that_differs():
    reference = _grid()
    result = copy.deepcopy(reference)
    result["models"]["m"]["formats"]["adaptivfloat"]["any"]["sdc_rate"] = 0.3
    good, problems = workloads.check_campaign(result, reference)
    assert good == 2
    assert problems == ["campaign grid differs from BENCH_resilience.json",
                        "m/adaptivfloat/any: differs from the committed cell"]

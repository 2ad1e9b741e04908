"""The four workloads, their correctness checks and their metrics.

Every workload drives only public entry points of ``repro.resilience``,
``repro.serve``, ``repro.experiments`` and ``repro.nn``.  A workload
returns a :class:`Outcome`: the end-to-end metrics (always from an
untraced run), the per-layer metrics (traced run only), the correctness
failures it found, and the attempted/failed counts.

End-to-end metrics are shared by all workloads, each with a meaning per
workload (see ``README.md``):

* ``setup_s`` — process start to the first timed call;
* ``norm_cpu_ms_per_result`` — process CPU time of the timed user path
  per result (campaign trial, Table 3 cell, served request), charged at
  a nominal host speed that :mod:`speed` measures all through the run;
* ``correct_share`` — share of results equal to their reference.

Wall-clock times, latencies and the raw CPU time per result are
measured, printed and recorded too, but not gated: on a shared 2-CPU VM
the host's load changes CPU speed by up to 1.6x within seconds, and
queueing amplifies each change, so serving latency swung by a third or
more between runs of identical work, and raw CPU time per result by a
quarter.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import shutil
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import env
import openloop
import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))

WHY = {
    "campaign": "the paper's fault-injection campaign on a fresh cell cache;"
                " repro.nn greedy-decode scoring does almost all the work",
    "serve": "open-loop Poisson traffic through the micro-batching server:"
             " scheduler, batching and queueing under load, plus LSTM and"
             " conv inference",
    "serve-faulted": "the self-healing serving path under one weight bit"
                     " flip per second: scrub, restore, retry, probe and"
                     " weight-quant memo invalidation",
    "table3": "Table 3 regeneration: calibration, QAR fine-tuning with"
              " autodiff backward and optimizer steps, activation"
              " fake-quant",
}

# ------------------------------------------------------------ configuration
#: serving pool and server, as the workloads run them
QUANT = ("adaptivfloat", 8)
MAX_BATCH, MAX_WAIT_MS, WORKERS = 16, 5.0, 1
MAX_LEN = 32
#: distinct prepared payloads per request kind, and the seed they are
#: built from; ``--seed`` sets the arrival times and order
DISTINCT = 32
PAYLOAD_SEED = 0
REF_RATE = 50.0
WARM_COUNT = 50
SEARCH_STEP, SEARCH_RESOLUTION, SEARCH_PROBES = 1.4, 0.05, 6
PROBE_SECONDS, PROBE_MIN_COUNT = 2.0, 100
FAULT_RATE, FAULT_EVERY_S = 10.0, 1.0
#: The fault schedule's seed: every run flips the same bits, one per
#: second of traffic, and ``--seed`` varies only the traffic.
FAULT_SEED = 0
#: Table 3 sweep
TABLE3_BITS = (8, 4)
TABLE3_FORMATS = ("adaptivfloat",)
TABLE3_REFERENCE = os.path.join(HERE, "reference", "table3_fast.json")
#: share of the campaign wall time the traced phase breakdown may miss
BREAKDOWN_TOLERANCE = 0.01
CAMPAIGN_PHASES = ("load", "inject", "scan", "probe", "evaluate")
TABLE3_PHASES = ("load", "calibrate", "qar", "evaluate")

#: per-layer metric -> (unit, better, what it should move, on which
#: workload).  Metrics a workload never exercises read as zero.
LAYERS: Dict[str, Tuple[str, str, str, str]] = {
    "serve.latency_p50_ms": ("ms", "lower",
        "(wall latency; not gated)", "serve, serve-faulted"),
    "serve.latency_tail_ms": ("ms", "lower",
        "(wall latency; not gated)", "serve, serve-faulted"),
    "serve.on_time_share": ("fraction", "higher",
        "(wall latency; not gated)", "serve, serve-faulted"),
    "serve.max_rps": ("1/s", "higher",
        "norm_cpu_ms_per_result", "serve"),
    "serve.batches": ("count", "lower",
        "norm_cpu_ms_per_result", "serve"),
    "serve.batch_size.mean": ("requests", "higher",
        "norm_cpu_ms_per_result", "serve"),
    "serve.queue_wait_ms.p50": ("ms", "lower",
        "serve.latency_p50_ms", "serve"),
    "serve.queue_wait_ms.p99": ("ms", "lower",
        "serve.latency_tail_ms", "serve"),
    "serve.batch_ms.p50": ("ms", "lower",
        "norm_cpu_ms_per_result", "serve"),
    "serve.batch_ms.p99": ("ms", "lower",
        "serve.latency_tail_ms", "serve"),
    "serve.sent": ("count", "higher",
        "serve.max_rps", "serve"),
    "serve.refused": ("count", "lower",
        "serve.max_rps", "serve"),
    "serve.failed": ("count", "lower",
        "correct_share", "serve"),
    "serve.gen_late_ms.p99": ("ms", "lower",
        "none (benchmark health)", "serve, serve-faulted"),
    "serve.retries": ("count", "lower",
        "norm_cpu_ms_per_result", "serve-faulted"),
    "serve.faults_detected": ("count", "lower",
        "norm_cpu_ms_per_result", "serve-faulted"),
    "nn.encode_ms": ("ms", "lower",
        "norm_cpu_ms_per_result", "campaign, serve"),
    "nn.decode_step_ms": ("ms", "lower",
        "norm_cpu_ms_per_result", "campaign, serve"),
    "nn.decode_steps": ("count", "lower",
        "norm_cpu_ms_per_result", "campaign, serve"),
    "nn.greedy_decode_ms.transformer": ("ms", "lower",
        "norm_cpu_ms_per_result", "campaign, serve"),
    "nn.greedy_decode_ms.seq2seq": ("ms", "lower",
        "norm_cpu_ms_per_result", "serve"),
    "nn.forward_ms": ("ms", "lower",
        "norm_cpu_ms_per_result", "campaign, table3"),
    "nn.backward_ms": ("ms", "lower",
        "norm_cpu_ms_per_result", "table3"),
    "nn.optim_step_ms": ("ms", "lower",
        "norm_cpu_ms_per_result", "table3"),
    "quant.weight_memo_hit_rate": ("fraction", "higher",
        "norm_cpu_ms_per_result", "serve-faulted"),
    "formats.quantize_ms": ("ms", "lower",
        "norm_cpu_ms_per_result", "table3, serve-faulted"),
    "formats.quantize_calls": ("count", "lower",
        "norm_cpu_ms_per_result", "table3, serve-faulted"),
    "formats.quantize_mb": ("MB", "lower",
        "norm_cpu_ms_per_result", "table3, serve-faulted"),
    "campaign.load_s": ("s", "lower",
        "norm_cpu_ms_per_result", "campaign"),
    "campaign.inject_s": ("s", "lower",
        "norm_cpu_ms_per_result", "campaign"),
    "campaign.scan_s": ("s", "lower",
        "norm_cpu_ms_per_result", "campaign"),
    "campaign.probe_s": ("s", "lower",
        "norm_cpu_ms_per_result", "campaign"),
    "campaign.evaluate_s": ("s", "lower",
        "norm_cpu_ms_per_result", "campaign"),
    "campaign.other_s": ("s", "lower",
        "norm_cpu_ms_per_result", "campaign"),
    "campaign.evaluate_per_trial": ("fraction", "lower",
        "norm_cpu_ms_per_result", "campaign"),
    "scrub.calls": ("count", "lower",
        "norm_cpu_ms_per_result", "serve-faulted"),
    "scrub.ms.p50": ("ms", "lower",
        "norm_cpu_ms_per_result", "serve-faulted"),
    "scrub.restores": ("count", "lower",
        "serve.latency_tail_ms", "serve-faulted"),
    "scrub.inject_to_restore_ms.p50": ("ms", "lower",
        "serve.latency_tail_ms", "serve-faulted"),
    "scrub.inject_to_restore_ms.max": ("ms", "lower",
        "serve.latency_tail_ms", "serve-faulted"),
    "table3.load_s": ("s", "lower",
        "norm_cpu_ms_per_result", "table3"),
    "table3.calibrate_s": ("s", "lower",
        "norm_cpu_ms_per_result", "table3"),
    "table3.qar_s": ("s", "lower",
        "norm_cpu_ms_per_result", "table3"),
    "table3.evaluate_s": ("s", "lower",
        "norm_cpu_ms_per_result", "table3"),
    "table3.other_s": ("s", "lower",
        "norm_cpu_ms_per_result", "table3"),
    "trace.overhead_frac": ("fraction", "lower",
        "none (benchmark health)", "every workload"),
}

E2E_UNITS = {"setup_s": "s", "norm_cpu_ms_per_result": "ms",
             "correct_share": "fraction"}


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    named: Dict[str, Tuple[float, str]] = dataclasses.field(
        default_factory=dict)
    failures: List[str] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    details: Dict[str, Any] = dataclasses.field(default_factory=dict)
    spans: List[tracing.Span] = dataclasses.field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# ------------------------------------------------------------------- setup
def build_pool(scrub: bool) -> Any:
    """The warm serving pool: fast-profile checkpoints, AdaptivFloat-8."""
    from repro.serve import ModelPool
    pool = ModelPool(profile=env.PROFILE, quant=QUANT, scrub=scrub)
    for name in env.MODELS:
        pool.get(name)
    return pool


def setup(workload: str) -> Any:
    """Import the workload's layers and load or build what it serves."""
    if workload in ("serve", "serve-faulted"):
        import repro.serve  # noqa: F401
        return build_pool(scrub=workload == "serve-faulted")
    if workload == "campaign":
        from repro.resilience import campaign  # noqa: F401
    elif workload == "table3":
        from repro.experiments import table3_weight_act_quant  # noqa: F401
    else:
        raise ValueError(f"unknown workload {workload!r}")
    from repro.experiments.common import trained_model
    return trained_model("transformer", env.PROFILE)


@dataclasses.dataclass
class Timed:
    """Wall and process CPU seconds of one call, and with a speed probe
    the CPU seconds at the probe's nominal host speed."""

    wall: float = 0.0
    cpu: float = 0.0
    norm_cpu: float = math.nan
    kernel_s: List[float] = dataclasses.field(default_factory=list)


@contextlib.contextmanager
def timed(probe: bool = False) -> Iterator[Timed]:
    """Time the block; with ``probe`` also sample the host's speed
    (:mod:`speed`), whose kernel runs are kept out of ``cpu``."""
    out = Timed()
    sampler = speed.SpeedProbe() if probe else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with sampler or contextlib.nullcontext():
            yield out
    finally:
        out.wall = time.perf_counter() - wall0
        out.cpu = time.process_time() - cpu0
        if sampler is not None:
            out.cpu, out.norm_cpu = (sampler.work_cpu,
                                     sampler.normalised_cpu())
            out.kernel_s = sampler.kernel_s


def with_fresh_cache(fn: Callable[[str], Any]) -> Any:
    """Run ``fn(cache_root)`` with a fresh cache holding only checkpoints."""
    root = env.fresh_cache_dir()
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = root
    os.environ["REPRO_CELL_CACHE"] = "1"
    try:
        return fn(root)
    finally:
        if previous is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------- campaign
def _strip_timing(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def campaign_reference() -> Dict[str, Any]:
    """The committed campaign block of ``BENCH_resilience.json``."""
    with open(os.path.join(env.ROOT, "BENCH_resilience.json")) as fh:
        return json.load(fh)["campaign"]


def campaign_config(reference: Dict[str, Any]) -> Dict[str, Any]:
    model, payload = next(iter(reference["models"].items()))
    return {"profile": reference["profile"], "models": (model,),
            "formats": tuple(payload["formats"]),
            "bits": reference["bits"], "fields": tuple(reference["fields"]),
            "ber": tuple(reference["ber"]),
            "n_flips": reference["n_flips"], "trials": reference["trials"]}


def check_campaign(result: Dict[str, Any], reference: Dict[str, Any]
                   ) -> Tuple[int, List[str]]:
    """(cells equal to the committed cells, problems) for one grid.

    The grid, timing stripped, must equal the committed block; the
    per-cell comparison says which cells broke.
    """
    problems: List[str] = []
    if _strip_timing(result) != _strip_timing(reference):
        problems.append("campaign grid differs from BENCH_resilience.json")
    good = 0
    for model, payload in reference["models"].items():
        for fmt, cells in payload["formats"].items():
            for key, ref_cell in cells.items():
                cell = result["models"][model]["formats"][fmt].get(key)
                if ref_cell is None and cell is None:
                    continue        # a field this format does not have
                if _strip_timing(cell) == _strip_timing(ref_cell):
                    good += 1
                else:
                    problems.append(f"{model}/{fmt}/{key}: differs from "
                                    "the committed cell")
    return good, problems


def _root_span(tracer: Optional[tracing.Tracer], name: str) -> Any:
    return tracer.span(name, "phase") if tracer else contextlib.nullcontext()


def _run_campaign(seed: int, config: Dict[str, Any],
                  tracer: Optional[tracing.Tracer] = None
                  ) -> Tuple[Dict[str, Any], Timed, int]:
    """(grid, timing, cells computed) of one fresh-cache campaign."""
    from repro.resilience import campaign
    namespace = f"resilience_{config['profile']}"

    def run(root: str) -> Tuple[Dict[str, Any], Timed, int]:
        before = env.cell_files(root, namespace)
        with timed(probe=tracer is None) as took, \
                _root_span(tracer, "campaign.run"):
            result = campaign.run(seed=seed, jobs=1, **config)
        return result, took, -1 if before else len(env.cell_files(root,
                                                                  namespace))

    return with_fresh_cache(run)


def campaign_workload(tracer: Optional[tracing.Tracer]) -> Outcome:
    """The committed campaign, at its committed seed.

    The benchmark seed does not change it: which faults fire decides how
    long scoring takes (16.8 to 22.7 s across seeds 32 to 35 on a 2-CPU
    virtual machine), so only the committed seed gives every run the same
    work.
    """
    out = Outcome()
    reference = campaign_reference()
    config = campaign_config(reference)
    result, took, computed = _run_campaign(reference["seed"], config)
    cells = result["timing"]["cells"]
    trials = cells * config["trials"]
    out.check(computed == cells, f"{cells} campaign cells, but {computed} "
              "were computed (the rest came from a cache)")
    good, problems = check_campaign(result, reference)
    out.failures.extend(problems)
    out.attempted, out.failed = cells, cells - good
    out.details["campaign"] = {"cells": cells, "trials": trials,
                               "wall_s": took.wall, "cpu_s": took.cpu,
                               "norm_cpu_s": took.norm_cpu}
    out.details["speed_kernel_s"] = took.kernel_s
    out.metrics = {"norm_cpu_ms_per_result": took.norm_cpu / trials * 1e3,
                   "correct_share": good / cells}
    out.named["campaign_s"] = (took.wall, "s")
    out.named["cpu_ms_per_result"] = (took.cpu / trials * 1e3, "ms")
    if tracer is None:
        return out

    tracing.install_layers(tracer)
    try:
        traced, traced_took, computed = _run_campaign(reference["seed"],
                                                      config, tracer)
    finally:
        tracer.remove()
    out.check(computed == cells, "traced campaign replayed cached cells")
    out.check(_strip_timing(traced) == _strip_timing(result),
              "traced campaign grid differs from the untraced one")
    root = next(s for s in tracer.spans if s.name == "campaign.run")
    breakdown = tracing.phase_breakdown(tracer.spans, root)
    error = tracing.check_breakdown(breakdown, CAMPAIGN_PHASES,
                                    traced_took.wall, BREAKDOWN_TOLERANCE)
    out.check(error is None, f"campaign breakdown: {error}")
    evaluations = sum(1 for s in tracing.descendants(tracer.spans, root.id)
                      if s.name == "evaluate")
    out.details["campaign"]["traced_wall_s"] = traced_took.wall
    out.details["campaign"]["breakdown_s"] = breakdown
    out.metrics.update({f"campaign.{name}_s": breakdown.get(name, 0.0)
                        for name in CAMPAIGN_PHASES + ("other",)})
    out.metrics["campaign.evaluate_per_trial"] = evaluations / trials
    out.metrics["trace.overhead_frac"] = traced_took.cpu / took.cpu - 1.0
    return out


# ------------------------------------------------------------------ table3
def _run_table3(tracer: Optional[tracing.Tracer] = None
                ) -> Tuple[Dict[str, Any], Timed, int]:
    """(table, timing, cells computed) of one fresh-cache Table 3."""
    from repro.experiments import table3_weight_act_quant as table3

    def run(root: str) -> Tuple[Dict[str, Any], Timed, int]:
        with timed(probe=tracer is None) as took, \
                _root_span(tracer, "table3.run"):
            result = table3.run(profile=env.PROFILE, models=("transformer",),
                                bits_list=TABLE3_BITS, formats=TABLE3_FORMATS)
        return result, took, len(env.cell_files(root, f"table3_{env.PROFILE}"))

    return with_fresh_cache(run)


def _table3_cells(result: Dict[str, Any]) -> Dict[str, float]:
    grid = result["models"]["transformer"]["grid"]
    return {f"W{bits}A{bits}/{fmt}": float(score)
            for bits, per_fmt in grid.items()
            for fmt, score in per_fmt.items()}


def table3_workload(seed: int, tracer: Optional[tracing.Tracer]) -> Outcome:
    del seed  # table3.run fixes its own seeds
    out = Outcome()
    with open(TABLE3_REFERENCE) as fh:
        reference = json.load(fh)["cells"]
    result, took, computed = _run_table3()
    cells = _table3_cells(result)
    out.check(computed == len(cells), f"{len(cells)} table3 cells, but "
              f"{computed} were computed (the rest came from a cache)")
    wrong = sorted(k for k in reference if cells.get(k) != reference[k])
    out.check(not wrong and set(cells) == set(reference),
              f"table3 scores differ from the reference grid: {wrong}")
    out.attempted, out.failed = len(reference), len(wrong)
    out.details["table3"] = {"cells": cells, "wall_s": took.wall,
                             "cpu_s": took.cpu, "norm_cpu_s": took.norm_cpu}
    out.details["speed_kernel_s"] = took.kernel_s
    out.metrics = {"norm_cpu_ms_per_result":
                   took.norm_cpu / len(cells) * 1e3,
                   "correct_share": 1.0 - len(wrong) / len(reference)}
    out.named["table3_s"] = (took.wall, "s")
    out.named["cpu_ms_per_result"] = (took.cpu / len(cells) * 1e3, "ms")
    if tracer is None:
        return out

    tracing.install_layers(tracer)
    try:
        traced, traced_took, computed = _run_table3(tracer)
    finally:
        tracer.remove()
    out.check(computed == len(cells), "traced table3 replayed cached cells")
    out.check(_table3_cells(traced) == cells,
              "traced table3 scores differ from the untraced ones")
    root = next(s for s in tracer.spans if s.name == "table3.run")
    breakdown = tracing.phase_breakdown(tracer.spans, root)
    error = tracing.check_breakdown(breakdown, TABLE3_PHASES,
                                    traced_took.wall, BREAKDOWN_TOLERANCE)
    out.check(error is None, f"table3 breakdown: {error}")
    out.details["table3"]["breakdown_s"] = breakdown
    out.metrics.update({f"table3.{name}_s": breakdown.get(name, 0.0)
                        for name in TABLE3_PHASES + ("other",)})
    out.metrics["trace.overhead_frac"] = traced_took.cpu / took.cpu - 1.0
    return out


# ------------------------------------------------------------------- serve
def serve_oracle(pool: Any
                 ) -> Tuple[Dict[str, List[Any]], Dict[str, List[Any]]]:
    """Prepared payloads per kind and their serial reference results.

    The payloads are the same in every run (:data:`PAYLOAD_SEED`): their
    lengths decide how long each request decodes, so a per-run payload
    set would change the work per request from seed to seed.
    """
    from repro.serve import KINDS, serial_reference
    from repro.serve.bench import build_requests
    payloads: Dict[str, List[Any]] = {}
    expected: Dict[str, List[Any]] = {}
    for kind, model in KINDS.items():
        requests = build_requests(model, DISTINCT, seed=PAYLOAD_SEED,
                                  max_len=MAX_LEN)
        payloads[kind] = [r.payload for r in requests]
        expected[kind] = serial_reference(pool.get(model), requests)
    return payloads, expected


def _latency_summary(phase: openloop.PhaseResult) -> Dict[str, Any]:
    lat = phase.latencies()
    pct = openloop.tail_percentile(len(lat))
    late = phase.lateness()
    return {"p50_s": openloop.percentile(lat, 50.0), "tail_pct": pct,
            "tail_s": openloop.percentile(lat, pct) if pct else math.inf,
            "samples": len(lat),
            "gen_late_p99_s": openloop.percentile(late.tolist(), 99.0)
            if late.size else 0.0,
            **phase.counts()}


def _cpu_ms_per_request(phase: openloop.PhaseResult,
                        cpu_s: Optional[float] = None) -> float:
    return (phase.cpu_s if cpu_s is None else cpu_s) / phase.n_sent * 1e3


def _cpu_metrics(out: Outcome, phase: openloop.PhaseResult,
                 took: Timed) -> None:
    """The probed phase's CPU per request, raw and at nominal speed."""
    out.metrics["norm_cpu_ms_per_result"] = _cpu_ms_per_request(
        phase, took.norm_cpu)
    out.named["cpu_ms_per_result"] = (_cpu_ms_per_request(phase, took.cpu),
                                      "ms")
    out.details["speed_kernel_s"] = took.kernel_s


def _latency_metrics(phase: openloop.PhaseResult,
                     summary: Dict[str, Any]) -> Dict[str, float]:
    return {"serve.latency_p50_ms": _ms(summary["p50_s"]),
            "serve.latency_tail_ms": _ms(summary["tail_s"]),
            "serve.on_time_share": phase.on_time_share()}


def _ms(seconds: float) -> float:
    """Milliseconds; an infinite percentile (a miss at or below it) reads
    as 1000 times the latency limit."""
    if math.isfinite(seconds):
        return seconds * 1e3
    return openloop.LATENCY_LIMIT_S * 1e6


def _check_results(out: Outcome,
                   phases: Dict[str, openloop.PhaseResult]) -> None:
    """Count every phase's requests; any wrong or failed result fails the
    run.  A refusal is a miss (it lowers the on-time share and the
    latency percentiles), not a wrong output."""
    for name, result in phases.items():
        wrong, failed = result.count("wrong"), result.count("failed")
        out.attempted += result.n_sent
        out.failed += wrong + failed
        out.check(wrong + failed == 0,
                  f"{name}: {wrong} wrong and {failed} failed of "
                  f"{result.n_sent} requests")


def _correct_share(phase: openloop.PhaseResult) -> float:
    """Share of the answered requests whose result equals the reference."""
    ok = phase.count("ok")
    answered = ok + phase.count("wrong") + phase.count("failed")
    return ok / answered if answered else 0.0


def serve_workload(seed: int, seconds: float,
                   tracer: Optional[tracing.Tracer], pool: Any) -> Outcome:
    from repro.serve import InferenceServer
    out = Outcome()
    payloads, expected = serve_oracle(pool)
    server = InferenceServer(pool, max_batch=MAX_BATCH,
                             max_wait_ms=MAX_WAIT_MS, workers=WORKERS)
    phases: Dict[str, openloop.PhaseResult] = {}

    def phase(tag: int, rate: float, count: int, abort: bool = False,
              traced: bool = False) -> openloop.PhaseResult:
        schedule = openloop.poisson_schedule(seed, rate, count, DISTINCT, tag)
        return openloop.run_phase(
            server, schedule, payloads, expected, rate, max_len=MAX_LEN,
            abort_on_miss=abort, tag=tag,
            arrival_local=tracer.arrival if traced else None)

    with server:
        phase(1, REF_RATE, WARM_COUNT)                    # warm, untimed
        ref_count = int(REF_RATE * seconds)
        with timed(probe=True) as took:
            ref = phases["reference"] = phase(2, REF_RATE, ref_count)
        search: Dict[str, Any] = {}
        memo = _memo_counts(pool)
        if tracer is not None:
            tracing.install_layers(tracer)
            try:
                phases["traced_reference"] = phase(2, REF_RATE, ref_count,
                                                   traced=True)
                tags = iter(range(11, 100))

                def probe(rate: float) -> openloop.PhaseResult:
                    tag = next(tags)
                    count = max(PROBE_MIN_COUNT, int(rate * PROBE_SECONDS))
                    result = phases[f"probe{tag}"] = phase(
                        tag, rate, count, abort=True, traced=True)
                    return result

                search = openloop.search_max_rate(
                    probe, REF_RATE, openloop.passes(ref), SEARCH_STEP,
                    SEARCH_RESOLUTION, SEARCH_PROBES)
            finally:
                tracer.remove()
    summary = _latency_summary(ref)
    matched = _correct_share(ref)
    out.details["serve"] = {"reference": summary, "search": search,
                            "phases": {k: v.counts()
                                       for k, v in phases.items()}}
    _check_results(out, phases)
    latency = _latency_metrics(ref, summary)
    out.metrics = {"correct_share": matched}
    _cpu_metrics(out, ref, took)
    out.named.update({
        "serve_p50_ms": (latency["serve.latency_p50_ms"], "ms"),
        f"serve_p{summary['tail_pct']:g}_ms":
            (latency["serve.latency_tail_ms"], "ms"),
        "serve_on_time_share": (latency["serve.on_time_share"], "fraction"),
        "serve_token_match": (matched, "fraction")})
    if tracer is None:
        return out
    out.metrics.update(serve_layer_metrics(
        tracer, [v for k, v in phases.items() if k != "reference"]))
    out.metrics["serve.max_rps"] = search["max_rps"] or 0.0
    out.metrics.update(latency)
    out.metrics["trace.overhead_frac"] = (
        _cpu_ms_per_request(phases["traced_reference"])
        / _cpu_ms_per_request(ref, took.cpu) - 1.0)
    out.metrics.update(_weight_memo(pool, memo))
    return out


def serve_layer_metrics(tracer: tracing.Tracer,
                        phases: List[openloop.PhaseResult]
                        ) -> Dict[str, float]:
    """Batching, queueing and sender metrics of the traced serve phases."""
    due = {(phase.tag, i): t for phase in phases
           for i, t in enumerate(phase.due)}
    batches = [s for s in tracer.spans if s.name == "batch"]
    waits = [s.start - due[k] for s in batches for k in (s.key or ())
             if k in due]
    durations = [s.duration for s in batches]
    late = np.concatenate([p.lateness() for p in phases])
    return {
        "serve.batches": float(len(batches)),
        "serve.batch_size.mean": float(np.mean([s.size for s in batches]))
        if batches else 0.0,
        "serve.queue_wait_ms.p50": _pct_ms(waits, 50.0),
        "serve.queue_wait_ms.p99": _pct_ms(waits, 99.0),
        "serve.batch_ms.p50": _pct_ms(durations, 50.0),
        "serve.batch_ms.p99": _pct_ms(durations, 99.0),
        "serve.sent": float(sum(p.n_sent for p in phases)),
        "serve.refused": float(sum(p.count("refused") for p in phases)),
        "serve.failed": float(sum(p.count("failed") for p in phases)),
        "serve.gen_late_ms.p99": _pct_ms(late.tolist(), 99.0),
    }


def _pct_ms(values: List[float], pct: float) -> float:
    return openloop.percentile(values, pct) * 1e3 if values else 0.0


def _memo_counts(pool: Any) -> Tuple[int, int]:
    """(hits, lookups) of the pool's weight-quant memo so far."""
    stats = pool.weight_cache_stats().values()
    hits = sum(s["hits"] for s in stats)
    return hits, hits + sum(s["misses"] for s in stats)


def _weight_memo(pool: Any, before: Tuple[int, int]) -> Dict[str, float]:
    """Memo hit rate over the lookups made since ``before``."""
    hits, lookups = (now - then for now, then
                     in zip(_memo_counts(pool), before))
    return {"quant.weight_memo_hit_rate": hits / lookups if lookups else 0.0}


# ----------------------------------------------------------- serve-faulted
class FaultInjector:
    """Flips one seeded float32 weight bit per period in a pooled model."""

    def __init__(self, pool: Any, seed: int, tag: int,
                 every_s: float) -> None:
        from repro.rng import fresh_rng
        self.pool = pool
        self.rng = fresh_rng([seed, tag, 0xFA17])
        self.every_s = every_s
        self.next_at: Optional[float] = None
        self.injected: List[Tuple[float, int, str]] = []

    def __call__(self, now: float) -> None:
        from repro.resilience.inject import flip_float_register
        if self.next_at is None:
            self.next_at = now + self.every_s
        if now < self.next_at:
            return
        self.next_at += self.every_s
        name = env.MODELS[int(self.rng.integers(len(env.MODELS)))]
        model = self.pool.get(name).model
        params = [n for n, _ in model.named_parameters()]
        target = params[int(self.rng.integers(len(params)))]
        data = model.get_parameter(target).data.copy()
        element = int(self.rng.integers(data.size))
        bit = int(self.rng.integers(32))
        data.flat[element] = flip_float_register(float(data.flat[element]),
                                                 bit)
        with np.errstate(all="ignore"):
            model.swap_parameter(target, data)
        self.injected.append((time.perf_counter(), id(model), target))


def serve_faulted_workload(seed: int, seconds: float,
                           tracer: Optional[tracing.Tracer],
                           pool: Any) -> Outcome:
    from repro.serve import InferenceServer, ResilienceConfig
    out = Outcome()
    config = ResilienceConfig()
    payloads, expected = serve_oracle(pool)
    server = InferenceServer(pool, max_batch=MAX_BATCH,
                             max_wait_ms=MAX_WAIT_MS, workers=WORKERS,
                             resilience=config)
    injectors: List[FaultInjector] = []
    phases: Dict[str, openloop.PhaseResult] = {}
    timings: Dict[int, Timed] = {}

    def phase(tag: int, traced: bool) -> openloop.PhaseResult:
        injector = FaultInjector(pool, FAULT_SEED, tag, FAULT_EVERY_S)
        injectors.append(injector)
        schedule = openloop.poisson_schedule(
            seed, FAULT_RATE, int(FAULT_RATE * seconds), DISTINCT, tag)
        with timed(probe=not traced) as took:
            result = openloop.run_phase(
                server, schedule, payloads, expected, FAULT_RATE,
                max_len=MAX_LEN, on_send=injector, tag=tag,
                arrival_local=tracer.arrival if traced else None)
        timings[tag] = took
        # let the scrub daemon reach faults no later batch touched
        settle = injector.injected[-1][0] + config.scrub_interval_s + 0.3 \
            if injector.injected else 0.0
        time.sleep(max(0.0, settle - time.perf_counter()))
        return result

    with server:
        phases["faulted"] = phase(3, traced=False)
        untraced = server.stats.snapshot()["resilience"]
        memo = _memo_counts(pool)
        if tracer is not None:
            tracing.install_layers(tracer)
            try:
                phases["traced_faulted"] = phase(4, traced=True)
            finally:
                tracer.remove()
        stats = server.stats.snapshot()
    corrupted = {name: scrubber.verify()
                 for name, scrubber in pool.scrubbers().items()}
    counters = pool.scrub_counters()
    injected = sum(len(i.injected) for i in injectors)
    resilience = stats["resilience"]
    out.check(injected > 0, "no fault was injected")
    out.check(not any(corrupted.values()),
              f"injected faults left unrestored: {corrupted}")
    uncorrectable = sum(c["uncorrectable"] for c in counters.values())
    out.check(uncorrectable == 0 and resilience.get("uncorrectable", 0) == 0,
              f"{uncorrectable} uncorrectable faults")
    main = phases["faulted"]
    summary = _latency_summary(main)
    _check_results(out, phases)
    out.details["serve_faulted"] = {
        "summary": summary, "injected": injected,
        "resilience": resilience, "scrubbers": counters,
        "phases": {k: v.counts() for k, v in phases.items()}}
    latency = _latency_metrics(main, summary)
    out.metrics = {"correct_share": _correct_share(main)}
    _cpu_metrics(out, main, timings[3])
    out.named.update({
        "faulted_p50_ms": (latency["serve.latency_p50_ms"], "ms"),
        f"faulted_p{summary['tail_pct']:g}_ms":
            (latency["serve.latency_tail_ms"], "ms"),
        "faulted_on_time_share": (latency["serve.on_time_share"],
                                  "fraction"),
        # all sent requests, refusals included, as the token-match rule asks
        "faulted_token_match": (main.count("ok") / main.n_sent, "fraction")})
    if tracer is None:
        return out
    traced = phases["traced_faulted"]
    out.metrics.update(serve_layer_metrics(tracer, [traced]))
    out.metrics.update(latency)
    out.metrics["trace.overhead_frac"] = (
        _cpu_ms_per_request(traced)
        / _cpu_ms_per_request(main, timings[3].cpu) - 1.0)
    for key in ("retries", "faults_detected"):
        out.metrics[f"serve.{key}"] = float(resilience[key] - untraced[key])
    out.metrics.update(_weight_memo(pool, memo))
    out.metrics.update(scrub_metrics(tracer, injectors[-1].injected))
    return out


def scrub_metrics(tracer: tracing.Tracer,
                  injected: List[Tuple[float, int, str]]) -> Dict[str, float]:
    """Scrub pass cost and the delay from each injection to its repair."""
    scrubs = [s for s in tracer.spans if s.name == "scrub"]
    restores = [s for s in tracer.spans if s.name == "restore"]
    delays = []
    for when, model_id, target in injected:
        ends = [s.end for s in restores
                if s.key == (model_id, target) and s.end >= when]
        if ends:
            delays.append(min(ends) - when)
    return {"scrub.calls": float(len(scrubs)),
            "scrub.ms.p50": _pct_ms([s.duration for s in scrubs], 50.0),
            "scrub.restores": float(len(restores)),
            "scrub.inject_to_restore_ms.p50": _pct_ms(delays, 50.0),
            "scrub.inject_to_restore_ms.max": max(delays) * 1e3
            if delays else 0.0}


# ------------------------------------------------------- layer assembly
def layer_metrics(tracer: tracing.Tracer) -> Dict[str, float]:
    """The ``nn`` and ``formats`` metrics every traced run reports."""
    def total_ms(name: str, group: str) -> float:
        return sum(s.duration for s in tracer.spans
                   if s.name == name and s.group == group) * 1e3

    quantize = [s for s in tracer.spans
                if s.group == "formats" and s.parent is None]
    return {
        "nn.encode_ms": total_ms("encode", "nn"),
        "nn.decode_step_ms": total_ms("decode_step", "nn"),
        "nn.decode_steps": float(sum(1 for s in tracer.spans
                                     if s.name == "decode_step")),
        "nn.greedy_decode_ms.transformer":
            total_ms("greedy_decode.transformer", "nn"),
        "nn.greedy_decode_ms.seq2seq": total_ms("greedy_decode.seq2seq",
                                                "nn"),
        "nn.forward_ms": total_ms("forward", "nn"),
        "nn.backward_ms": total_ms("backward", "nn"),
        "nn.optim_step_ms": total_ms("optim_step", "nn"),
        "formats.quantize_ms": sum(s.duration for s in quantize) * 1e3,
        "formats.quantize_calls": float(len(quantize)),
        "formats.quantize_mb": sum(s.size for s in quantize) / 1e6,
    }


def run(workload: str, seed: int, seconds: float, traced: bool,
        state: Any) -> Outcome:
    """Run one workload; with ``traced`` also fill every per-layer metric.

    ``seconds`` sizes the timed serving phases; the campaign and the
    table are fixed-size jobs.
    """
    tracer = tracing.Tracer() if traced else None
    if workload == "campaign":
        out = campaign_workload(tracer)
    elif workload == "table3":
        out = table3_workload(seed, tracer)
    elif workload == "serve":
        out = serve_workload(seed, seconds, tracer, state)
    elif workload == "serve-faulted":
        out = serve_faulted_workload(seed, seconds, tracer, state)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tracer is not None:
        out.check(tracer.installed == 0, "trace wrappers were not removed")
        measured = dict(out.metrics)
        out.metrics = {name: 0.0 for name in LAYERS}
        out.metrics.update(layer_metrics(tracer))
        out.metrics.update(measured)
        out.spans = tracer.spans
    return out


"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 20 --trace 0

Workloads: ``campaign``, ``serve``, ``serve-faulted``, ``table3`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the workload untraced and then traced, and adds the
per-layer metrics.  Every metric is printed by name with its unit; the
last stdout line is the JSON summary, holding the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  The
exit code is non-zero when a correctness check fails (the summary then
says ``"correct": false``).

The first run in a checkout trains the fast-profile checkpoints into
``.bench_cache/`` (a few minutes); later runs reuse them.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# One BLAS thread: the serving workloads already run a sender, a
# scheduler and a worker thread on a small machine, and the committed
# BENCH records come from a one-CPU machine.  An explicit setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import env  # noqa: E402

WORKLOADS = ("campaign", "serve", "serve-faulted", "table3")
#: fresh-interpreter set-up samples taken before and again after the
#: workload, so the setup_s median spans the run's changes in host speed
SETUP_SAMPLES = 2


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed serving phases; the "
                             "campaign and table3 runs are fixed-size")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metrics(outcome, units):
    return {name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()}


def main(argv) -> int:
    args = parse(argv)
    env.check_checkout()
    t_prepare = time.perf_counter()
    prepare = env.ensure_checkpoints()
    prepare_s = time.perf_counter() - t_prepare

    cache = env.fresh_cache_dir()
    os.environ["REPRO_CACHE_DIR"] = cache
    try:
        import workloads
        state = workloads.setup(args.workload)
        setups = [time.perf_counter() - T_PROCESS - prepare_s]
        setups += [env.child_setup_seconds(args.workload)
                   for _ in range(SETUP_SAMPLES)]
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), state)
        setups += [env.child_setup_seconds(args.workload)
                   for _ in range(SETUP_SAMPLES)]
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    # every run measures the end-to-end metrics untraced; a traced run
    # adds the per-layer ones, and its summary line carries only those
    outcome.metrics["setup_s"] = statistics.median(setups)
    e2e = _metrics(outcome, workloads.E2E_UNITS)
    layers = _metrics(outcome, {name: spec[0] for name, spec
                                in workloads.LAYERS.items()}
                      if args.trace else {})
    summary = layers if args.trace else e2e
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": not outcome.failures,
        "failures": outcome.failures, "metrics": {**e2e, **layers},
        "named": {k: {"value": v, "unit": u}
                  for k, (v, u) in outcome.named.items()},
        "setup_samples_s": setups, "prepare": prepare,
        "layer_targets": {name: {"moves": spec[2], "on": spec[3]}
                          for name, spec in workloads.LAYERS.items()},
        "details": outcome.details,
        "provenance": env.provenance(args.workload, args.seed,
                                     workloads.WHY[args.workload]),
    }
    os.makedirs(env.RESULTS, exist_ok=True)
    path = os.path.join(env.RESULTS, f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if outcome.spans:
        with open(path[:-len(".json")] + "-spans.jsonl", "w") as fh:
            for span in outcome.spans:
                fh.write(json.dumps(dataclasses.asdict(span), default=str)
                         + "\n")

    for name, (value, unit) in outcome.named.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for name, metric in {**e2e, **layers}.items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    for failure in outcome.failures:
        print(f"{args.workload}: CHECK FAILED: {failure}")
    print(f"{args.workload}: full record in {os.path.relpath(path)}")
    print(json.dumps({"correct": not outcome.failures,
                      "attempted": max(1, int(outcome.attempted)),
                      "failed": int(outcome.failed),
                      "metrics": summary}))
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

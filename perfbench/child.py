"""Helper process for the benchmark (not a user entry point).

``child.py prepare`` trains the fast-profile checkpoints into
``$REPRO_CACHE_DIR`` and prints their FP32 scores as JSON.
``child.py setup <workload>`` performs the workload's set-up in this
fresh interpreter and prints the seconds it took from process start.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import env
    env.check_checkout()
    if argv[0] == "prepare":
        from repro.experiments.common import trained_model
        scores = {}
        for name in env.MODELS:
            t0 = time.perf_counter()
            scores[name] = {"fp32_score": trained_model(name, env.PROFILE)[2],
                            "train_s": time.perf_counter() - t0}
        print(json.dumps(scores))
    elif argv[0] == "setup":
        os.environ["REPRO_CACHE_DIR"] = env.fresh_cache_dir()
        try:
            import workloads
            workloads.setup(argv[1])
            print(time.perf_counter() - T_START)
        finally:
            shutil.rmtree(os.environ["REPRO_CACHE_DIR"], ignore_errors=True)
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Benchmark environment: checkpoints, fresh cache directories, provenance.

The fast-profile checkpoints are trained once per checkout into the
benchmark's own cache (``.bench_cache/checkpoints``, never
``./artifacts``).  Every run then gets a fresh ``REPRO_CACHE_DIR`` that
holds nothing but links to those checkpoints, so no experiment cell can
be replayed from an earlier run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_cache")
CHECKPOINTS = os.path.join(CACHE, "checkpoints")
RESULTS = os.path.join(CACHE, "results")

#: The model families every workload may load, fast profile.
MODELS = ("transformer", "seq2seq", "resnet")
PROFILE = "fast"


def check_checkout() -> None:
    """Fail unless the program's sources sit next to the benchmark."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program sources at {SRC!r}; run "
                         "from the root of a repository checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _child(*args: str, env: Optional[Dict[str, str]] = None) -> str:
    """Run ``child.py`` with ``args``; return its last stdout line."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                           *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed:\n{proc.stderr[-4000:]}")
    return proc.stdout.strip().splitlines()[-1]


def ensure_checkpoints() -> Dict[str, object]:
    """Train the checkpoints once per checkout; return the prepare record."""
    record_path = os.path.join(CHECKPOINTS, "prepare.json")
    if os.path.exists(record_path):
        with open(record_path) as fh:
            return json.load(fh)
    staging = os.path.join(CACHE, f"prepare-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    env = dict(os.environ, REPRO_CACHE_DIR=staging, REPRO_CELL_CACHE="0")
    t0 = time.perf_counter()
    trained = json.loads(_child("prepare", env=env))
    record = {"prepare_s": time.perf_counter() - t0, "models": trained}
    with open(os.path.join(staging, "prepare.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(CHECKPOINTS, ignore_errors=True)
    os.replace(staging, CHECKPOINTS)
    return record


def checkpoint_files() -> List[str]:
    return sorted(name for name in os.listdir(CHECKPOINTS)
                  if name.endswith(".npz"))


def checkpoint_hashes() -> Dict[str, str]:
    out = {}
    for name in checkpoint_files():
        with open(os.path.join(CHECKPOINTS, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def fresh_cache_dir() -> str:
    """A new cache root holding only links to the checkpoints."""
    path = os.path.join(CACHE, "runs", f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    for name in checkpoint_files():
        os.symlink(os.path.join(CHECKPOINTS, name), os.path.join(path, name))
    return path


def cell_files(cache_root: str, namespace: str) -> List[str]:
    """Cached cell results a run left under ``namespace``."""
    path = os.path.join(cache_root, "cells", namespace)
    if not os.path.isdir(path):
        return []
    return sorted(name for name in os.listdir(path) if name.endswith(".json"))


def child_setup_seconds(workload: str) -> float:
    """Set-up time of ``workload`` measured in a fresh interpreter."""
    return float(_child("setup", workload))


def git_commit() -> Optional[str]:
    head = os.path.join(ROOT, ".git")
    if not os.path.isdir(head):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, why: str) -> Dict[str, object]:
    """Machine, thread, code and input provenance for one result."""
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        from bench_report import machine_info
    finally:
        sys.path.remove(os.path.join(ROOT, "tools"))
    return {
        "machine": machine_info(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads_env": {var: os.environ.get(var) for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "workload": workload,
        "why": why,
        "seed": seed,
        "checkpoints": checkpoint_hashes(),
    }

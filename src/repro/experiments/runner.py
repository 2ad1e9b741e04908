"""Parallel sweep-cell execution with per-cell result caching.

The experiment drivers (Tables 2/3) are grids of independent cells —
(model, format, bits) — whose results are small JSON payloads but whose
computation (QAR retraining) dominates a sweep's wall clock.  This
module factors the grid traversal out of the drivers:

* :func:`run_cells` executes one top-level *cell function* over a list
  of JSON-serializable cell descriptors, optionally across processes
  (``jobs > 1``, :class:`concurrent.futures.ProcessPoolExecutor`).
* Each cell's result is cached on disk under a content hash of the cell
  descriptor plus a caller-supplied salt (:mod:`repro.cache`), so
  re-running a sweep only computes missing cells.  Set
  ``REPRO_CELL_CACHE=0`` to disable.

Results are returned **in input order** regardless of completion order,
and cells are deterministic functions of their descriptor, so a parallel
sweep produces byte-identical result files to a serial one.

The cell function must be a module-level (picklable) callable taking the
cell descriptor dict and returning a JSON-serializable value.  Anything
process-wide the cells share (e.g. the trained-model checkpoint cache)
should be warmed *before* dispatch to avoid duplicate work in workers.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..cache import content_key, load_cached_json, store_cached_json

__all__ = ["run_cells", "cell_cache_enabled", "shard_ranges",
           "store_and_reload"]


def shard_ranges(total: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``total`` items into contiguous ``(start, count)`` ranges.

    Deterministic near-equal split used to fan the *inside* of a cell
    (e.g. a fault-injection cell's trials) over :func:`run_cells`: at
    most ``shards`` non-empty ranges, earlier ranges at most one item
    longer, concatenating in order reproduces ``range(total)`` exactly.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    shards = min(shards, total)
    if shards == 0:
        return []
    base, extra = divmod(total, shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(shards):
        count = base + (1 if i < extra else 0)
        ranges.append((start, count))
        start += count
    return ranges


def cell_cache_enabled() -> bool:
    """Whether per-cell result caching is active (``REPRO_CELL_CACHE``)."""
    return os.environ.get("REPRO_CELL_CACHE", "1") not in ("0", "false", "no")


def _cell_key(cell: Any, salt: Optional[str]) -> str:
    return content_key({"cell": cell, "salt": salt})


def run_cells(fn: Callable[[Any], Any], cells: Sequence[Any], *,
              jobs: int = 1,
              cache_namespace: Optional[str] = None,
              cache_salt: Optional[str] = None,
              progress: Optional[Callable[[int, int, Any], None]] = None,
              on_computed: Optional[Callable[[int], None]] = None
              ) -> List[Any]:
    """Evaluate ``fn`` over ``cells``; return results in input order.

    Parameters
    ----------
    fn:
        Module-level callable ``fn(cell) -> result``.  Must be picklable
        for ``jobs > 1`` and must return something JSON-serializable
        when caching is on.
    cells:
        JSON-serializable cell descriptors (typically dicts).
    jobs:
        Worker processes.  ``1`` (default) runs serially in-process;
        values above the cell count are clamped.
    cache_namespace:
        Directory name under the artifact cache for per-cell results.
        ``None`` disables caching for this sweep.
    cache_salt:
        Extra string folded into every cell's content hash — bump it (or
        include a version marker) when the cell function's semantics
        change.
    progress:
        Optional callback ``progress(done, total, cell)`` invoked after
        each cell completes (cache hits included).
    on_computed:
        Optional callback ``on_computed(index)`` invoked for each cell
        this call computed rather than loaded from the cache, so callers
        can tell fresh work (and its timings) from replayed results.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if jobs > 1:
        # runtime twin of the PK001/PK002 static checks: fail fast and
        # deterministically (even when every cell would be a cache hit)
        # instead of surfacing a PicklingError from inside the pool
        qualname = getattr(fn, "__qualname__", "") or ""
        if "<lambda>" in qualname or "<locals>" in qualname:
            raise ValueError(
                f"run_cells(jobs={jobs}) needs a module-level cell function, "
                f"got {qualname!r}: workers re-import the callable by "
                "qualified name, and lambdas/closures cannot be pickled")
    cells = list(cells)
    total = len(cells)
    results: List[Any] = [None] * total
    caching = cache_namespace is not None and cell_cache_enabled()

    done = 0
    pending: List[int] = []
    for i, cell in enumerate(cells):
        if caching:
            cached = load_cached_json(cache_namespace, _cell_key(cell, cache_salt))
            if cached is not None:
                results[i] = cached
                done += 1
                if progress is not None:
                    progress(done, total, cell)
                continue
        pending.append(i)

    def _finish(i: int, value: Any) -> None:
        nonlocal done
        if caching:
            value = store_and_reload(cache_namespace, cells[i], cache_salt, value)
        results[i] = value
        done += 1
        if on_computed is not None:
            on_computed(i)
        if progress is not None:
            progress(done, total, cells[i])

    if jobs == 1 or len(pending) <= 1:
        for i in pending:
            _finish(i, fn(cells[i]))
        return results

    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        futures = {pool.submit(fn, cells[i]): i for i in pending}
        remaining = set(futures)
        while remaining:
            finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for fut in finished:
                _finish(futures[fut], fut.result())
    return results


def store_and_reload(namespace: str, cell: Any, salt: Optional[str],
                     value: Any) -> Any:
    """Persist a cell result, then return its JSON round-trip.

    Returning the round-tripped value (not the original) guarantees a
    cold run and a cache-hit run assemble *identical* result objects —
    e.g. tuples become lists both times, not just on the second run.
    """
    key = _cell_key(cell, salt)
    store_cached_json(namespace, key, value)
    reloaded = load_cached_json(namespace, key)
    return value if reloaded is None else reloaded

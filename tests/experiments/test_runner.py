"""Tests for the parallel sweep runner and its per-cell result cache."""

import json
import pathlib

import pytest

from repro.cache import cell_cache_path, content_key, store_cached_json
from repro.experiments.runner import (cell_cache_enabled, run_cells,
                                      store_and_reload)


@pytest.fixture(autouse=True)
def tiny_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


# Cell functions must be module-level so ProcessPoolExecutor can pickle them.
def square_cell(cell):
    return {"value": cell["n"] ** 2}


def tuple_cell(cell):
    return (cell["n"], cell["n"] + 1)  # JSON round-trips to a list


def failing_cell(cell):
    if cell["n"] == 2:
        raise RuntimeError("cell blew up")
    return cell["n"]


CELLS = [{"n": n} for n in range(6)]


class TestRunCells:
    def test_serial_results_in_input_order(self):
        assert run_cells(square_cell, CELLS) == \
            [{"value": n * n} for n in range(6)]

    def test_parallel_matches_serial(self):
        serial = run_cells(square_cell, CELLS)
        parallel = run_cells(square_cell, CELLS, jobs=3)
        assert parallel == serial

    def test_empty_sweep(self):
        assert run_cells(square_cell, []) == []
        assert run_cells(square_cell, [], jobs=4) == []

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_cells(square_cell, CELLS, jobs=0)

    def test_lambda_rejected_under_jobs(self):
        with pytest.raises(ValueError, match="module-level"):
            run_cells(lambda c: c, CELLS, jobs=2)  # reprocheck: disable=PK001

    def test_nested_function_rejected_under_jobs(self):
        def local_cell(cell):
            return cell["n"]
        with pytest.raises(ValueError, match="module-level"):
            run_cells(local_cell, CELLS, jobs=2)  # reprocheck: disable=PK001

    def test_nested_function_allowed_serially(self):
        def local_cell(cell):
            return cell["n"]
        assert run_cells(local_cell, CELLS) == list(range(6))  # reprocheck: disable=PK001

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError):
            run_cells(failing_cell, CELLS)
        with pytest.raises(RuntimeError):
            run_cells(failing_cell, CELLS, jobs=2)

    def test_progress_callback_sees_every_cell(self):
        seen = []
        run_cells(square_cell, CELLS,
                  progress=lambda done, total, cell: seen.append((done, total)))
        assert seen == [(i + 1, 6) for i in range(6)]


class TestCellCache:
    def test_cache_files_created_and_reused(self, tmp_path):
        run_cells(square_cell, CELLS, cache_namespace="toy", cache_salt="v1")
        files = list((tmp_path / "cells" / "toy").glob("*.json"))
        assert len(files) == 6

        # Second run must be served from disk: poison one cached value
        # and check the poisoned value comes back instead of a recompute.
        key = content_key({"cell": CELLS[0], "salt": "v1"})
        path = cell_cache_path("toy", key)
        path.write_text(json.dumps({"value": -1}))
        again = run_cells(square_cell, CELLS, cache_namespace="toy",
                          cache_salt="v1")
        assert again[0] == {"value": -1}
        assert again[1:] == [{"value": n * n} for n in range(1, 6)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_computed_skips_cache_hits(self, jobs):
        run_cells(square_cell, CELLS[:2], cache_namespace="toy")
        computed = []
        run_cells(square_cell, CELLS, jobs=jobs, cache_namespace="toy",
                  on_computed=computed.append)
        assert sorted(computed) == [2, 3, 4, 5]

    def test_salt_invalidates(self):
        run_cells(square_cell, CELLS, cache_namespace="toy", cache_salt="v1")
        key_v1 = content_key({"cell": CELLS[0], "salt": "v1"})
        key_v2 = content_key({"cell": CELLS[0], "salt": "v2"})
        assert key_v1 != key_v2
        assert cell_cache_path("toy", key_v1).exists()
        assert not cell_cache_path("toy", key_v2).exists()

    def test_corrupt_cache_file_is_recomputed(self, tmp_path):
        run_cells(square_cell, CELLS[:1], cache_namespace="toy",
                  cache_salt="v1")
        key = content_key({"cell": CELLS[0], "salt": "v1"})
        path = cell_cache_path("toy", key)
        path.write_text("{not json")
        out = run_cells(square_cell, CELLS[:1], cache_namespace="toy",
                        cache_salt="v1")
        assert out == [{"value": 0}]
        assert json.loads(path.read_text()) == {"value": 0}  # repaired

    def test_env_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_CACHE", "0")
        assert not cell_cache_enabled()
        run_cells(square_cell, CELLS, cache_namespace="toy", cache_salt="v1")
        assert not (tmp_path / "cells").exists()

    def test_cold_run_matches_cached_run_exactly(self):
        # Tuples are serialized to JSON lists; the runner must return the
        # round-tripped form on the COLD run too, so serial/parallel and
        # cold/warm runs assemble byte-identical result objects.
        cold = run_cells(tuple_cell, CELLS, cache_namespace="toy",
                         cache_salt="v1")
        warm = run_cells(tuple_cell, CELLS, cache_namespace="toy",
                         cache_salt="v1")
        assert cold == warm == [[n, n + 1] for n in range(6)]

    def test_store_and_reload_round_trips(self):
        value = store_and_reload("toy", {"n": 9}, "v1", (1, 2))
        assert value == [1, 2]

    def test_non_serializable_payload_raises(self, tmp_path):
        # Regression: store_cached_json used to pass ``default=str`` to
        # json.dump, silently stringifying Paths/arrays into a payload
        # that later warm runs would return in place of the real result.
        with pytest.raises(TypeError):
            store_cached_json("toy", "deadbeef",
                              {"path": pathlib.Path("/nowhere")})
        assert not cell_cache_path("toy", "deadbeef").exists()

    def test_failed_store_leaves_no_partial_file(self, tmp_path):
        key = content_key({"cell": {"n": 0}, "salt": "v1"})
        with pytest.raises(TypeError):
            # a set payload is deliberately unserializable here
            store_cached_json("toy", key,  # reprocheck: disable=CK001
                              {"bad": {1, 2}})
        assert list((tmp_path / "cells").rglob("*")) == [] or not any(
            p.suffix == ".json" for p in (tmp_path / "cells").rglob("*"))

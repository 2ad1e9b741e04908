"""Integration tests for the fault-injection campaign driver.

Runs at the 'tiny' profile: numbers are meaningless at this scale, so
assertions are structural (finite metrics, cache byte-stability); the
paper-shape claims (exponent flips hurting float more than AdaptivFloat)
live in the committed ``BENCH_resilience.json`` at the 'fast' profile.
"""

import json

import numpy as np
import pytest

from repro.experiments.common import get_bundle
from repro.resilience import campaign

FORMATS = ("adaptivfloat", "float")
FIELDS = ("any", "exponent", "exp_bias")


@pytest.fixture(autouse=True)
def tiny_cache(tmp_path_factory, monkeypatch):
    """Isolated artifact cache shared across this module's tests."""
    cache = tmp_path_factory.getbasetemp() / "resilience_cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))


def _run():
    return campaign.run(profile="tiny", models=("transformer",),
                        formats=FORMATS, bits=8, fields=FIELDS,
                        trials=2, seed=0)


class TestCellFields:
    def test_word_classes_follow_bit_fields(self):
        assert campaign.cell_fields("float", 8) \
            == ("any", "sign", "exponent", "mantissa")
        assert campaign.cell_fields("posit", 8) \
            == ("any", "sign", "exponent", "mantissa")
        # Uniform/BFP words have no exponent bits but do have a register.
        assert campaign.cell_fields("uniform", 8) \
            == ("any", "sign", "mantissa", "exp_bias")
        assert campaign.cell_fields("bfp", 8) \
            == ("any", "sign", "mantissa", "exp_bias")
        assert campaign.cell_fields("adaptivfloat", 8) \
            == campaign.DEFAULT_FIELDS


class TestValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            campaign.run(profile="tiny", models=("alexnet",))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            campaign.run(profile="tiny", models=("transformer",),
                         fields=("bogus",))

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            campaign.run(profile="huge", models=("transformer",))


class TestCampaign:
    def test_tiny_campaign_end_to_end(self):
        result = _run()
        model = result["models"]["transformer"]
        assert model["metric"] and isinstance(model["fp32_score"], float)

        # AdaptivFloat supports every requested field, including the
        # exp_bias register cell — the paper-critical configuration.
        af = model["formats"]["adaptivfloat"]
        for field in FIELDS:
            cell = af[field]
            assert cell is not None, field
            assert cell["trials"] == 2
            assert cell["flips_total"] >= 2
            for rate in ("sdc_rate", "detection_rate", "corrupt_rate",
                         "nonfinite_logit_rate"):
                assert 0.0 <= cell[rate] <= 1.0, (field, rate)
            assert isinstance(cell["clean_score"], float)
            # SDC is corruption that evaded detection: never more of it
            # than there is corruption.
            assert cell["sdc_rate"] <= cell["corrupt_rate"] + 1e-12

        # float carries no adaptive register: the cell is a structural
        # gap (None), not a silently dropped key.
        fl = model["formats"]["float"]
        assert fl["exp_bias"] is None
        assert fl["exponent"] is not None

    def test_warm_rerun_is_byte_identical(self):
        # the top-level timing is measured per call (see the test below)
        first = _run()
        again = _run()
        first.pop("timing")
        again.pop("timing")
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(again, sort_keys=True)

    def test_warm_rerun_reports_its_own_wall_time(self):
        histogram = campaign._CELL_SECONDS._default

        def run_seed_one():
            # a seed no other test uses, so the first run computes every cell
            return campaign.run(profile="tiny", models=("transformer",),
                                formats=FORMATS, bits=8, fields=FIELDS,
                                trials=2, seed=1)

        before = histogram.count
        cold = run_seed_one()
        observed = histogram.count - before
        warm = run_seed_one()
        assert observed == cold["timing"]["cells"]
        assert histogram.count - before == observed  # cache hits add none
        cell_walls = sum(cell["timing"]["wall_time_s"]
                         for fmt in cold["models"]["transformer"]["formats"]
                         .values() for cell in fmt.values() if cell)
        assert warm["timing"]["wall_time_s"] \
            < min(cold["timing"]["wall_time_s"], cell_walls)
        cold.pop("timing")
        warm.pop("timing")
        assert json.dumps(cold, sort_keys=True) \
            == json.dumps(warm, sort_keys=True)

    def test_payloads_are_strict_json(self):
        result = _run()
        encoded = json.dumps(result, allow_nan=False, sort_keys=True)
        assert json.loads(encoded) is not None

    def test_render(self):
        text = campaign.render(_run())
        assert "Resilience - transformer" in text
        for fmt in FORMATS:
            assert fmt in text


class TestSharedCleanContext:
    """One clean context per (format, bits) inside a run, kept clean."""

    CELL = {"table": "resilience", "profile": "tiny",
            "model": "transformer", "format": "float", "bits": 8,
            "field": "exponent", "ber": None, "n_flips": 1, "trials": 6,
            "seed": 0}

    @staticmethod
    def _assert_clean(ctx):
        for name, param in ctx.model.named_parameters():
            assert param.data.dtype == np.float32
            assert param.data.tobytes() == ctx.clean_state[name].tobytes(), \
                name

    def _checked_chunks(self, monkeypatch):
        """Wrap run_chunk: after every chunk (raising or not), the shared
        context's parameters must be byte-equal to its clean state."""
        original = campaign.run_chunk
        seen = []

        def checked(cell):
            try:
                return original(cell)
            finally:
                (ctx,) = campaign._MEMO.contexts.values()
                self._assert_clean(ctx)
                seen.append(ctx)

        monkeypatch.setattr(campaign, "run_chunk", checked)
        return seen

    def test_cells_of_one_format_load_the_checkpoint_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_CACHE", "0")
        loads = []
        original = campaign.trained_model

        def counting(*args, **kwargs):
            loads.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(campaign, "trained_model", counting)
        seen = self._checked_chunks(monkeypatch)
        result = campaign.run(profile="tiny", models=("transformer",),
                              formats=("float",), bits=8,
                              fields=("any", "exponent"), trials=3, seed=0,
                              shards=2)
        # run()'s checkpoint warm-up, then one clean context for 4 chunks
        assert len(loads) == 2
        assert len(seen) == 4 and len({id(ctx) for ctx in seen}) == 1
        assert result["models"]["transformer"]["formats"]["float"][
            "exponent"]["trials"] == 3
        assert getattr(campaign._MEMO, "contexts", None) is None

    def test_parameters_stay_clean_after_a_raising_trial(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_CACHE", "0")
        seen = self._checked_chunks(monkeypatch)
        campaign.trained_model("transformer", "tiny")  # train outside
        bundle = get_bundle("transformer")
        original = bundle.evaluate
        calls = []

        def failing(*args, **kwargs):
            calls.append(kwargs)
            if len(calls) > 1:  # the clean score is the first call
                raise RuntimeError("evaluation failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(bundle, "evaluate", failing)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            campaign.run(profile="tiny", models=("transformer",),
                         formats=("float",), bits=8, fields=("exponent",),
                         trials=6, seed=0)
        assert len(seen) == 1 and len(calls) == 2
        assert getattr(campaign._MEMO, "contexts", None) is None

    def test_memo_is_keyed_on_the_cache_dir(self, monkeypatch, tmp_path):
        cell = dict(self.CELL, engine=True)
        with campaign._shared_clean_contexts():
            first = campaign._clean_context(cell, True)
            assert campaign._clean_context(
                dict(cell, field="any", seed=5), True) is first
            assert campaign._clean_context(cell, False) is not first
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
            moved = campaign._clean_context(cell, True)
            assert moved is not first
            assert list(campaign._MEMO.contexts.values()) == [moved]
        assert getattr(campaign._MEMO, "contexts", None) is None
        # outside run() nothing is shared
        assert campaign._clean_context(cell, True) \
            is not campaign._clean_context(cell, True)

"""Integration tests for the fault-injection campaign driver.

Runs at the 'tiny' profile: numbers are meaningless at this scale, so
assertions are structural (finite metrics, cache byte-stability); the
paper-shape claims (exponent flips hurting float more than AdaptivFloat)
live in the committed ``BENCH_resilience.json`` at the 'fast' profile.
"""

import json

import pytest

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

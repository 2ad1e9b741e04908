"""Integration smoke tests for the experiment drivers.

These run the full pipelines (training, PTQ, QAR, calibration,
rendering) at the 'tiny' profile: the *numbers* are meaningless at this
scale, so assertions are structural; the paper-shape assertions live in
``benchmarks/`` where the 'fast' profile is used.
"""

import math

import pytest

from repro.experiments import (common, fig1_weight_ranges, fig4_rms_error,
                               fig7_pe_sweep, table1_models,
                               table2_weight_quant, table3_weight_act_quant,
                               table4_accelerator)


@pytest.fixture(autouse=True)
def tiny_cache(tmp_path_factory, monkeypatch):
    """Isolated artifact cache shared across this module's tests."""
    cache = tmp_path_factory.getbasetemp() / "tiny_cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))


class TestCommon:
    def test_trained_model_caches(self):
        model1, _, score1 = common.trained_model("transformer", "tiny")
        model2, _, score2 = common.trained_model("transformer", "tiny")
        assert score1 == score2  # second call loaded from cache
        s1 = model1.state_dict()
        s2 = model2.state_dict()
        assert all((s1[k] == s2[k]).all() for k in s1)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            common.get_bundle("alexnet")

    def test_failure_scores(self):
        assert common.get_bundle("transformer").failure_score() == 0.0
        assert math.isinf(common.get_bundle("seq2seq").failure_score())

    @pytest.mark.parametrize("name", common.MODEL_NAMES)
    @pytest.mark.parametrize("training", [True, False])
    def test_evaluate_restores_the_callers_mode(self, name, training):
        bundle = common.get_bundle(name)
        model, task = bundle.build()
        model.train(training)
        bundle.evaluate(model, task, 4)
        assert {m.training for m in model.modules()} == {training}


class TestDrivers:
    def test_table1(self):
        result = table1_models.run(profile="tiny")
        assert {r["model"] for r in result["rows"]} \
            == {"transformer", "seq2seq", "resnet"}
        text = table1_models.render(result)
        assert "Table 1" in text and "93M" in text

    def test_fig1(self):
        result = fig1_weight_ranges.run(profile="tiny")
        assert result["nlp_over_cnn_span"] > 1.0
        assert "Figure 1" in fig1_weight_ranges.render(result)

    def test_fig4(self):
        result = fig4_rms_error.run(profile="tiny", bits_list=(8,),
                                    models=("resnet",))
        stats = result["models"]["resnet"][8]["adaptivfloat"]["stats"]
        assert stats["min"] <= stats["median"] <= stats["max"]
        assert "resnet" in fig4_rms_error.render(result)

    def test_table2(self):
        result = table2_weight_quant.run(
            profile="tiny", bits_list=(8,),
            formats=("uniform", "adaptivfloat"), models=("transformer",))
        cell = result["models"]["transformer"]["grid"][8]["adaptivfloat"]
        assert "ptq" in cell and "qar" in cell
        assert cell["ptq"] >= 0.0 and cell["qar"] >= 0.0
        assert "Table 2" in table2_weight_quant.render(result)

    def test_table2_without_qar(self):
        result = table2_weight_quant.run(
            profile="tiny", bits_list=(8,), formats=("adaptivfloat",),
            models=("resnet",), include_qar=False)
        cell = result["models"]["resnet"]["grid"][8]["adaptivfloat"]
        assert cell["qar"] is None
        assert "Table 2" in table2_weight_quant.render(result)

    def test_table3(self):
        result = table3_weight_act_quant.run(
            profile="tiny", bits_list=(8,), formats=("adaptivfloat",),
            models=("seq2seq",))
        value = result["models"]["seq2seq"]["grid"][8]["adaptivfloat"]
        assert value >= 0.0
        assert "W8/A8" in table3_weight_act_quant.render(result)

    def test_fig7(self):
        result = fig7_pe_sweep.run()
        assert len(result["points"]) == 12
        assert "Figure 7" in fig7_pe_sweep.render(result)

    def test_table4(self):
        result = table4_accelerator.run()
        assert result["rows"]["int"]["runtime_us"] > 0
        assert "Table 4" in table4_accelerator.render(result)

    def test_model_costs(self):
        from repro.experiments import model_costs
        result = model_costs.run(profile="tiny", models=("resnet",))
        row = result["rows"][0]
        assert row["macs"] > 0
        assert row["hfint_energy_uj"] < row["int_energy_uj"]
        assert "Extension" in model_costs.render(result)

    def test_ablations_driver(self):
        from repro.experiments import ablations
        result = ablations.run(profile="tiny", bits_list=(8,))
        assert 8 in result["adaptivity"]
        assert "Ablation A" in ablations.render(result)

    def test_activation_ranges(self):
        from repro.experiments import activation_ranges
        result = activation_ranges.run(profile="tiny", bits=4,
                                       models=("transformer",))
        payload = result["models"]["transformer"]
        assert payload["sites"], "no probed sites"
        assert 0.0 <= payload["mean_underflow"] <= 1.0
        assert "Activation ranges" in activation_ranges.render(result)

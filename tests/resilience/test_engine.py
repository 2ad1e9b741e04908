"""Equivalence tests for the trial-vectorized fault-injection engine.

Three contracts, all bit-level:

* :meth:`repro.resilience.engine.TrialEngine.faulty_tensor`'s sparse
  patch-decode must reproduce the naive ``inject_tensor`` -> full
  ``decode_tensor`` -> float32 path exactly, for every registry format,
  every injectable field, and both targeting modes (``n_flips``/BER) —
  property-tested over random tensors and fault draws;
* the word -> value decode LUT must agree with direct decode over the
  *entire* code space (and fall back cleanly above 16-bit words);
* a sharded campaign cell must merge to the serial cell's payload, and
  the engine loop must reproduce the naive loop's fault/detection/drift
  counters.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import FORMAT_NAMES, make_quantizer
from repro.formats.base import AdaptiveQuantizer
from repro.formats.codec import (MAX_DECODE_LUT_BITS, decode_lut,
                                 decode_tensor, decode_words)
from repro.nn import sanitize
from repro.nn.models import Seq2Seq, Transformer
from repro.resilience import campaign
from repro.resilience.engine import TrialEngine
from repro.resilience.inject import inject_tensor, register_spec


def _quantize(format_name, bits, x):
    quantizer = make_quantizer(format_name, bits)
    if isinstance(quantizer, AdaptiveQuantizer):
        params = quantizer.fit(x)
        values = quantizer.quantize_with_params(x, params)
    else:
        params = {}
        values = quantizer.quantize(x)
    return quantizer, values, params


def _fields_for(format_name, bits):
    fields = list(campaign.cell_fields(format_name, bits))
    assert "any" in fields
    return fields


# --------------------------------------------------------------- decode LUT
class TestDecodeLut:
    @pytest.mark.parametrize("fmt", FORMAT_NAMES)
    def test_lut_matches_direct_decode_over_code_space(self, fmt):
        rng = np.random.default_rng(3)
        quantizer, values, params = _quantize(fmt, 8, rng.normal(size=64))
        table = decode_lut(quantizer, params)
        assert table is not None and table.size == 256
        every_word = np.arange(256, dtype=np.uint32)
        with np.errstate(all="ignore"):
            direct = decode_tensor(quantizer, every_word, params)
        np.testing.assert_array_equal(
            np.asarray(table), np.asarray(direct, dtype=np.float64))

    def test_wide_words_fall_back_to_direct_decode(self):
        for fmt, bits, params in (("uniform", MAX_DECODE_LUT_BITS + 2,
                                   {"scale": 0.25, "zero_point": 3.0}),
                                  ("float", MAX_DECODE_LUT_BITS + 3, None)):
            quantizer = make_quantizer(fmt, bits)
            assert decode_lut(quantizer, params) is None
            words = np.arange(0, 1 << bits, 997, dtype=np.uint32)
            np.testing.assert_array_equal(
                decode_words(quantizer, words, params),
                decode_tensor(quantizer, words, params))


# ------------------------------------------------ patch-decode equivalence
word_cases = st.one_of(
    st.integers(min_value=1, max_value=6).map(lambda n: ("n_flips", n)),
    st.floats(min_value=0.001, max_value=0.08).map(lambda b: ("ber", b)))


@settings(max_examples=60, deadline=None)
@given(fmt=st.sampled_from(FORMAT_NAMES),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       scale=st.floats(min_value=0.01, max_value=50.0),
       case=word_cases,
       data=st.data())
def test_patch_decode_matches_naive_injection(fmt, seed, scale, case, data):
    """Engine faults are bit-identical to inject_tensor's, always."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=48) * scale
    quantizer, values, params = _quantize(fmt, 8, x)
    field = data.draw(st.sampled_from(_fields_for(fmt, 8)), label="field")
    kind, amount = case
    n_flips = amount if kind == "n_flips" else 1
    ber = amount if kind == "ber" else None
    if field == "exp_bias":
        ber = None  # register faults ignore word targeting modes

    engine = TrialEngine(quantizer, {"w": (values, params)})
    with np.errstate(all="ignore"):
        faulty_naive = np.asarray(
            inject_tensor(quantizer, values, params,
                          np.random.default_rng([seed, 1]), field=field,
                          n_flips=n_flips, ber=ber).values, dtype=np.float32)
    faulty_engine, _ = engine.faulty_tensor(
        "w", np.random.default_rng([seed, 1]), field, n_flips=n_flips,
        ber=ber)
    # uint32 views: NaN payloads and signed zeros must match too
    np.testing.assert_array_equal(
        faulty_engine.view(np.uint32),
        faulty_naive.reshape(faulty_engine.shape).view(np.uint32))


def test_engine_consumes_rng_stream_identically():
    """After one fault, naive and engine generators are in the same state."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=32)
    for fmt in FORMAT_NAMES:
        quantizer, values, params = _quantize(fmt, 8, x)
        engine = TrialEngine(quantizer, {"w": (values, params)})
        for field in _fields_for(fmt, 8):
            g1 = np.random.default_rng([5, 7])
            g2 = np.random.default_rng([5, 7])
            inject_tensor(quantizer, values, params, g1, field=field,
                          n_flips=2 if field != "exp_bias" else 1)
            engine.faulty_tensor("w", g2, field,
                                 n_flips=2 if field != "exp_bias" else 1)
            assert g1.integers(2**30) == g2.integers(2**30), (fmt, field)


def test_register_fault_requires_register():
    quantizer, values, params = _quantize("float", 8,
                                          np.linspace(-2, 2, 16))
    assert register_spec("float") is None
    engine = TrialEngine(quantizer, {"w": (values, params)})
    with pytest.raises(ValueError, match="no adaptive register"):
        engine.faulty_tensor("w", np.random.default_rng(0), "exp_bias")


# -------------------------------------------------- campaign-level contracts
TINY_CELL = {"table": "resilience", "profile": "tiny",
             "model": "transformer", "format": "float", "bits": 8,
             "field": "exponent", "ber": None, "n_flips": 1, "trials": 8,
             "seed": 0}


def _strip_timing(payload):
    return {k: v for k, v in payload.items() if k != "timing"}


class TestCampaignEquivalence:
    def test_sharded_chunks_merge_to_serial_payload(self):
        serial = campaign.run_cell(dict(TINY_CELL))
        chunks = [campaign.run_chunk(dict(TINY_CELL, engine=True,
                                          trial_start=start,
                                          trial_count=count))
                  for start, count in ((0, 3), (3, 2), (5, 3))]
        merged = campaign._merge_chunks(TINY_CELL, chunks)
        assert (json.dumps(_strip_timing(merged), sort_keys=True)
                == json.dumps(_strip_timing(serial), sort_keys=True))

    @pytest.mark.parametrize("fmt,field", [("float", "exponent"),
                                           ("adaptivfloat", "exp_bias"),
                                           ("uniform", "any")])
    def test_engine_counters_match_naive(self, fmt, field):
        cell = dict(TINY_CELL, format=fmt, field=field)
        eng = campaign.run_cell(dict(cell, engine=True))
        naive = campaign.run_cell(dict(cell, engine=False))
        for key in ("trials", "flips_total", "sdc_rate", "detection_rate",
                    "corrupt_rate", "nonfinite_logit_rate",
                    "masked_probe_rate", "mean_logit_rms_drift",
                    "max_logit_rms_drift", "detected_kinds", "clean_score",
                    "fp32_score"):
            assert eng[key] == naive[key], (fmt, field, key)
        assert 0.0 <= eng["masked_probe_rate"] <= 1.0

    @pytest.mark.parametrize("model,fmt,field,seed", [
        ("transformer", "float", "exponent", 0),
        ("seq2seq", "adaptivfloat", "exponent", 3)])
    def test_encoder_memory_reuse_scores_exactly(self, monkeypatch, model,
                                                 fmt, field, seed):
        """Trials on decoder-side targets reuse the clean encoder memory
        in the probe and the evaluation; with no masked trial every score
        is computed, so the engine's scores must equal the naive loop's.
        The probe's findings must include the encoder's, under the same
        layer name, whether the trial re-encodes or reuses."""
        cell = dict(TINY_CELL, model=model, format=fmt, field=field,
                    trials=6, seed=seed)
        reused = []
        original = campaign._CleanContext.reuses_memory

        def spy(ctx, target):
            reused.append(original(ctx, target))
            return reused[-1]

        monkeypatch.setattr(campaign._CleanContext, "reuses_memory", spy)
        # A clean encoder emits no finding, so make it emit one per call.
        model_cls = {"transformer": Transformer, "seq2seq": Seq2Seq}[model]
        encode = model_cls.encode

        def emitting(self, source):
            state = sanitize.current_state()
            if state is not None:
                layer = state.current_layer()
                state.emit(f"encode@{layer}", "encode", layer, "", {})
            return encode(self, source)

        monkeypatch.setattr(model_cls, "encode", emitting)
        eng = campaign.run_chunk(dict(cell, engine=True))
        naive = campaign.run_chunk(dict(cell, engine=False))
        assert True in reused and False in reused  # both kinds of target
        assert eng["masked"] == 0
        assert eng["detected_kinds"][f"encode@{model_cls.__name__}"] == 6
        assert _strip_timing(eng) == _strip_timing(naive)
        eng, naive = (campaign._merge_chunks(cell, [c]) for c in (eng, naive))
        assert eng["mean_score"] == naive["mean_score"]
        assert eng["worst_score"] == naive["worst_score"]

    def test_trial_count_defaults_cover_remainder(self):
        whole = campaign.run_chunk(dict(TINY_CELL, engine=True))
        tail = campaign.run_chunk(dict(TINY_CELL, engine=True,
                                       trial_start=5))
        assert whole["trial_count"] == TINY_CELL["trials"]
        assert tail["trial_start"] == 5
        assert tail["trial_count"] == TINY_CELL["trials"] - 5

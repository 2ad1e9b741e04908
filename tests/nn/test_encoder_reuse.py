"""Property tests for reusing a precomputed encoder memory.

The fault-injection campaign passes a clean ``memory`` to ``forward`` and
``greedy_decode`` whenever a fault sits outside the model's declared
``encoder_modules``.  That is exact only if

* ``encode`` reads no parameter outside the declared set, so perturbing
  any other parameter leaves its output bit-identical; and
* an eval-mode call given ``memory=model.encode(x)`` returns exactly what
  the same call without it returns.

Both are checked here on tiny configurations of the Transformer and the
Seq2Seq model, over random inputs, parameters and perturbations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.nn.models import (Seq2Seq, Seq2SeqConfig, Transformer,
                             TransformerConfig)


def _transformer():
    return Transformer(TransformerConfig(
        src_vocab=16, tgt_vocab=16, d_model=16, num_heads=2,
        num_encoder_layers=2, num_decoder_layers=1, d_ff=32, max_len=12),
        rng=np.random.default_rng(0))


def _seq2seq():
    return Seq2Seq(Seq2SeqConfig(input_dim=4, vocab=12, hidden=8,
                                 encoder_layers=2, attn_size=8, max_len=8),
                   rng=np.random.default_rng(0))


MODELS = {"transformer": _transformer, "seq2seq": _seq2seq}


def _source(kind, model, rng, batch):
    """A random encoder input: padded token ids or feature frames."""
    if kind == "transformer":
        cfg = model.config
        src = rng.integers(3, cfg.src_vocab, size=(batch, 6))
        for row in range(batch):
            src[row, rng.integers(2, 7):] = cfg.pad_id
        return src
    return rng.standard_normal((batch, 5, model.config.input_dim)
                               ).astype(np.float32)


def _targets(model, rng, batch):
    cfg = model.config
    vocab = cfg.tgt_vocab if isinstance(model, Transformer) else cfg.vocab
    tgt = rng.integers(3, vocab, size=(batch, 4))
    tgt[:, 0] = cfg.bos_id
    return tgt


def _encoder_param(model, name):
    return name.split(".", 1)[0] in model.encoder_modules


def _encode(model, src):
    with nn.no_grad():
        return model.encode(src).data.copy()


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_declared_encoder_modules_exist_and_hold_parameters(kind):
    model = MODELS[kind]()
    for name in model.encoder_modules:
        assert name in model._modules, name
    names = [n for n, _ in model.named_parameters()]
    assert any(_encoder_param(model, n) for n in names)
    assert any(not _encoder_param(model, n) for n in names)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_perturbing_the_encoder_set_changes_encode(kind):
    """The check below is not vacuous: encode does read the set."""
    model = MODELS[kind]().eval()
    src = _source(kind, model, np.random.default_rng(1), 2)
    before = _encode(model, src)
    for name, param in model.named_parameters():
        if _encoder_param(model, name):
            param.data = param.data + 0.5
    assert not np.array_equal(before, _encode(model, src))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(MODELS)), index=st.integers(0, 10**6),
       seed=st.integers(0, 2**16),
       value=st.sampled_from([0.0, -3.5, 1e30, np.inf, np.nan]))
def test_encode_ignores_parameters_outside_the_encoder_set(kind, index, seed,
                                                           value):
    model = MODELS[kind]().eval()
    rng = np.random.default_rng(seed)
    src = _source(kind, model, rng, 2)
    clean = _encode(model, src)
    outside = [(n, p) for n, p in model.named_parameters()
               if not _encoder_param(model, n)]
    name, param = outside[index % len(outside)]
    data = param.data.copy()
    data.reshape(-1)[rng.integers(data.size)] = value
    model.swap_parameter(name, rng.standard_normal(data.shape) * 3.0 + data)
    with np.errstate(all="ignore"):
        faulty = _encode(model, src)
    assert faulty.tobytes() == clean.tobytes(), name


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(MODELS)), seed=st.integers(0, 2**16),
       batch=st.integers(1, 3), use_cache=st.booleans())
def test_calls_with_a_precomputed_memory_equal_calls_without(kind, seed,
                                                             batch, use_cache):
    model = MODELS[kind]().eval()
    rng = np.random.default_rng(seed)
    # random weights away from the init, so decoding is not degenerate
    for name, param in model.named_parameters():
        param.data = (param.data * rng.uniform(0.5, 2.0)).astype(np.float32)
    src = _source(kind, model, rng, batch)
    tgt = _targets(model, rng, batch)
    with nn.no_grad():
        memory = model.encode(src)
        full = model(src, tgt).data
        reused = model(src, tgt, memory=memory).data
    assert reused.tobytes() == full.tobytes()
    plain = model.greedy_decode(src, max_len=6, use_cache=use_cache)
    given_memory = model.greedy_decode(src, max_len=6, use_cache=use_cache,
                                       memory=memory)
    np.testing.assert_array_equal(given_memory, plain)

"""Attention-based LSTM sequence-to-sequence model (Chorowski et al. [4]).

Stands in for the paper's LibriSpeech speech-to-text network (Table 1:
"Attention, LSTM, FC layers", 4-layer LSTM encoder + 1-layer LSTM
decoder).  The encoder consumes continuous acoustic-like feature frames;
the decoder is an LSTM cell with additive attention over encoder states
and an output generator.  Evaluated with word error rate (WER).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .. import functional as F
from ..decoding import pad_hypotheses
from ..layers import (AdditiveAttention, Dropout, Embedding, LSTM, LSTMCell,
                      Linear)
from ..module import Module
from ..tensor import Tensor, no_grad

__all__ = ["Seq2Seq", "Seq2SeqConfig"]


@dataclasses.dataclass
class Seq2SeqConfig:
    """Hyper-parameters for the scaled-down attention seq2seq model."""

    input_dim: int = 16          # acoustic feature dimension per frame
    vocab: int = 32
    hidden: int = 64
    encoder_layers: int = 2
    attn_size: int = 64
    dropout: float = 0.1
    max_len: int = 24
    pad_id: int = 0
    bos_id: int = 1
    eos_id: int = 2
    #: Moderate heavy-tailed init gains: the paper's seq2seq weight range
    #: ([-2.21, 2.39]) sits between the CNN and Transformer regimes.
    #: ``weight_gain_spread`` leptokurtifies every projection mildly.
    embedding_gain_spread: float = 6.0
    weight_gain_spread: float = 3.0


class Seq2Seq(Module):
    """LSTM encoder / attention LSTM decoder with greedy decoding."""

    #: The top-level submodules :meth:`encode` reads (its dropout holds no
    #: parameters).  A change to any other parameter leaves the encoder
    #: memory bit-identical, so it can be passed back in as ``memory``.
    encoder_modules = ("input_proj", "encoder")

    def __init__(self, config: Optional[Seq2SeqConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = cfg = config or Seq2SeqConfig()
        self.input_proj = Linear(cfg.input_dim, cfg.hidden, rng=rng)
        self.encoder = LSTM(cfg.hidden, cfg.hidden, cfg.encoder_layers, rng=rng)
        self.embed = Embedding(cfg.vocab, cfg.hidden, rng=rng)
        self.decoder_cell = LSTMCell(2 * cfg.hidden, cfg.hidden, rng=rng)
        self.attention = AdditiveAttention(cfg.hidden, cfg.hidden,
                                           cfg.attn_size, rng=rng)
        self.generator = Linear(2 * cfg.hidden, cfg.vocab, rng=rng)
        self.dropout = Dropout(cfg.dropout, rng=rng)
        from .. import init as _init
        # init-time rescale, before any autodiff graph exists
        for param in (self.embed.weight, self.generator.weight):
            param.data = _init.apply_row_gains(  # reprocheck: disable=AG001
                param.data, cfg.embedding_gain_spread, rng)
        for name, module in self.named_modules():
            if isinstance(module, (Linear, LSTMCell)) \
                    and module is not self.generator:
                for pname, param in module._parameters.items():
                    if pname.startswith("weight"):
                        param.data = _init.apply_row_gains(  # reprocheck: disable=AG001
                            param.data, cfg.weight_gain_spread, rng)

    # ------------------------------------------------------------- encoder
    def encode(self, frames: np.ndarray) -> Tensor:
        """``frames``: (B, T, input_dim) float array -> (B, T, hidden)."""
        x = F.tanh(self.input_proj(Tensor(frames)))
        out, _ = self.encoder(self.dropout(x))
        return out

    # ------------------------------------------------------------- decoder
    def _decode_step(self, token_emb: Tensor, state, memory: Tensor,
                     keys_proj: Optional[Tensor] = None):
        h_prev, _ = state
        context = self.attention(h_prev, memory, keys_proj=keys_proj)
        cell_in = F.cat([token_emb, context], axis=-1)
        h, c = self.decoder_cell(cell_in, state)
        logits = self.generator(F.cat([h, context], axis=-1))
        return logits, (h, c)

    def forward(self, frames: np.ndarray, tgt_ids: np.ndarray,
                memory: Optional[Tensor] = None) -> Tensor:
        """Teacher-forced logits: (B, T_tgt, vocab).

        ``tgt_ids`` is the *shifted-in* target (BOS-prefixed); ``memory``
        is a precomputed ``encode(frames)`` (``None`` encodes).
        """
        if memory is None:
            memory = self.encode(frames)
        batch, tgt_len = tgt_ids.shape
        state = self.decoder_cell.initial_state(batch)
        emb = self.embed(tgt_ids)
        steps = []
        for t in range(tgt_len):
            logits, state = self._decode_step(emb[:, t, :], state, memory)
            steps.append(logits.reshape(batch, 1, self.config.vocab))
        return F.cat(steps, axis=1)

    def beam_decode(self, frames: np.ndarray, beam_size: int = 4,
                    max_len: Optional[int] = None,
                    length_penalty: float = 0.6,
                    use_cache: bool = True) -> np.ndarray:
        """Length-normalized beam search over the decoder LSTM.

        ``use_cache=True`` (the default) advances all live hypotheses in
        one stacked recurrent step with a one-shot attention-key
        projection; ``use_cache=False`` is the naive one-candidate-at-a-
        time reference.  Both select the same candidates.
        """
        if beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {beam_size}")
        cfg = self.config
        max_len = max_len or cfg.max_len
        step = self._beam_one_cached if use_cache else self._beam_one
        results = []
        with no_grad():
            for i in range(frames.shape[0]):
                results.append(step(frames[i:i + 1], beam_size,
                                    max_len, length_penalty))
        return pad_hypotheses(results, cfg.pad_id)

    def _beam_one(self, frames: np.ndarray, beam_size: int, max_len: int,
                  alpha: float) -> list:
        cfg = self.config
        memory = self.encode(frames)
        init = self.decoder_cell.initial_state(1)
        beams = [([], 0.0, init, False)]  # (tokens, logp, state, finished)
        for step in range(max_len):
            candidates = []
            for tokens, logp, state, finished in beams:
                if finished:
                    candidates.append((tokens, logp, state, True))
                    continue
                prev = np.asarray([tokens[-1] if tokens else cfg.bos_id],
                                  dtype=np.int64)
                emb = self.embed(prev)
                logits, new_state = self._decode_step(emb, state, memory)
                raw = logits.data[0]
                shifted = raw - raw.max()
                logprobs = shifted - np.log(np.exp(shifted).sum())
                top = np.argsort(-logprobs)[:beam_size]
                for token in top:
                    candidates.append((tokens + [int(token)],
                                       logp + float(logprobs[token]),
                                       new_state, token == cfg.eos_id))

            def score(entry):
                tokens, logp, _, __ = entry
                norm = ((5.0 + max(len(tokens), 1)) / 6.0) ** alpha
                return logp / norm

            candidates.sort(key=score, reverse=True)
            beams = candidates[:beam_size]
            if all(f for _, __, ___, f in beams):
                break
        best = beams[0][0]
        if cfg.eos_id in best:
            best = best[:best.index(cfg.eos_id)]
        return best

    def _beam_one_cached(self, frames: np.ndarray, beam_size: int,
                         max_len: int, alpha: float) -> list:
        """Stacked beam step: all live hypotheses in one recurrent forward.

        The per-beam LSTM state rows ride in one ``(k, hidden)`` stack
        that is gathered to the surviving candidates' parent rows after
        every selection; the attention key projection is computed once
        per source.  Candidate construction, scoring, and (stable)
        selection order replicate :meth:`_beam_one` exactly.
        """
        cfg = self.config
        memory = self.encode(frames)                       # (1, T, hidden)
        keys_proj = self.attention.project_keys(memory)    # (1, T, attn)
        h0, c0 = self.decoder_cell.initial_state(1)
        h, c = h0.data, c0.data                            # (k, hidden) stacks
        beams = [([], 0.0, 0, False)]  # (tokens, logp, state row, finished)
        for step in range(max_len):
            live = [i for i, (_, __, ___, done) in enumerate(beams)
                    if not done]
            k = len(live)
            prev = np.asarray([beams[i][0][-1] if beams[i][0] else cfg.bos_id
                               for i in live], dtype=np.int64)
            rows = np.asarray([beams[i][2] for i in live], dtype=np.int64)
            state = (Tensor(h[rows]), Tensor(c[rows]))
            mem_k = Tensor(np.repeat(memory.data, k, axis=0))
            kp_k = Tensor(np.repeat(keys_proj.data, k, axis=0))
            logits, new_state = self._decode_step(self.embed(prev), state,
                                                  mem_k, keys_proj=kp_k)
            logits_k = logits.data
            row_of = {beam_idx: r for r, beam_idx in enumerate(live)}
            candidates = []  # (tokens, logp, parent state row, finished)
            for i, (tokens, logp, _, finished) in enumerate(beams):
                if finished:
                    candidates.append((tokens, logp, -1, True))
                    continue
                raw = logits_k[row_of[i]]
                shifted = raw - raw.max()
                logprobs = shifted - np.log(np.exp(shifted).sum())
                top = np.argsort(-logprobs)[:beam_size]
                for token in top:
                    candidates.append((tokens + [int(token)],
                                       logp + float(logprobs[token]),
                                       row_of[i], token == cfg.eos_id))

            def score(entry):
                tokens, logp, _, __ = entry
                norm = ((5.0 + max(len(tokens), 1)) / 6.0) ** alpha
                return logp / norm

            candidates.sort(key=score, reverse=True)
            beams, gather = [], []
            for tokens, logp, row, finished in candidates[:beam_size]:
                if finished:
                    beams.append((tokens, logp, -1, True))
                else:
                    beams.append((tokens, logp, len(gather), False))
                    gather.append(row)
            if all(f for _, __, ___, f in beams):
                break
            idx = np.asarray(gather, dtype=np.int64)
            h, c = new_state[0].data[idx], new_state[1].data[idx]
        best = beams[0][0]
        if cfg.eos_id in best:
            best = best[:best.index(cfg.eos_id)]
        return best

    def greedy_decode(self, frames: np.ndarray,
                      max_len: Optional[int] = None,
                      use_cache: bool = True,
                      memory: Optional[Tensor] = None) -> np.ndarray:
        """Greedy transcription; (B, <=max_len) ids, padded after EOS.

        ``use_cache=True`` (the default) projects the attention keys
        once per batch instead of once per step; the recurrent state is
        carried either way.  ``memory`` is a precomputed eval-mode
        ``encode(frames)``; ``None`` encodes.
        """
        cfg = self.config
        max_len = max_len or cfg.max_len
        batch = frames.shape[0]
        with no_grad():
            if memory is None:
                memory = self.encode(frames)
            keys_proj = self.attention.project_keys(memory) \
                if use_cache else None
            state = self.decoder_cell.initial_state(batch)
            token = np.full(batch, cfg.bos_id, dtype=np.int64)
            finished = np.zeros(batch, dtype=bool)
            outputs = []
            for _ in range(max_len):
                emb = self.embed(token)
                logits, state = self._decode_step(emb, state, memory,
                                                  keys_proj=keys_proj)
                token = logits.data.argmax(axis=-1)
                token = np.where(finished, cfg.pad_id, token)
                outputs.append(token)
                finished |= token == cfg.eos_id
                if finished.all():
                    break
        return np.stack(outputs, axis=1)

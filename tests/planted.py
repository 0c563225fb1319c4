"""A planted model: hand-set weights that show the paper's two mechanisms.

The fixture stands in for a trained model. Its encoder writes into one
channel the mean of a signed burst indicator over the keys each frame
attends, and its joint emits the token `a` when that mean is high, unless
a token since the last zero state pushes blank up by about 12 nats:

- the subsampler outputs x0 = (mean log-mel) and x1 = -x0, after a
  normalisation that makes bursts positive and silence negative;
- every feed-forward, convolution and attention output is zero, except
  layer 0, head 0, which attends uniformly (w_q = 0) and writes the mean of
  its attended keys' indicator into channel 2;
- the joint reads only channel 2 for `a`, and the LSTM's component 0,
  which is ~0.76 after any token and 0 in the zero state (start or SRS
  reset), for blank.

So a `dense` mask averages the indicator over the whole file, and a long
file's bursts are deleted; a `local` band averages over about 3.2 s, so
every burst emits. Without SRS a file emits once. The weights were fixed
from this recipe before any decode was compared; none was tuned. It shows
the mechanisms only and is no evidence about the paper's CER figures.
"""

from __future__ import annotations

import numpy as np

from sparse_rnnt.frontend import Waveform
from sparse_rnnt.model_io import ModelConfig, random_model

SEED = 7
BURST_START, BURST_LEN, PERIOD = 0.5, 2.0, 5.0  # seconds
# a token is in burst k when its time lies in [0.5 + 5k, 3.0 + 5k) s: the
# burst and the half second after it
BURST_TAIL = 0.5


def planted_model(cfg: ModelConfig | None = None):
    """`random_model(cfg, 7)` (the desk scale by default) with the planted
    weights; in every tensor touched here, each weight not set is 0."""
    cfg = ModelConfig.desk_scale() if cfg is None else cfg
    m = random_model(cfg, SEED)
    sub = m.subsample
    k, F, _ = sub.w1.shape
    for w in (sub.w1, sub.b1, sub.w2, sub.b2, sub.proj, sub.proj_b):
        w[...] = 0.0
    sub.w1[:, :, 0] = 1.0 / (k * F)  # channel 0: the window's mean feature
    sub.w1[:, :, 1] = -1.0 / (k * F)  # channel 1: its negation
    for c in (0, 1):
        sub.w2[:, c, c] = 1.0 / k
    sub.proj[0, 0], sub.proj[1, 0] = 1.0, -1.0  # x0 = c0 - c1
    sub.proj[0, 1], sub.proj[1, 1] = -1.0, 1.0  # x1 = -x0
    for block in m.blocks:
        for w in (block.ffn1.w2, block.ffn1.b2, block.ffn2.w2, block.ffn2.b2,
                  block.conv.pw2, block.conv.pb2, block.mh.w_p):
            w[...] = 0.0
        for head in block.mh.heads:
            head.w_q[...] = 0.0
            head.w_v[...] = 0.0
        for gain in (block.attn_norm_gain, block.final_norm_gain):
            gain[...] = 1.0
        for bias in (block.attn_norm_bias, block.final_norm_bias):
            bias[...] = 0.0
    m.blocks[0].mh.heads[0].w_v[0, 0] = 1.0
    m.blocks[0].mh.w_p[0, 2] = 1.0  # head 0's mean indicator into channel 2

    a = cfg.vocab.tokens.index("a")
    blank = cfg.vocab.blank_id
    jw = m.joint
    for w in (jw.enc_proj, jw.pred_proj, jw.bias, jw.out, jw.out_bias):
        w[...] = 0.0
    jw.enc_proj[2, 0] = 1.5
    jw.out[0, a] = 10.0
    jw.out_bias[a] = -2.0
    jw.pred_proj[0, 1] = 4.0
    jw.out[1, blank] = 12.0

    n = cfg.pred_dim
    lstm = m.prediction.lstm
    for w in (lstm.w_x, lstm.w_h, lstm.bias, m.prediction.embedding):
        w[...] = 0.0
    lstm.bias[:n] = 20.0  # input gate open
    lstm.bias[n:2 * n] = -20.0  # forget gate shut
    lstm.bias[3 * n:] = 20.0  # output gate open
    m.prediction.embedding[[t for t in range(len(cfg.vocab)) if t != blank], 0] = 1.0
    lstm.w_x[0, 2 * n] = 3.0  # a token drives g_0, and so the state's component 0
    return m


def burst_wav(seconds: float, sample_rate: int = 16000, seed: int = 0) -> Waveform:
    """σ 1e-3 noise throughout, plus σ 0.1 noise in the 2 s bursts that
    start at 0.5 s and every 5 s after, rounded to PCM16."""
    n = round(seconds * sample_rate)
    rng = np.random.default_rng(seed)
    floor = rng.normal(0.0, 1e-3, n)
    loud = rng.normal(0.0, 0.1, n)
    t = np.arange(n) / sample_rate
    x = floor + np.where((t >= BURST_START) & ((t - BURST_START) % PERIOD < BURST_LEN),
                         loud, 0.0)
    return Waveform(np.clip(np.round(x * 32768.0), -32768, 32767) / 32768.0, sample_rate)


def burst_of(time: float) -> int | None:
    """The burst a token at `time` s is in, or None for a gap."""
    k, offset = divmod(time - BURST_START, PERIOD)
    return int(k) if time >= BURST_START and offset < BURST_LEN + BURST_TAIL else None

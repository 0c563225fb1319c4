"""Test-only straight-line oracles, independent of the library code paths."""

from typing import NamedTuple

import numpy as np

from sparse_rnnt.attention import BandScores, score_blocks
from sparse_rnnt.numerics import layer_norm, sigmoid


def oracle_sparse_attend(z, mh, policy):
    """Direct evaluation: Q/K/V, row-mean thresholds, head fusion, masked
    softmax over explicit index sets, concatenation, post projection."""
    T = z.shape[0]
    H = len(mh.heads)
    per_head_e = []
    globals_per_head = []
    for head in mh.heads:
        q = z @ head.w_q
        k = z @ head.w_k
        e = q @ k.T / np.sqrt(head.w_q.shape[1])
        per_head_e.append(e)
        g_sets = []
        for i in range(T):
            mu = sum(e[i]) / T
            g_sets.append({j for j in range(T) if e[i, j] > mu})
        globals_per_head.append(g_sets)
    head_outs = []
    for h, head in enumerate(mh.heads):
        v = z @ head.w_v
        out = np.zeros((T, head.w_v.shape[1]))
        for i in range(T):
            if policy.w is None:
                s = set(range(T))
            else:
                s = {j for j in range(T) if abs(i - j) <= policy.w}
                if policy.fusion is not None:
                    if policy.fusion == "sgm2_per_head":
                        g = globals_per_head[h][i]
                    elif policy.fusion == "sgm3_and":
                        g = set.intersection(*[gp[i] for gp in globals_per_head])
                    else:
                        g = set.union(*[gp[i] for gp in globals_per_head])
                    s = s | g
            idx = sorted(s)
            sub = per_head_e[h][i, idx]
            weights = np.exp(sub - max(sub))
            weights = weights / weights.sum()
            out[i] = weights @ v[idx]
        head_outs.append(out)
    return np.concatenate(head_outs, axis=1) @ mh.w_p


def rowwise_sets(z, mh, policy, library_scores=False):
    """Each head's attended and global key sets, derived one query row at a
    time from the scores: (scores, attended, global), where scores(h, i,
    idx) gives head h's scores of row i at keys idx, and attended[h][i] /
    global_[h][i] are index arrays (global_ is None without a global mask).

    The scores are one full (T, T) gemm per head, or with library_scores
    those the library attends over: the blocks of score_blocks, or for
    `local` its band alone.
    """
    z = np.asarray(z, dtype=np.float64)
    T, H = z.shape[0], mh.num_heads
    q = np.stack([z @ head.w_q for head in mh.heads])
    k = np.stack([z @ head.w_k for head in mh.heads])
    if library_scores and policy.w is not None and policy.fusion is None:
        band = BandScores(q, k)

        def scores(h, i, idx):
            return band.at(np.array([i]), idx[None])[h, 0]
    else:
        if library_scores:
            e = np.concatenate([b.e for b in score_blocks(z, mh.heads, policy)], axis=1)
        else:
            e = np.stack([q[h] @ k[h].T / np.sqrt(q.shape[2]) for h in range(H)])

        def scores(h, i, idx):
            return e[h, i, idx]
    keys = np.arange(T)
    attended = [[None] * T for _ in range(H)]
    global_ = [[None] * T for _ in range(H)] if policy.fusion is not None else None
    for i in range(T):
        if policy.w is None:
            for h in range(H):
                attended[h][i] = keys
            continue
        band_row = np.abs(keys - i) <= policy.w
        g = None
        if global_ is not None:
            rows = [scores(h, i, keys) for h in range(H)]
            g = np.array([row > row.mean() for row in rows])
            if policy.fusion == "sgm3_and":
                g = np.broadcast_to(np.logical_and.reduce(g), g.shape)
            elif policy.fusion == "sgm1_or":
                g = np.broadcast_to(np.logical_or.reduce(g), g.shape)
        for h in range(H):
            attended[h][i] = np.flatnonzero(band_row if g is None else band_row | g[h])
            if g is not None:
                global_[h][i] = np.flatnonzero(g[h])
    return scores, attended, global_


def rowwise_sparse_attend(z, mh, policy, library_scores=False):
    """Attention one query row at a time, over the sets of rowwise_sets.

    Each row gathers its attended scores and values alone, so the
    vectorised kernel must match it bit for bit where both read the same
    scores.
    """
    z = np.asarray(z, dtype=np.float64)
    scores, attended, _ = rowwise_sets(z, mh, policy, library_scores)
    head_outputs = []
    for h, head in enumerate(mh.heads):
        v = z @ head.w_v
        out = np.empty((z.shape[0], head.inner_dim))
        for i, idx in enumerate(attended[h]):
            sub = scores(h, i, idx)
            weights = np.exp(sub - sub.max())
            out[i] = (weights / weights.sum()) @ v[idx]
        head_outputs.append(out)
    return np.concatenate(head_outputs, axis=1) @ mh.w_p


def oracle_conformer_block(x, block, policy):
    """Macaron block re-derived step by step with loops where convenient."""

    def swish(v):
        return v * sigmoid(v)

    def ffn(v, w):
        y = layer_norm(v, w.norm_gain, w.norm_bias)
        y = swish(y @ w.w1 + w.b1)
        return y @ w.w2 + w.b2

    x = x + 0.5 * ffn(x, block.ffn1)
    attn_in = layer_norm(x, block.attn_norm_gain, block.attn_norm_bias)
    x = x + oracle_sparse_attend(attn_in, block.mh, policy)
    cw = block.conv
    y = layer_norm(x, cw.norm_gain, cw.norm_bias)
    y = y @ cw.pw1 + cw.pb1
    k = cw.dw.shape[0]
    half = k // 2
    padded = np.pad(y, ((half, half), (0, 0)))
    conv = np.zeros_like(y)
    for t in range(y.shape[0]):
        for tap in range(k):
            conv[t] += padded[t + tap] * cw.dw[tap]
    conv = conv + cw.db
    x = x + swish(conv) @ cw.pw2 + cw.pb2
    x = x + 0.5 * ffn(x, block.ffn2)
    return layer_norm(x, block.final_norm_gain, block.final_norm_bias)


def oracle_log_mel_spectrogram(w, num_mels, fft_size):
    """Log-mel features one 10 ms frame at a time: window, power spectrum
    of an fft_size-point FFT, filterbank gemv, floored log."""
    from sparse_rnnt.frontend import _LOG_FLOOR, frame_lengths, mel_filterbank

    win, hop = frame_lengths(w.sample_rate)
    samples = w.samples
    T = 1 + (len(samples) - win) // hop if len(samples) >= win else 0
    window_fn = np.hanning(win)
    fb = mel_filterbank(fft_size, w.sample_rate, num_mels)
    frames = np.empty((T, num_mels))
    for t in range(T):
        seg = samples[t * hop : t * hop + win] * window_fn
        spectrum = np.abs(np.fft.rfft(seg, n=fft_size)) ** 2
        frames[t] = np.log(np.maximum(fb @ spectrum, _LOG_FLOOR))
    return frames


class LstmState(NamedTuple):
    """Hidden and cell vectors of an LSTM, as the oracles step them."""

    hidden: np.ndarray
    cell: np.ndarray

    @classmethod
    def zeros(cls, size):
        return cls(np.zeros(size), np.zeros(size))


def oracle_lstm_cell_step(x, state, weights):
    """The LSTM step on a raw input, every gate block taken on its own."""
    n = weights.cell_size
    gates = x @ weights.w_x + state.hidden @ weights.w_h + weights.bias
    i = sigmoid(gates[:n])
    f = sigmoid(gates[n : 2 * n])
    g = np.tanh(gates[2 * n : 3 * n])
    o = sigmoid(gates[3 * n :])
    c = f * state.cell + i * g
    h = o * np.tanh(c)
    return h, LstmState(h, c)


def oracle_predict_step(token_id, state, model):
    """(output, new state) from the embedding row (zero for the start
    symbol, None) with no cached product."""
    if token_id is None:
        emb = np.zeros(model.config.embed_dim)
    else:
        emb = model.prediction.embedding[token_id]
    return oracle_lstm_cell_step(emb, state, model.prediction.lstm)


def oracle_joint(h_t, g_u, model):
    """Joint network on a raw encoder frame and prediction output."""
    jw = model.joint
    z = np.tanh(h_t @ jw.enc_proj + g_u @ jw.pred_proj + jw.bias)
    logits = z @ jw.out + jw.out_bias
    shifted = logits - logits.max()
    return shifted - np.log(np.sum(np.exp(shifted)))


def prefix_of(tokens, frames):
    """A fresh prefix chain holding `tokens`, emitted at `frames`."""
    from sparse_rnnt.transducer import Prefix

    prefix = Prefix()
    for k, t in zip(tokens, frames, strict=True):
        prefix = Prefix(prefix, k, t)
    return prefix


def hypothesis_of(tokens, frames, log_prob, state, model):
    """A hypothesis on a fresh prefix chain and a new state holding the
    vectors of `state`, its joint projection formed with no cached product."""
    from sparse_rnnt.transducer import Hypothesis, PredictionState

    return Hypothesis(prefix_of(tokens, frames), log_prob, PredictionState(
        state.hidden, state.cell, state.hidden @ model.joint.pred_proj))


def eager_beam_search_step(h_i, hyps_prev, beam, model, frame_idx=0,
                           max_expansions=5):
    """The eager beam-search step: every non-blank child of every active
    hypothesis is stepped through the prediction network and built as a
    full hypothesis before the pool is merged and pruned. Prefixes are
    token tuples and the kernels the uncached oracle formulas above.
    Reference for the deferred-expansion `transducer.beam_search_step`.

    Returns (hypothesis, emitted) pairs: `emitted` is this step's own
    record of whether the hypothesis produced a token in the frame, kept
    apart from the frames on its prefix."""
    from dataclasses import dataclass, replace

    @dataclass
    class Hyp:
        tokens: tuple
        frames: tuple
        log_prob: float
        state: LstmState
        last_was_blank: bool

        def sort_key(self):
            return (-self.log_prob, self.tokens)

    @dataclass
    class Entry:
        hyp: Hyp
        active: bool
        emitted: bool

    def logsumexp(a, b):
        hi, lo = (a, b) if a >= b else (b, a)
        return hi + np.log1p(np.exp(lo - hi))

    def merge_and_prune(entries):
        merged = {}
        for ent in entries:
            key = (ent.hyp.tokens, ent.active)
            prev = merged.get(key)
            if prev is None:
                merged[key] = ent
            else:
                prev.hyp = replace(
                    prev.hyp, log_prob=logsumexp(prev.hyp.log_prob, ent.hyp.log_prob)
                )
                prev.emitted = prev.emitted or ent.emitted
        ranked = sorted(merged.values(), key=lambda e: e.hyp.sort_key())
        return ranked[:beam]

    def blank_child(ent, log_probs):
        return Entry(
            replace(ent.hyp, log_prob=ent.hyp.log_prob + log_probs[blank],
                    last_was_blank=not ent.emitted),
            active=False, emitted=ent.emitted,
        )

    blank = model.config.vocab.blank_id
    pool = [Entry(Hyp(h.tokens, h.frames, h.log_prob, h.state,
                      last_was_blank=True), active=True, emitted=False)
            for h in hyps_prev]
    for _ in range(max_expansions):
        actives = [e for e in pool if e.active]
        if not actives:
            break
        new_entries = [e for e in pool if not e.active]
        for ent in actives:
            log_probs = oracle_joint(h_i, ent.hyp.state.hidden, model)
            new_entries.append(blank_child(ent, log_probs))
            for k in range(len(log_probs)):
                if k == blank:
                    continue
                _, state = oracle_predict_step(k, ent.hyp.state, model)
                new_entries.append(Entry(
                    Hyp(ent.hyp.tokens + (k,), ent.hyp.frames + (frame_idx,),
                        ent.hyp.log_prob + log_probs[k], state, last_was_blank=False),
                    active=True, emitted=True,
                ))
        pool = merge_and_prune(new_entries)
    leftover = [e for e in pool if e.active]
    if leftover:
        finished = [e for e in pool if not e.active]
        for ent in leftover:
            finished.append(blank_child(
                ent, oracle_joint(h_i, ent.hyp.state.hidden, model)))
        pool = merge_and_prune(finished)
    return [(hypothesis_of(e.hyp.tokens, e.hyp.frames, e.hyp.log_prob,
                           e.hyp.state, model), not e.hyp.last_was_blank)
            for e in pool]


def frame_by_frame_decode(h, model, beam, srs):
    """`decode_with_srs` one frame at a time: one beam_search_step per
    frame, then the silence reset (none where srs is None) once more than
    t_sil frames in a row have had no hypothesis emit. Reference for the
    runs."""
    from sparse_rnnt.transducer import (Transcript, _best, beam_search_step,
                                        check_blank_token, reset_prediction_states,
                                        start_hypothesis)

    hyps, silent = [start_hypothesis(model)], 0
    for i in range(h.length):
        hyps = beam_search_step(h.h[i], hyps, beam, model, frame_idx=i)
        silent = silent + 1 if check_blank_token(hyps, i) else 0
        if srs is not None and silent > srs.t_sil:
            hyps = reset_prediction_states(hyps, model)
            silent = 0
    best = _best(hyps)
    return Transcript(best.tokens, best.frames, best.log_prob)


def oracle_srs_firings(t_sil, silences):
    """The frames on which SRS fires, given whether each frame was
    all-blank: where the running count of all-blank frames exceeds t_sil,
    the count then starting over."""
    fired, run = [], 0
    for i, silent in enumerate(silences):
        run = run + 1 if silent else 0
        if run > t_sil:
            fired.append(i)
            run = 0
    return fired


def scripted_srs_firings(monkeypatch, model):
    """decode_with_srs on a scripted silence: a function of (t_sil,
    silences) that steps through len(silences) frames one at a time (no
    runs), with frame i all-blank exactly where silences[i] is, and gives
    the frames on which the beam is reset. The beam step keeps its
    hypotheses: only the loop's silence count is under test."""
    from sparse_rnnt import transducer
    from sparse_rnnt.encoder import EncoderOutputs
    from sparse_rnnt.transducer import SrsParams

    script, fired, frame = [], [], [None]
    real_reset = transducer.reset_prediction_states

    def check_blank_token(hyps, i):
        frame[0] = i
        return script[i]

    def reset(hyps, model):
        fired.append(frame[0])
        return real_reset(hyps, model)

    monkeypatch.setattr(transducer, "beam_search_step", lambda h_i, hyps, *args, **kw: hyps)
    monkeypatch.setattr(transducer, "_template", lambda *args: None)
    monkeypatch.setattr(transducer, "check_blank_token", check_blank_token)
    monkeypatch.setattr(transducer, "reset_prediction_states", reset)

    def firings(t_sil, silences):
        script[:], fired[:] = silences, []
        h = EncoderOutputs(np.zeros((len(silences), model.config.encoder.model_dim)), 0.04)
        transducer.decode_with_srs(h, model, 1, SrsParams(t_sil))
        return fired

    return firings


def oracle_frame_energies_db(w):
    """Each frame's energy in dB, one frame at a time."""
    from sparse_rnnt.frontend import frame_lengths

    win, hop = frame_lengths(w.sample_rate)
    n = len(w.samples)
    if n < win:
        return np.empty(0)
    T = 1 + (n - win) // hop
    energies = np.empty(T)
    for t in range(T):
        seg = w.samples[t * hop : t * hop + win]
        energies[t] = 10.0 * np.log10(np.mean(seg ** 2) + 1e-12)
    return energies


def oracle_epd_split(w):
    """`segmentation.epd_split` as a per-frame loop that restarts its
    absorb scan after each merge and force-splits through a stack, then
    sorts. Reference for the single-pass epd_split."""
    from sparse_rnnt.frontend import WINDOW, frame_lengths
    from sparse_rnnt.segmentation import (ENERGY_THRESHOLD_DB, MAX_SEGMENT,
                                          MIN_SEGMENT, MIN_SILENCE, Segment)

    energies = oracle_frame_energies_db(w)
    if energies.size == 0:
        return []
    speech = energies > ENERGY_THRESHOLD_DB
    if not speech.any():
        return []
    # frame t starts t * hop whole samples in
    sr = w.sample_rate
    hop_n = frame_lengths(sr)[1]
    hop = hop_n / sr

    def frame_time(t):
        return t * hop_n / sr

    # frame runs of speech, merging gaps shorter than MIN_SILENCE
    min_gap = max(1, int(round(MIN_SILENCE / hop)))
    runs: list[list[int]] = []
    idx = np.flatnonzero(speech)
    start = prev = idx[0]
    for i in idx[1:]:
        if i - prev - 1 >= min_gap:
            runs.append([start, prev])
            start = i
        prev = i
    runs.append([start, prev])
    # to seconds; a frame spans [t*hop, t*hop + WINDOW)
    intervals = [[frame_time(s), frame_time(e) + WINDOW] for s, e in runs]
    # absorb too-short segments into the nearest neighbor
    changed = True
    while changed and len(intervals) > 1:
        changed = False
        for i, (s, e) in enumerate(intervals):
            if e - s < MIN_SEGMENT:
                if i == 0:
                    j = 1
                elif i == len(intervals) - 1:
                    j = i - 1
                else:
                    j = i - 1 if s - intervals[i - 1][1] <= intervals[i + 1][0] - e else i + 1
                lo, hi = min(i, j), max(i, j)
                intervals[lo] = [intervals[lo][0], intervals[hi][1]]
                del intervals[hi]
                changed = True
                break
    # force-split anything longer than MAX_SEGMENT into the fewest
    # pieces, each cut at its quietest frame
    final: list[list[float]] = []
    stack = list(intervals)
    while stack:
        s, e = stack.pop(0)
        if e - s <= MAX_SEGMENT:
            final.append([s, e])
            continue
        # cut only where the left piece stays within MAX_SEGMENT and the
        # right piece within the k - 1 that are left
        k = int(np.ceil((e - s) / MAX_SEGMENT))
        lo_t = max(s + MIN_SEGMENT, e - (k - 1) * MAX_SEGMENT)
        hi_t = min(e - MIN_SEGMENT, s + MAX_SEGMENT)
        f_lo = int(np.ceil(lo_t / hop))
        f_hi = max(f_lo + 1, int(np.floor(hi_t / hop)))
        window = energies[f_lo:f_hi]
        assert window.size, "the cut window holds no frame"
        cut = frame_time(f_lo + int(np.argmin(window)))
        final.append([s, cut])
        stack.insert(0, [cut, e])
    final.sort()
    dur = w.duration
    return [
        Segment(start=max(0.0, s), end=min(e, dur), core_start=max(0.0, s),
                core_end=min(e, dur))
        for s, e in final
        if e > s
    ]

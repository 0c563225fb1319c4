"""RNN-T decoding: prediction/joint networks, beam search, silence reset.

Beam search is time-synchronous with bounded within-frame expansion.
The silence reset (SRS) zeroes every hypothesis's prediction-network
state after more than t_sil consecutive frames in which no hypothesis
emitted a non-blank token.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .encoder import EncoderOutputs
from .errors import ParameterError, ShapeError, VocabularyError
from .numerics import RecurrentState, lstm_cell_step

__all__ = [
    "Hypothesis",
    "Transcript",
    "SrsParams",
    "SrsCounter",
    "predict_step",
    "joint",
    "beam_search_step",
    "check_blank_token",
    "reset_prediction_states",
    "decode_with_srs",
    "greedy_decode",
]


@dataclass
class Hypothesis:
    tokens: tuple[int, ...]
    frames: tuple[int, ...]  # encoder frame index of each emission
    log_prob: float
    pred_state: RecurrentState
    pred_out: np.ndarray  # prediction-network output for the current prefix
    last_was_blank: bool = True

    def sort_key(self):
        return (-self.log_prob, self.tokens)


@dataclass
class Transcript:
    token_ids: tuple[int, ...]
    frames: tuple[int, ...]
    log_prob: float

    def render(self, vocab) -> str:
        return vocab.render(self.token_ids)


@dataclass
class SrsParams:
    """Silence-triggered prediction-state reset parameters."""

    t_sil: int = 15
    enabled: bool = True

    def __post_init__(self):
        if self.t_sil < 1:
            raise ParameterError(f"t_sil must be >= 1, got {self.t_sil}")


class SrsCounter:
    """Counts consecutive all-blank steps; fires once the count exceeds t_sil."""

    def __init__(self, t_sil: int):
        self.t_sil = t_sil
        self.count = 0

    def update(self, all_blank: bool) -> bool:
        if not all_blank:
            self.count = 0
            return False
        self.count += 1
        if self.count > self.t_sil:
            self.count = 0
            return True
        return False


def predict_step(token_id, state: RecurrentState, model):
    """Advance the prediction network by one token (None = start symbol)."""
    if token_id is None:
        emb = np.zeros(model.config.embed_dim)
    else:
        vocab_size = len(model.config.vocab)
        if not 0 <= token_id < vocab_size:
            raise VocabularyError(
                f"token id {token_id} outside vocabulary of {vocab_size}"
            )
        emb = model.prediction.embedding[token_id]
    g, new_state = lstm_cell_step(emb, state, model.prediction.lstm)
    return g, new_state


def joint(h_t: np.ndarray, g_u: np.ndarray, model) -> np.ndarray:
    """Joint network: tanh combiner then log-softmax over the vocabulary."""
    jw = model.joint
    if h_t.shape[0] != jw.enc_proj.shape[0]:
        raise ShapeError(
            f"encoder frame dim {h_t.shape[0]} != joint input {jw.enc_proj.shape[0]}"
        )
    z = np.tanh(h_t @ jw.enc_proj + g_u @ jw.pred_proj + jw.bias)
    logits = z @ jw.out + jw.out_bias
    shifted = logits - logits.max()
    return shifted - np.log(np.sum(np.exp(shifted)))


def start_hypothesis(model) -> Hypothesis:
    g, state = predict_step(None, RecurrentState.zeros(model.config.pred_dim), model)
    return Hypothesis((), (), 0.0, state, g, last_was_blank=True)


def _logsumexp(a: float, b: float) -> float:
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + np.log1p(np.exp(lo - hi))


@dataclass
class _Entry:
    hyp: Hypothesis
    active: bool  # still expandable within the current frame
    emitted: bool  # emitted a non-blank token during the current frame


def _blank_child(ent: _Entry, log_probs: np.ndarray, blank: int) -> _Entry:
    """The entry's hypothesis closed with blank for the rest of the frame."""
    return _Entry(
        replace(
            ent.hyp,
            log_prob=ent.hyp.log_prob + log_probs[blank],
            last_was_blank=not ent.emitted,
        ),
        active=False,
        emitted=ent.emitted,
    )


def _merge_finished(entries: list[tuple[int, _Entry]]) -> list[tuple[int, _Entry]]:
    """Log-sum-exp merge of finished entries on identical prefixes.

    `entries` are (pool position, entry) pairs in pool order. The first
    entry with a prefix keeps its position, hypothesis and prediction
    state; later ones only add their score. Under SRS one prefix can
    reach the merge with two different states: a finished entry carried
    over from before a reset (zero state) and the same prefix re-emitted
    after it by a shorter one (a stepped state). Carried entries come
    first in pool order, so the carried state is the one kept. The rule
    is part of the output: keeping the other state changes transcripts.
    """
    merged: dict = {}
    for pos, ent in entries:
        first = merged.get(ent.hyp.tokens)
        if first is None:
            merged[ent.hyp.tokens] = (pos, ent)
        else:
            prev = first[1]
            prev.hyp = replace(
                prev.hyp, log_prob=_logsumexp(prev.hyp.log_prob, ent.hyp.log_prob)
            )
            prev.emitted = prev.emitted or ent.emitted
    return list(merged.values())


def _expand_round(
    h_i: np.ndarray,
    pool: list[_Entry],
    beam: int,
    model,
    frame_idx: int,
    grow: bool,
) -> list[_Entry]:
    """One expansion round: score from the joint, merge, prune, then step.

    Every active entry gets one joint call. Its blank child is finished;
    with `grow`, its non-blank children are candidates known only by
    (parent, token) and a score. Candidates are ranked on the key
    (-log_prob, tokens), exact ties kept in pool order, and the LSTM is
    stepped only for the children among the best `beam`. Children never
    merge with finished entries (the merge key includes `active`), and
    children of parents with distinct prefixes never merge at all; only
    a caller's hypothesis list can repeat a prefix.
    """
    blank = model.config.vocab.blank_id
    carried = [e for e in pool if not e.active]
    actives = [e for e in pool if e.active]
    log_probs = [joint(h_i, e.hyp.pred_out, model) for e in actives]
    V = len(model.config.vocab)
    # pool positions: carried entries first, then per active its blank
    # child followed by its non-blank children in token order
    base = len(carried)
    finished = _merge_finished(
        list(enumerate(carried))
        + [(base + a * V, _blank_child(e, lp, blank))
           for a, (e, lp) in enumerate(zip(actives, log_probs))]
    )
    n_fin = len(finished)
    scores = [e.hyp.log_prob for _, e in finished]
    positions = [pos for pos, _ in finished]
    rows: list[int] = []
    cols = [k for k in range(V) if k != blank]
    if grow and cols:
        kid = np.array([e.hyp.log_prob for e in actives])[:, None] + np.array(log_probs)
        kid = kid[:, cols]
        rows = _merge_children(actives, kid)
        kid_pos = base + np.array(rows)[:, None] * V + 1 + np.arange(len(cols))
        scores = np.concatenate([scores, kid[rows].ravel()])
        positions = np.concatenate([positions, kid_pos.ravel()])
    scores = np.asarray(scores, dtype=float)
    order = np.lexsort((positions, -scores))

    def child(f: int) -> tuple[Hypothesis, int]:
        r, c = divmod(f - n_fin, len(cols))
        return actives[rows[r]].hyp, cols[c]

    def tokens_of(f: int) -> tuple[int, ...]:
        if f < n_fin:
            return finished[f][1].hyp.tokens
        parent, k = child(f)
        return parent.tokens + (k,)

    # walk runs of equal score; only a run of ties needs the token tuples
    ranked = scores[order].tolist()
    chosen: list[int] = []
    i = 0
    while i < len(ranked) and len(chosen) < beam:
        j = i + 1
        while j < len(ranked) and ranked[j] == ranked[i]:
            j += 1
        run = order[i:j].tolist()
        if len(run) > 1:
            run.sort(key=tokens_of)
        chosen += run
        i = j
    out = []
    for f in chosen[:beam]:
        if f < n_fin:
            out.append(finished[f][1])
            continue
        parent, k = child(f)
        g, state = predict_step(k, parent.pred_state, model)
        out.append(_Entry(
            Hypothesis(parent.tokens + (k,), parent.frames + (frame_idx,),
                       scores[f], state, g, last_was_blank=False),
            active=True,
            emitted=True,
        ))
    return out


def _merge_children(actives: list[_Entry], kid: np.ndarray) -> list[int]:
    """Merge the children of parents that share a prefix, in pool order.

    Folds each later duplicate's row of child scores into its first
    parent's row with log-sum-exp and returns the rows that remain (all
    of them when the prefixes are distinct).
    """
    groups: dict = {}
    for a, ent in enumerate(actives):
        groups.setdefault(ent.hyp.tokens, []).append(a)
    for first, *rest in groups.values():
        for a in rest:
            for c in range(kid.shape[1]):
                kid[first, c] = _logsumexp(kid[first, c], kid[a, c])
    return [g[0] for g in groups.values()]


def beam_search_step(
    h_i: np.ndarray,
    hyps_prev: list[Hypothesis],
    beam: int,
    model,
    frame_idx: int = 0,
    max_expansions: int = 5,
) -> list[Hypothesis]:
    """Consume one encoder frame; every returned hypothesis has taken blank.

    Within the frame, hypotheses may emit up to max_expansions non-blank
    tokens; after each expansion round the pool is merged (log-sum-exp on
    identical prefixes) and pruned to the beam width. Ties break on the
    lexicographic token sequence. The prediction network is stepped only
    for the at most `beam` expansions that survive each round's prune.
    """
    if beam < 1:
        raise ParameterError(f"beam must be >= 1, got {beam}")
    if not hyps_prev:
        raise ParameterError("beam_search_step requires at least one hypothesis")
    pool = [_Entry(h, active=True, emitted=False) for h in hyps_prev]
    for _ in range(max_expansions):
        if not any(e.active for e in pool):
            break
        pool = _expand_round(h_i, pool, beam, model, frame_idx, grow=True)
    # force-terminate any hypotheses still mid-frame at the expansion cap
    if any(e.active for e in pool):
        pool = _expand_round(h_i, pool, beam, model, frame_idx, grow=False)
    return [e.hyp for e in pool]


def check_blank_token(hyps: list[Hypothesis]) -> bool:
    """True iff no hypothesis emitted a non-blank token at the last step."""
    if not hyps:
        raise ParameterError("check_blank_token requires at least one hypothesis")
    return all(h.last_was_blank for h in hyps)


def reset_prediction_states(hyps: list[Hypothesis], model) -> list[Hypothesis]:
    """Zero recurrent states (and thus outputs); prefixes and scores untouched."""
    n = model.config.pred_dim
    return [
        replace(h, pred_state=RecurrentState.zeros(n), pred_out=np.zeros(n))
        for h in hyps
    ]


def decode_with_srs(
    h: EncoderOutputs,
    model,
    beam: int = 4,
    srs: SrsParams | None = None,
    max_expansions: int = 5,
) -> Transcript:
    """Beam decoding over all encoder frames with the optional silence reset."""
    srs = srs or SrsParams()
    hyps = [start_hypothesis(model)]
    counter = SrsCounter(srs.t_sil)
    for i in range(h.length):
        hyps = beam_search_step(h.h[i], hyps, beam, model, frame_idx=i,
                                max_expansions=max_expansions)
        if srs.enabled and counter.update(check_blank_token(hyps)):
            hyps = reset_prediction_states(hyps, model)
    best = min(hyps, key=lambda hy: hy.sort_key())
    return Transcript(best.tokens, best.frames, best.log_prob)


def greedy_decode(h: EncoderOutputs, model, max_symbols: int = 5) -> Transcript:
    """Argmax decoding; baseline and the beam=1 oracle."""
    blank = model.config.vocab.blank_id
    hyp = start_hypothesis(model)
    tokens: list[int] = []
    frames: list[int] = []
    log_prob = 0.0
    state, g = hyp.pred_state, hyp.pred_out
    for i in range(h.length):
        emitted = 0
        while True:
            log_probs = joint(h.h[i], g, model)
            k = int(np.argmax(log_probs))
            if k == blank or emitted == max_symbols:
                log_prob += log_probs[blank]
                break
            tokens.append(k)
            frames.append(i)
            log_prob += log_probs[k]
            g, state = predict_step(k, state, model)
            emitted += 1
    return Transcript(tuple(tokens), tuple(frames), log_prob)

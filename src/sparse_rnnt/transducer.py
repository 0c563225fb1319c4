"""RNN-T decoding: prediction/joint networks, beam search, silence reset.

Beam search is time-synchronous with at most MAX_SYMBOLS non-blank
emissions per frame. The silence reset (SRS) zeroes every hypothesis's
prediction-network state after more than t_sil consecutive frames in which
no hypothesis produced a non-blank token.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .encoder import EncoderOutputs
from .errors import ParameterError, ShapeError, VocabularyError
from .numerics import RecurrentState, lstm_cell_step

__all__ = [
    "Prefix",
    "Hypothesis",
    "Transcript",
    "SrsParams",
    "SrsCounter",
    "predict_step",
    "frame_projection",
    "joint",
    "beam_search_step",
    "check_blank_token",
    "reset_prediction_states",
    "decode_with_srs",
    "greedy_decode",
]

# non-blank emissions allowed per encoder frame, in beam search and greedy
MAX_SYMBOLS = 5


def _hash_step(prefix_hash: int, token: int) -> int:
    """Hash of a prefix extended by one token, from the prefix's hash."""
    return hash((prefix_hash, token))


class Prefix:
    """A token sequence as its last token and a pointer to the rest.

    Extending a prefix by one token is O(1): the new node carries the
    length and a hash extended from its parent's (`_hash_step`), so it can
    key a dict in O(1) however long the sequence is. Prefixes built along
    different chains are equal when their tokens are; two with equal hash
    and length are compared token by token, so a hash collision never makes
    different sequences equal. Each node also keeps the encoder frame of its
    token. The root (no parent) is the empty prefix.
    """

    __slots__ = ("parent", "token", "frame", "length", "hash")

    def __init__(self, parent: Prefix | None = None, token: int = -1,
                 frame: int = -1):
        self.parent = parent
        self.token = token
        self.frame = frame
        if parent is None:
            self.length, self.hash = 0, 0
        else:
            self.length = parent.length + 1
            self.hash = _hash_step(parent.hash, token)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        a, b = self, other
        if a.hash != b.hash or a.length != b.length:
            return False
        while a is not b:  # stops at a shared node or past both roots
            if a.token != b.token:
                return False
            a, b = a.parent, b.parent
        return True

    def _nodes(self) -> list[Prefix]:
        nodes = []
        node = self
        while node.parent is not None:
            nodes.append(node)
            node = node.parent
        return nodes[::-1]

    def tokens(self) -> tuple[int, ...]:
        return tuple(node.token for node in self._nodes())

    def frames(self) -> tuple[int, ...]:
        return tuple(node.frame for node in self._nodes())


@dataclass(slots=True)
class Hypothesis:
    """A prefix, its score, and the prediction state and projection the
    prefix leaves. Whether it produced a token in frame i is read off its
    prefix: the last node's frame is i."""

    prefix: Prefix
    log_prob: float
    pred_state: RecurrentState  # its hidden vector is the prediction output
    pred_proj: np.ndarray  # pred_state.hidden @ joint.pred_proj

    @property
    def tokens(self) -> tuple[int, ...]:
        return self.prefix.tokens()

    @property
    def frames(self) -> tuple[int, ...]:
        """Encoder frame index of each emission."""
        return self.prefix.frames()


@dataclass
class Transcript:
    token_ids: tuple[int, ...]
    frames: tuple[int, ...]
    log_prob: float


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


def predict_step(tokens, hidden: np.ndarray, cell: np.ndarray, model):
    """Advance the prediction network by one token on each of B rows.

    `tokens` holds B token ids (None = start symbol) and hidden/cell are
    the rows' (B, pred_dim) states. Returns the B new states and their
    outputs' share of every joint call that reads them, the (B, joint_dim)
    rows hidden @ joint.pred_proj, each its own gemv.
    """
    pred = model.prediction
    V = len(pred.embedding)
    for k in tokens:
        if k is not None and not 0 <= k < V:
            raise VocabularyError(f"token id {k} outside vocabulary of {V}")
    # -1: the start symbol's row of input_gates
    x_gates = pred.input_gates[[-1 if k is None else k for k in tokens]]
    h, c = lstm_cell_step(x_gates, hidden, cell, pred.lstm)
    return RecurrentState.rows(h, c), (h[:, None, :] @ model.joint.pred_proj)[:, 0]


def frame_projection(h_t: np.ndarray, model) -> np.ndarray:
    """Encoder frames' share of every joint call on them, h_t @ joint.enc_proj:
    (joint_dim,) for one frame, (L, joint_dim) for a block of L frames. Each
    frame is its own gemv, so a row has the bits of its lone product."""
    enc_proj = model.joint.enc_proj
    if h_t.shape[-1] != enc_proj.shape[0]:
        raise ShapeError(
            f"encoder frame dim {h_t.shape[-1]} != joint input {enc_proj.shape[0]}"
        )
    return h_t @ enc_proj if h_t.ndim == 1 else (h_t[:, None, :] @ enc_proj)[:, 0]


def joint(frame_proj: np.ndarray, pred_projs: np.ndarray, model) -> np.ndarray:
    """Joint network on cached projections: tanh combiner, then log-softmax
    over the vocabulary. Takes one frame's and A prefixes' (A, joint_dim),
    giving (A, V), or L frames' (L, joint_dim) and one prefix's, giving (L,
    V). Each row's output product is its own gemv, so a row has the bits of
    the joint taken on it alone."""
    jw = model.joint
    z = np.tanh(frame_proj + pred_projs + jw.bias)
    logits = (z[:, None, :] @ jw.out)[:, 0] + jw.out_bias
    # the ufunc reductions np.max/np.sum call, without their wrappers
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def start_hypothesis(model) -> Hypothesis:
    zero = np.zeros((1, model.config.pred_dim))
    (state,), (proj,) = predict_step([None], zero, zero, model)
    return Hypothesis(Prefix(), 0.0, state, proj)


def _logsumexp(a: float, b: float) -> float:
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + np.log1p(np.exp(lo - hi))


@functools.cache
def _child_tokens(V: int, blank: int) -> np.ndarray:
    """Token of each child column: the blank child first, then the
    non-blank tokens in order. Shared by every caller, so read-only."""
    tokens = np.array([blank] + [k for k in range(V) if k != blank])
    tokens.setflags(write=False)
    return tokens


def _merge_finished(scores: np.ndarray, finished, dropped: list[int]) -> None:
    """Log-sum-exp merge of finished candidates on identical prefixes.

    `finished` are (position, prefix) pairs in position order and `scores`
    is indexed by position. The first candidate with a prefix keeps its
    position, hypothesis and prediction state and takes the merged score;
    later ones go to `dropped`. Under SRS one prefix can reach the merge
    with two different states: a finished entry carried over from before
    a reset (zero state) and the same prefix produced again after it by a
    shorter one (a stepped state). Carried entries have the lower
    positions, so the carried state is the one kept. The rule is part of the
    output: keeping the other state changes transcripts.
    """
    first: dict = {}
    for pos, prefix in finished:
        kept = first.setdefault(prefix, pos)
        if kept != pos:
            scores[kept] = _logsumexp(scores[kept], scores[pos])
            dropped.append(pos)


def _merge_children(scores: np.ndarray, actives: list[Hypothesis], base: int,
                    V: int, dropped: list[int]) -> None:
    """Merge the children of parents that share a prefix, in list order.

    Folds each later duplicate's non-blank children into its first
    parent's with log-sum-exp and drops them; a no-op when the prefixes
    are distinct.
    """
    first: dict = {}
    for a, hyp in enumerate(actives):
        kept = first.setdefault(hyp.prefix, a)
        if kept != a:
            for c in range(1, V):
                i, j = base + kept * V + c, base + a * V + c
                scores[i] = _logsumexp(scores[i], scores[j])
                dropped.append(j)


def _joint_rows(frame_proj: np.ndarray, actives: list[Hypothesis], scored,
                model) -> np.ndarray:
    """Joint rows of `actives` on one frame, in one joint call.

    `scored` holds the (hypotheses, rows) of the frame's earlier rounds to
    read, if any: an active whose pred_proj is an array scored there (or
    an earlier active's) takes that row, and only the others are scored.
    A row has the bits of its lone call either way.
    """
    if not scored:
        return joint(frame_proj, np.array([h.pred_proj for h in actives]), model)
    # keyed on arrays that `scored` and `actives` hold for the whole call
    row_of, rows = {}, []
    for hyps, block in scored:
        for h, row in zip(hyps, block):
            row_of.setdefault(id(h.pred_proj), len(rows))
            rows.append(row)
    index, new = [], []
    for h in actives:
        i = row_of.get(id(h.pred_proj))
        if i is None:
            i = row_of[id(h.pred_proj)] = len(rows) + len(new)
            new.append(h.pred_proj)
        index.append(i)
    if new:
        rows.extend(joint(frame_proj, np.array(new), model))
    return np.array(rows)[index]


def _step(grown, model) -> list:
    """(state, pred_proj) of each (parent, token, score) child, from one
    predict_step call."""
    states, projs = predict_step(
        [k for _, k, _ in grown],
        np.array([h.pred_state.hidden for h, _, _ in grown]),
        np.array([h.pred_state.cell for h, _, _ in grown]),
        model,
    )
    return list(zip(states, projs))


def _step_cached(grown, model) -> tuple[list, bool]:
    """_step through the parents' caches, and whether any child was reused.

    A parent state keeps, in its `children`, the (state, pred_proj) stepped
    from it by each token: a child stepped before, on this frame or an
    earlier one, is that same pair. The others are stepped in one call and
    kept. Equal pairs are equal bits, since each row of predict_step is its
    own gemv. A reset makes a new zero state, so nothing stepped before it
    is reused after it.
    """
    todo = []
    for g in grown:
        h, k, _ = g
        kids = h.pred_state.children
        if kids is None:
            kids = h.pred_state.children = {}
        if k not in kids:
            kids[k] = None  # stepped below, once
            todo.append(g)
    if todo:
        for (h, k, _), kid in zip(todo, _step(todo, model)):
            h.pred_state.children[k] = kid
    return ([h.pred_state.children[k] for h, k, _ in grown],
            len(todo) < len(grown))


def _prune_children(hyps: list[Hypothesis]) -> None:
    """Keep cached children only on the states `hyps` hold: a cached child
    they do not hold drops its own cache. Every state with a cache is then
    held, so at most len(hyps) * (V - 1) children stay cached."""
    held = {id(h.pred_state) for h in hyps}  # states `hyps` hold
    for h in hyps:
        kids = h.pred_state.children
        if kids:
            for state, _ in kids.values():
                if id(state) not in held:
                    state.children = None


def _break_ties(order: list[int], scores: np.ndarray, beam: int,
                finished: list[Hypothesis], actives: list[Hypothesis], V: int,
                tokens: np.ndarray) -> list[int]:
    """The best `beam` positions of `order`, which is in (-score, position)
    order, after each run of exactly equal scores is sorted on its token
    sequences (a stable sort, so equal keys keep position order). Token
    tuples are built only for the runs walked."""
    base = len(finished)

    def tokens_of(pos: int) -> tuple[int, ...]:
        if pos < base:
            return finished[pos].tokens
        a, c = divmod(pos - base, V)
        return actives[a].tokens + ((int(tokens[c]),) if c else ())

    chosen: list[int] = []
    i = 0
    while i < len(order) and len(chosen) < beam:
        j = i + 1
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            j += 1
        run = order[i:j]
        if len(run) > 1:
            run.sort(key=tokens_of)
        chosen += run
        i = j
    return chosen[:beam]


def _expand_round(
    frame_proj: np.ndarray,
    finished: list[Hypothesis],
    actives: list[Hypothesis],
    beam: int,
    model,
    frame_idx: int,
    grow: bool,
    cached: bool,
    scored: list,
) -> tuple[list[Hypothesis], list[Hypothesis], bool]:
    """One expansion round: score from the joint, merge, prune, then step.

    `finished` have taken blank in this frame and `actives` may still
    emit in it. One joint call scores every active; the round's (actives,
    rows) go on `scored`, the frame's list. Its blank child is finished;
    with `grow`, its non-blank children are candidates too. Candidates are
    known by their position and a score until they survive: positions
    number the carried finished hypotheses first, then per active its
    blank child followed by its non-blank children in token order.
    Candidates are ranked on the key (-log_prob, tokens), exact ties kept
    in position order, and only the best `beam` survive; one predict_step
    call steps the children among them. Returns the survivors as
    (finished, actives), each in rank order, and whether a child was
    reused. Children never merge with finished hypotheses, and children of
    parents with distinct prefixes never merge at all; only a caller's
    hypothesis list can repeat a prefix.

    With `cached`, children are stepped through their parents' caches
    (`_step_cached`), and an active takes a row scored earlier in the
    frame (`_joint_rows`). Only states carried in from earlier frames or
    reused in the round before can hold a cache or such a row, so other
    rounds skip both.
    """
    blank = model.config.vocab.blank_id
    V = len(model.config.vocab)
    base = len(finished)
    tokens = _child_tokens(V, blank)
    log_probs = _joint_rows(frame_proj, actives, scored if cached else None, model)
    scored.append((actives, log_probs))
    kid = (np.array([h.log_prob for h in actives])[:, None]
           + log_probs.take(tokens, axis=1))
    scores = np.concatenate([[h.log_prob for h in finished], kid.ravel()])
    dropped: list[int] = []
    _merge_finished(scores, [(pos, h.prefix) for pos, h in enumerate(finished)]
                    + [(base + a * V, h.prefix) for a, h in enumerate(actives)],
                    dropped)
    if grow:
        _merge_children(scores, actives, base, V, dropped)
    # a stable sort of candidates in position order on -score ranks them
    # on (-score, position)
    if grow and not dropped:  # every position is a candidate
        order = np.argsort(-scores, kind="stable")
    else:
        keep = np.ones(len(scores), dtype=bool)
        if not grow:
            keep[base:] = False
            keep[base::V] = True
        keep[dropped] = False
        candidates = np.flatnonzero(keep)
        order = candidates[np.argsort(-scores[candidates], kind="stable")]
    head = order[:beam + 1]
    top = scores[head].tolist()
    if len(set(top)) == len(top):  # no exact tie decides who survives
        chosen = head[:beam].tolist()
    else:
        chosen = _break_ties(order.tolist(), scores, beam, finished, actives, V, tokens)
    done: list[Hypothesis] = []
    grown = []  # (parent, token, score) of each surviving child
    for pos in chosen:
        if pos < base:
            h = finished[pos]
            if scores[pos] != h.log_prob:  # the merge changed its score
                h = Hypothesis(h.prefix, scores[pos], h.pred_state, h.pred_proj)
            done.append(h)
            continue
        a, c = divmod(pos - base, V)
        h = actives[a]
        if c == 0:  # closed with blank for the rest of the frame
            done.append(Hypothesis(h.prefix, scores[pos], h.pred_state, h.pred_proj))
        else:
            grown.append((h, int(tokens[c]), scores[pos]))
    if not grown:
        return done, [], False
    kids, reused = _step_cached(grown, model) if cached else (_step(grown, model), False)
    return (done, [Hypothesis(Prefix(h.prefix, k, frame_idx), score, state, proj)
                   for (h, k, score), (state, proj) in zip(grown, kids)],
            reused)


def beam_search_step(
    h_i: np.ndarray,
    hyps_prev: list[Hypothesis],
    beam: int,
    model,
    frame_idx: int = 0,
    max_expansions: int = MAX_SYMBOLS,
) -> list[Hypothesis]:
    """Consume one encoder frame; every returned hypothesis has taken blank.

    Within the frame, hypotheses may emit up to max_expansions non-blank
    tokens; after each expansion round the hypotheses are merged
    (log-sum-exp on identical prefixes) and pruned to the beam width. Ties
    break on the lexicographic token sequence. The prediction network is
    stepped only for the at most `beam` expansions that survive each
    round's prune, and once per parent state and token: a child stepped
    on an earlier frame is reused, and so is the joint row of a state
    already scored on this frame.
    """
    if beam < 1:
        raise ParameterError(f"beam must be >= 1, got {beam}")
    if not hyps_prev:
        raise ParameterError("beam_search_step requires at least one hypothesis")
    frame_proj = frame_projection(h_i, model)
    finished, actives = [], list(hyps_prev)
    scored: list = []  # (actives, joint rows) of each round
    cached = True  # the first round's parents were carried in
    for r in range(max_expansions + 1):
        if not actives:
            break
        # the round past the cap force-terminates hypotheses still mid-frame
        finished, actives, cached = _expand_round(
            frame_proj, finished, actives, beam, model, frame_idx,
            grow=r < max_expansions, cached=cached, scored=scored)
    _prune_children(finished)
    return finished


def check_blank_token(hyps: list[Hypothesis], frame_idx: int) -> bool:
    """True iff no hypothesis produced a non-blank token in frame
    `frame_idx`, that is, none has its last token there."""
    if not hyps:
        raise ParameterError("check_blank_token requires at least one hypothesis")
    return all(h.prefix.frame != frame_idx for h in hyps)


def reset_prediction_states(hyps: list[Hypothesis], model) -> list[Hypothesis]:
    """Zero recurrent states, and with them outputs and their joint
    projections; prefixes and scores untouched."""
    state = RecurrentState.zeros(model.config.pred_dim)
    proj = state.hidden @ model.joint.pred_proj
    return [replace(h, pred_state=state, pred_proj=proj) for h in hyps]


def _best(hyps: list[Hypothesis]) -> Hypothesis:
    """The first hypothesis in (-log_prob, tokens) order; token tuples are
    built only to break an exact tie for the best score."""
    top = max(h.log_prob for h in hyps)
    tied = [h for h in hyps if h.log_prob == top]
    return tied[0] if len(tied) == 1 else min(tied, key=lambda h: h.tokens)


def decode_with_srs(
    h: EncoderOutputs,
    model,
    beam: int = 4,
    srs: SrsParams | None = None,
) -> Transcript:
    """Beam decoding over all encoder frames with the optional silence reset.

    At beam 1 the frames after one that emitted nothing go in runs (label
    looping): with the prediction state fixed, one joint call scores a run
    and its all-blank prefix is taken in one step; the first frame where a
    token beats blank (blank wins ties) goes through beam_search_step. A run
    is one frame, then doubles while all-blank, up to the next reset.
    """
    srs = srs or SrsParams()
    blank = model.config.vocab.blank_id
    hyps = [start_hypothesis(model)]
    counter = SrsCounter(srs.t_sil)
    projs = None  # every frame's projection, formed when the first run starts
    run = 0  # frames the next beam-1 run scores; 0: the next frame goes alone
    i = 0
    while i < h.length:
        if run:
            if projs is None:
                projs = frame_projection(h.h, model)
            (hyp,) = hyps
            n = min(run, h.length - i,
                    srs.t_sil + 1 - counter.count if srs.enabled else h.length)
            log_probs = joint(projs[i:i + n], hyp.pred_proj[None], model)
            # sequential sums: entry r + 1 has the bits of the per-frame scores
            cum = np.cumsum(np.concatenate([[hyp.log_prob], log_probs[:, blank]]))
            beaten = ~(cum[:-1, None] + log_probs <= cum[1:, None]).all(axis=1)
            k = int(beaten.argmax()) if beaten.any() else n
            if k:
                hyps = [Hypothesis(hyp.prefix, cum[k], hyp.pred_state, hyp.pred_proj)]
                i += k
                # runs end by the reset, so only their last frame can fire it
                if srs.enabled and [counter.update(True) for _ in range(k)][-1]:
                    hyps = reset_prediction_states(hyps, model)
            if k == n:
                run = 2 * n
                continue
        hyps = beam_search_step(h.h[i], hyps, beam, model, frame_idx=i)
        all_blank = check_blank_token(hyps, i)
        if srs.enabled and counter.update(all_blank):
            hyps = reset_prediction_states(hyps, model)
        run = int(beam == 1 and all_blank)
        i += 1
    best = _best(hyps)
    return Transcript(best.tokens, best.frames, best.log_prob)


def greedy_decode(h: EncoderOutputs, model) -> Transcript:
    """Argmax decoding on the beam search's kernels; baseline and the beam=1
    oracle. Like the beam, it ranks the running scores log_prob + log_probs,
    and blank wins an exact tie."""
    blank = model.config.vocab.blank_id
    hyp = start_hypothesis(model)
    tokens: list[int] = []
    frames: list[int] = []
    log_prob = 0.0
    state, proj = hyp.pred_state, hyp.pred_proj[None]
    for i in range(h.length):
        frame_proj = frame_projection(h.h[i], model)
        symbols = 0
        while True:
            (log_probs,) = joint(frame_proj, proj, model)
            scores = log_prob + log_probs
            k = int(np.argmax(scores))
            if k == blank or scores[blank] >= scores[k] or symbols == MAX_SYMBOLS:
                log_prob = scores[blank]
                break
            tokens.append(k)
            frames.append(i)
            log_prob = scores[k]
            (state,), proj = predict_step([k], state.hidden[None],
                                          state.cell[None], model)
            symbols += 1
    return Transcript(tuple(tokens), tuple(frames), log_prob)

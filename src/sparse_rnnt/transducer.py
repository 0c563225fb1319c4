"""RNN-T decoding: prediction/joint networks, beam search, silence reset.

Beam search is time-synchronous with at most MAX_SYMBOLS non-blank
emissions per frame. The silence reset (SRS) zeroes every hypothesis's
prediction-network state after more than t_sil consecutive frames in which
no hypothesis produced a non-blank token.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderOutputs, check_int_and_bool_fields
from .errors import ParameterError, ShapeError, VocabularyError
from .numerics import lstm_cell_step

__all__ = [
    "Prefix",
    "PredictionState",
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


class PredictionState:
    """The prediction network's state after a prefix: the LSTM's hidden and
    cell vectors, `proj` = hidden @ joint.pred_proj (their share of every
    joint call), and `children`, beam search's cache of the states stepped
    from this one, by token. Only the cache ever changes."""

    __slots__ = ("hidden", "cell", "proj", "children")

    def __init__(self, hidden: np.ndarray, cell: np.ndarray, proj: np.ndarray):
        self.hidden, self.cell, self.proj = hidden, cell, proj
        self.children: dict[int, PredictionState] | None = None


@dataclass(slots=True)
class Hypothesis:
    """A prefix, its score, and the prediction state the prefix leaves.
    Whether it produced a token in frame i is read off its prefix: the
    last node's frame is i."""

    prefix: Prefix
    log_prob: float
    state: PredictionState

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
        check_int_and_bool_fields(self)


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
    the rows' (B, pred_dim) states. Returns the B new states, whose
    vectors are rows (views) of the stacked output: hidden, cell and their
    projection hidden @ joint.pred_proj, each row its own gemv.
    """
    pred = model.prediction
    V = len(pred.embedding)
    for k in tokens:
        if k is not None and not 0 <= k < V:
            raise VocabularyError(f"token id {k} outside vocabulary of {V}")
    # -1: the start symbol's row of input_gates
    x_gates = pred.input_gates[[-1 if k is None else k for k in tokens]]
    h, c = lstm_cell_step(x_gates, hidden, cell, pred.lstm)
    projs = (h[:, None, :] @ model.joint.pred_proj)[:, 0]
    return list(map(PredictionState, h, c, projs))


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
    giving (A, V), or L frames' (L, 1, joint_dim) and S prefixes', giving
    (L, S, V). Each row's output product is its own gemv, so a row has the
    bits of the joint taken on it alone."""
    jw = model.joint
    z = np.tanh(frame_proj + pred_projs + jw.bias)
    logits = (z[..., None, :] @ jw.out)[..., 0, :] + jw.out_bias
    # the ufunc reductions np.max/np.sum call, without their wrappers
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def start_hypothesis(model) -> Hypothesis:
    zero = np.zeros((1, model.config.pred_dim))
    (state,) = predict_step([None], zero, zero, model)
    return Hypothesis(Prefix(), 0.0, state)


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


def _joint_rows(frame_proj: np.ndarray, actives: list[Hypothesis], rows: dict,
                model) -> np.ndarray:
    """Joint rows of `actives` on one frame, in at most one joint call.

    `rows` is the frame's table of each scored state's row: an active whose
    state has a row takes it, and the other states are scored in one call
    and join the table. A row has the bits of its lone call either way.
    """
    states = [h.state for h in actives]
    new = list(dict.fromkeys(s for s in states if s not in rows))
    if new:
        rows.update(zip(new, joint(frame_proj, np.array([s.proj for s in new]), model)))
    return np.array([rows[s] for s in states])


def _step_cached(grown, model) -> list[PredictionState]:
    """The state of each (parent, token, score) child, through the parents'
    caches.

    A parent state keeps, in its `children`, the state stepped from it by
    each token: a child stepped before, on this frame or an earlier one, is
    that same state. The others are stepped in one predict_step call and
    kept. A reused child has the bits of a new step, since each row of
    predict_step is its own gemv. A reset makes a new zero state, so nothing
    stepped before it is reused after it.
    """
    todo = []
    for h, k, _ in grown:
        kids = h.state.children
        if kids is None:
            kids = h.state.children = {}
        if k not in kids:
            kids[k] = None  # stepped below, once
            todo.append((h.state, k))
    if todo:
        stepped = predict_step([k for _, k in todo],
                               np.array([state.hidden for state, _ in todo]),
                               np.array([state.cell for state, _ in todo]), model)
        for (state, k), kid in zip(todo, stepped):
            state.children[k] = kid
    return [h.state.children[k] for h, k, _ in grown]


def _prune_children(hyps: list[Hypothesis]) -> None:
    """Keep cached children only on the states `hyps` hold: a cached child
    they do not hold drops its own cache. Every state with a cache is then
    held, so at most len(hyps) * (V - 1) children stay cached."""
    held = {h.state for h in hyps}
    for h in hyps:
        kids = h.state.children
        if kids:
            for state in kids.values():
                if state not in held:
                    state.children = None


def _break_ties(order: list[int], scores: np.ndarray, beam: int,
                finished: list[Hypothesis], actives: list[Hypothesis],
                cols: np.ndarray) -> list[int]:
    """The best `beam` positions of `order`, which is in (-score, position)
    order, after each run of exactly equal scores is sorted on its token
    sequences (a stable sort, so equal keys keep position order). Token
    tuples are built only for the runs walked."""
    base = len(finished)

    def tokens_of(pos: int) -> tuple[int, ...]:
        if pos < base:
            return finished[pos].tokens
        a, c = divmod(pos - base, len(cols))
        return actives[a].tokens + ((int(cols[c]),) if c else ())

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
    rows: dict,
) -> tuple[list[Hypothesis], list[Hypothesis]]:
    """One expansion round: score from the joint, merge, prune, then step.

    `finished` have taken blank in this frame and `actives` may still emit
    in it; each list holds distinct prefixes. An active takes its row from
    `rows`, the frame's table, and one joint call at most scores the states
    it lacks (`_joint_rows`). An active's blank child is finished; with
    `grow`, its non-blank children are candidates too, and without it (the
    round past the cap) it has only the blank child. Candidates are known
    by their position and a score until they survive: positions number the
    carried finished hypotheses first, then per active its blank child
    followed by its non-blank children in token order. Candidates are
    ranked on the key (-log_prob, tokens), exact ties kept in position
    order, and only the best `beam` survive; the children among them are
    stepped through their parents' caches, new ones in one predict_step
    call (`_step_cached`). Returns the survivors as (finished, actives),
    each in rank order.
    """
    base = len(finished)
    cols = _child_tokens(len(model.config.vocab), model.config.vocab.blank_id)
    if not grow:
        cols = cols[:1]
    C = len(cols)
    log_probs = _joint_rows(frame_proj, actives, rows, model)
    kid = (np.array([h.log_prob for h in actives])[:, None]
           + log_probs.take(cols, axis=1))
    scores = np.concatenate([[h.log_prob for h in finished], kid.ravel()])
    # Distinct parents give distinct children, so the one possible merge is
    # of an active's blank child onto the finished hypothesis with its
    # prefix, by log-sum-exp. The finished one keeps its position and its
    # prediction state. Under SRS the two can hold different states: the
    # finished one a zero state carried over from before a reset, the blank
    # child one stepped after it by a shorter prefix. The rule is part of
    # the output: keeping the other state changes transcripts.
    where = {h.prefix: pos for pos, h in enumerate(finished)}
    dropped = []
    for a, h in enumerate(actives):
        pos = where.get(h.prefix)
        if pos is not None:
            scores[pos] = _logsumexp(scores[pos], scores[base + a * C])
            dropped.append(base + a * C)
    # a stable sort of candidates in position order on -score ranks them
    # on (-score, position)
    order = np.argsort(-scores, kind="stable")
    if dropped:
        keep = np.ones(len(scores), dtype=bool)
        keep[dropped] = False
        order = order[keep[order]]
    head = order[:beam + 1]
    top = scores[head].tolist()
    if len(set(top)) == len(top):  # no exact tie decides who survives
        chosen = head[:beam].tolist()
    else:
        chosen = _break_ties(order.tolist(), scores, beam, finished, actives, cols)
    done: list[Hypothesis] = []
    grown = []  # (parent, token, score) of each surviving child
    for pos in chosen:
        if pos < base:
            h = finished[pos]
            if scores[pos] != h.log_prob:  # the merge changed its score
                h = Hypothesis(h.prefix, scores[pos], h.state)
            done.append(h)
            continue
        a, c = divmod(pos - base, C)
        h = actives[a]
        if c == 0:  # closed with blank for the rest of the frame
            done.append(Hypothesis(h.prefix, scores[pos], h.state))
        else:
            grown.append((h, int(cols[c]), scores[pos]))
    return done, [Hypothesis(Prefix(h.prefix, k, frame_idx), score, state)
                  for (h, k, score), state in zip(grown, _step_cached(grown, model))]


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
    round's prune, and once per parent state and token: in every round, a
    child stepped before, on this frame or an earlier one, is reused, and
    so is the joint row of a state already scored on this frame.
    `hyps_prev` must hold distinct prefixes, as every step returns; a
    repeat is a ParameterError.
    """
    if beam < 1:
        raise ParameterError(f"beam must be >= 1, got {beam}")
    if not hyps_prev:
        raise ParameterError("beam_search_step requires at least one hypothesis")
    if len({h.prefix for h in hyps_prev}) < len(hyps_prev):
        raise ParameterError("beam_search_step requires distinct prefixes")
    frame_proj = frame_projection(h_i, model)
    finished, actives = [], list(hyps_prev)
    rows: dict = {}  # joint row of each state scored on this frame
    for r in range(max_expansions + 1):
        if not actives:
            break
        # the round past the cap force-terminates hypotheses still mid-frame
        finished, actives = _expand_round(
            frame_proj, finished, actives, beam, model, frame_idx,
            grow=r < max_expansions, rows=rows)
    _prune_children(finished)
    return finished


def check_blank_token(hyps: list[Hypothesis], frame_idx: int) -> bool:
    """True iff no hypothesis produced a non-blank token in frame
    `frame_idx`, that is, none has its last token there."""
    if not hyps:
        raise ParameterError("check_blank_token requires at least one hypothesis")
    return all(h.prefix.frame != frame_idx for h in hyps)


def reset_prediction_states(hyps: list[Hypothesis], model) -> list[Hypothesis]:
    """Give every hypothesis one new zero state, whose projection is
    zeros @ joint.pred_proj; prefixes and scores untouched. Nothing cached
    on the old states is read after it."""
    zero = np.zeros(model.config.pred_dim)
    state = PredictionState(zero, zero, zero @ model.joint.pred_proj)
    return [Hypothesis(h.prefix, h.log_prob, state) for h in hyps]


def _template(hyps: list[Hypothesis], frame_idx: int, beam: int, model):
    """The decisions of frame `frame_idx`, which made `hyps`, as (src, toks)
    for _replay to repeat, when they have the one shape runs take: each
    hypothesis q closed with blank (src[q] = q, toks[q] = ()), or emitted
    one token k after a hypothesis that closed with blank, src[q], and
    holds that one's cached child for k (toks[q] = (k,)). The beam is full:
    len(hyps) survivors of len(hyps) * V candidates. None for any other
    frame, which beam_search_step takes."""
    if len(hyps) != min(beam, len(hyps) * len(model.config.vocab)):
        return None
    slot = {h.prefix: q for q, h in enumerate(hyps)}
    src, toks = [], []
    for q, h in enumerate(hyps):
        node = h.prefix
        if node.frame != frame_idx:  # closed with blank
            src.append(q)
            toks.append(())
            continue
        p = slot.get(node.parent)
        if (p is None or node.parent.frame == frame_idx
                or hyps[p].prefix.frame == frame_idx
                or (hyps[p].state.children or {}).get(node.token) is not h.state):
            return None
        src.append(p)
        toks.append((node.token,))
    return src, tuple(toks)


def _kept_best(kept: np.ndarray, rest: np.ndarray, beam: int) -> np.ndarray:
    """Per frame, whether _expand_round's no-tie path keeps exactly the
    `kept` scores, (n, m), over the other candidates' `rest`, (n, r): the
    kept are distinct and each beats every other candidate (at beam 1 the
    one kept is a blank child, which wins a tie). A NaN fails."""
    lo = kept.min(axis=1)
    hi = rest.max(axis=1, initial=-np.inf)
    kept = np.sort(kept, axis=1)
    return (lo > hi if beam > 1 else lo >= hi) & (kept[:, 1:] != kept[:, :-1]).all(axis=1)


def _replay(hyps, template, frame_projs: np.ndarray, i: int, beam: int, model):
    """Frames i, i + 1, ... of `frame_projs` by the template's decisions, in
    one joint call on the states `hyps` hold, each candidate's score formed
    as in _expand_round. Round 1 keeps each closer's blank child and each
    emitter's token child; round 2 keeps the closers and each emitter's
    blank child. An emitter's token child is the state the emitter holds
    (_template checked it), so its rows are the emitter's. Frames are taken
    while both rounds keep these (_kept_best). Returns the frames taken and
    the hypotheses after the last, in the template's order."""
    src, toks = template
    n, m = len(frame_projs), len(hyps)
    V, blank = len(model.config.vocab), model.config.vocab.blank_id
    states = list(dict.fromkeys(h.state for h in hyps))
    log_probs = joint(frame_projs[:, None], np.array([s.proj for s in states]), model)
    if len(states) < m:  # to one row per hypothesis
        log_probs = log_probs.take([states.index(h.state) for h in hyps], axis=1)
    # row 0: the scores handed in; row j + 1: after frame i + j. A closer's
    # is a sequential sum of its blank rows; an emitter's adds its parent's
    # score, the token's row and its own blank row, in that order.
    scores = np.empty((n + 1, m))
    scores[0] = [h.log_prob for h in hyps]
    scores[1:] = log_probs[:, :, blank]
    np.add.accumulate(scores, axis=0, out=scores)
    emit = [q for q in range(m) if toks[q]]
    parents, tokens = [src[q] for q in emit], [toks[q][0] for q in emit]
    grown = scores[:-1, parents] + log_probs[:, parents, tokens]
    scores[1:, emit] = grown + log_probs[:, emit, blank]
    cand = (scores[:-1, :, None] + log_probs).reshape(n, m * V)
    keep = np.array(src) * V + [tk[0] if tk else blank for tk in toks]
    ok = _kept_best(cand[:, keep], np.delete(cand, keep, axis=1), beam)
    if emit:
        kids = grown[:, :, None] + np.delete(log_probs[:, emit], blank, axis=2)
        ok &= _kept_best(scores[1:], kids.reshape(n, -1), beam)
    k = int(ok.argmin()) if not ok.all() else n
    return k, [Hypothesis(Prefix(hyps[src[q]].prefix, toks[q][0], i + k - 1)
                          if toks[q] and k else h.prefix, scores[k, q], h.state)
               for q, h in enumerate(hyps)]


def _best(hyps: list[Hypothesis]) -> Hypothesis:
    """The first hypothesis in (-log_prob, tokens) order; token tuples are
    built only to break an exact tie for the best score."""
    top = max(h.log_prob for h in hyps)
    tied = [h for h in hyps if h.log_prob == top]
    return tied[0] if len(tied) == 1 else min(tied, key=lambda h: h.tokens)


def decode_with_srs(
    h: EncoderOutputs,
    model,
    beam: int,
    srs: SrsParams,
) -> Transcript:
    """Beam decoding over all encoder frames with the optional silence reset.

    After a prune-only frame, whose survivors hold the states it was handed,
    the next frames go in runs (label looping) when its decisions have the
    one shape `_template` takes: _replay takes a run in one joint call by
    them while the scores keep them. A run that stops short of its frames
    (a changed survivor set, a tie at the beam boundary) drops its template,
    so the next frame goes through beam_search_step. A run is one frame,
    then doubles, and an all-blank run ends where SRS would fire; a run that
    stops short ends with its hypotheses ranked, as beam_search_step breaks
    ties on position. With SRS off the counter's threshold is the length,
    which no stretch of blank frames exceeds.
    """
    hyps = [start_hypothesis(model)]
    counter = SrsCounter(srs.t_sil if srs.enabled else h.length)
    projs = None  # every frame's projection, formed when the first run starts
    template = None  # the decisions the next run replays; None: no run
    run = 1  # frames the next run scores
    i = 0
    while i < h.length:
        if template:
            if projs is None:
                projs = frame_projection(h.h, model)
            all_blank = not any(template[1])  # no hypothesis emits in the run
            n = min(run, h.length - i,
                    counter.t_sil + 1 - counter.count if all_blank else h.length)
            k, hyps = _replay(hyps, template, projs[i:i + n], i, beam, model)
            if k < n:
                template = None
                hyps.sort(key=lambda hyp: -hyp.log_prob)
            run = 2 * n
        else:
            held = {hyp.state for hyp in hyps}
            hyps = beam_search_step(h.h[i], hyps, beam, model, frame_idx=i)
            all_blank = check_blank_token(hyps, i)
            template = _template(hyps, i, beam, model) if {hyp.state for hyp in hyps} == held else None
            run, k = 1, 1
        i += k
        # every one of the k frames updates the counter, so a list and not a
        # generator that any() would cut short; only the last can fire it
        if any([counter.update(all_blank) for _ in range(k)]):
            hyps = reset_prediction_states(hyps, model)
    hyps.sort(key=lambda hyp: -hyp.log_prob)
    best = _best(hyps)
    return Transcript(best.tokens, best.frames, best.log_prob)


def greedy_decode(h: EncoderOutputs, model) -> Transcript:
    """Argmax decoding on the beam search's kernels; baseline and the beam=1
    oracle. Like the beam, it ranks the running scores log_prob + log_probs,
    and blank wins an exact tie."""
    blank = model.config.vocab.blank_id
    state = start_hypothesis(model).state
    tokens: list[int] = []
    frames: list[int] = []
    log_prob = 0.0
    for i in range(h.length):
        frame_proj = frame_projection(h.h[i], model)
        symbols = 0
        while True:
            (log_probs,) = joint(frame_proj, state.proj[None], model)
            scores = log_prob + log_probs
            k = int(np.argmax(scores))
            if k == blank or scores[blank] >= scores[k] or symbols == MAX_SYMBOLS:
                log_prob = scores[blank]
                break
            tokens.append(k)
            frames.append(i)
            log_prob = scores[k]
            (state,) = predict_step([k], state.hidden[None], state.cell[None], model)
            symbols += 1
    return Transcript(tuple(tokens), tuple(frames), log_prob)

"""RNN-T decoding: prediction/joint networks, beam search, silence reset.

Beam search is time-synchronous with at most MAX_SYMBOLS non-blank
emissions per frame. The silence reset (SRS) zeroes every hypothesis's
prediction-network state after more than t_sil consecutive frames in which
no hypothesis produced a non-blank token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderOutputs, check_fields, check_positive_int
from .errors import ParameterError, ShapeError, VocabularyError
from .numerics import lstm_cell_step, row_matmul

__all__ = [
    "Prefix",
    "PredictionState",
    "Hypothesis",
    "Transcript",
    "SrsParams",
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

    def __post_init__(self):
        check_fields(self)


class _StateStack(list):
    """predict_step's new states, in row order, keeping the (B, ·) stacks
    whose rows their vectors are: `hidden`, `cell` and `proj`."""

    __slots__ = ("hidden", "cell", "proj")


def predict_step(tokens, hidden: np.ndarray, cell: np.ndarray, model):
    """Advance the prediction network by one token on each of B rows.

    `tokens` holds B token ids (None = start symbol) and hidden/cell are
    the rows' (B, pred_dim) states. Returns the B new states, whose
    vectors are rows (views) of the stacked output: hidden, cell and their
    projection hidden @ joint.pred_proj, each row its own (row_matmul).
    The list returned also keeps the three stacks, as its `hidden`, `cell`
    and `proj`, so a caller holding these states in order reads them whole.
    """
    pred = model.prediction
    V = len(pred.embedding)
    # -1: the start symbol's row of input_gates, which no token id may name
    rows = [-1 if k is None else k for k in tokens]
    if -1 in tokens or not -1 <= min(rows, default=-1) <= max(rows, default=-1) < V:
        bad = next(k for k in tokens if k is not None and not 0 <= k < V)
        raise VocabularyError(f"token id {bad} outside vocabulary of {V}")
    h, c = lstm_cell_step(pred.input_gates.take(rows, axis=0), hidden, cell, pred.lstm)
    projs = row_matmul(h, model.joint.pred_proj)
    states = _StateStack(map(PredictionState, h, c, projs))
    states.hidden, states.cell, states.proj = h, c, projs
    return states


def frame_projection(h_t: np.ndarray, model) -> np.ndarray:
    """Encoder frames' share of every joint call on them, h_t @ joint.enc_proj:
    (joint_dim,) for one frame, (L, joint_dim) for a block of L frames, each
    frame its own product (row_matmul)."""
    enc_proj = model.joint.enc_proj
    if h_t.shape[-1] != enc_proj.shape[0]:
        raise ShapeError(
            f"encoder frame dim {h_t.shape[-1]} != joint input {enc_proj.shape[0]}"
        )
    return row_matmul(h_t, enc_proj)


def joint(frame_proj: np.ndarray, pred_projs: np.ndarray, model) -> np.ndarray:
    """Joint network on cached projections: tanh combiner, then log-softmax
    over the vocabulary. Takes one frame's and A prefixes' (A, joint_dim),
    giving (A, V), or L frames' (L, 1, joint_dim) and S prefixes', giving
    (L, S, V). A row has the bits of the joint taken on it alone
    (row_matmul). The temporaries are the call's own and are reused in
    place; no input is written."""
    jw = model.joint
    z = frame_proj + pred_projs
    z += jw.bias
    np.tanh(z, out=z)
    logits = row_matmul(z, jw.out)
    logits += jw.out_bias
    # the ufunc reductions np.max/np.sum call, without their wrappers
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    total = np.add.reduce(np.exp(logits), axis=-1, keepdims=True)
    logits -= np.log(total, out=total)
    return logits


def start_hypothesis(model) -> Hypothesis:
    zero = np.zeros((1, model.config.pred_dim))
    (state,) = predict_step([None], zero, zero, model)
    return Hypothesis(Prefix(), 0.0, state)


def _logsumexp(a: float, b: float) -> float:
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + np.log1p(np.exp(lo - hi))


def _step_cached(states: list[PredictionState], kids: list[tuple[int, int]],
                 model) -> list[PredictionState]:
    """The state of each (a, token) child of states[a], through the
    parents' caches.

    A parent state keeps, in its `children`, the state stepped from it by
    each token: a child stepped before, on this frame or an earlier one, is
    that same state. The others are stepped in one predict_step call and
    kept. A reused child has the bits of a new step (row_matmul). A reset
    makes a new zero state, so nothing stepped before it is reused after
    it. When every child is new, the children are predict_step's stack, in
    order; parents held in one stack give their rows from it.
    """
    todo = []
    for a, k in kids:
        cache = states[a].children
        if cache is None:
            cache = states[a].children = {}
        if k not in cache:
            cache[k] = None  # stepped below, once
            todo.append((a, k))
    if todo:
        rows = [a for a, _ in todo]
        if type(states) is _StateStack:
            hidden, cell = states.hidden.take(rows, axis=0), states.cell.take(rows, axis=0)
        else:
            hidden = np.array([states[a].hidden for a in rows])
            cell = np.array([states[a].cell for a in rows])
        stepped = predict_step([k for _, k in todo], hidden, cell, model)
        for (a, k), kid in zip(todo, stepped):
            states[a].children[k] = kid
        if len(todo) == len(kids):
            return stepped
    return [states[a].children[k] for a, k in kids]


def _prune_children(states: list[PredictionState]) -> None:
    """Keep cached children only on `states`, the ones a beam holds: a
    cached child it does not hold drops its own cache. Every state with a
    cache is then held, so at most len(states) * (V - 1) children stay
    cached."""
    held = set(states)
    for state in held:
        if state.children:
            for kid in state.children.values():
                if kid not in held:
                    kid.children = None


def _ranked(order: np.ndarray, costs: np.ndarray, k: int, tokens_of) -> list[int]:
    """The first k positions of `order`, which is in (cost, position)
    order, in (cost, tokens) order, a cost being a negated score: a stable
    sort, so equal keys keep position order. Only each run of exactly equal
    costs that starts among the first k is sorted, on tokens, and token
    tuples are built only for runs of more than one candidate."""
    head = order[:k + 1]
    top = costs[head].tolist()
    if len(set(top)) == len(top):
        return head[:k].tolist()
    k = min(k, len(order))
    ordered = costs[order]
    # at least k: no cost is <= a NaN, and a NaN equals no cost
    n = max(k, np.count_nonzero(ordered <= top[k - 1]))
    tied, tied_costs = order[:n].tolist(), ordered[:n].tolist()
    ranked, i = [], 0
    while len(ranked) < k:
        j = i + 1
        while j < n and tied_costs[j] == tied_costs[i]:
            j += 1
        ranked += sorted(tied[i:j], key=tokens_of) if j > i + 1 else tied[i:j]
        i = j
    return ranked[:k]


# a beam inside a frame, as rows: (prefixes, prediction states, costs), a
# cost being a negated score
_Rows = tuple[list[Prefix], list[PredictionState], np.ndarray]


def _expand_round(frame_proj: np.ndarray, finished: _Rows, actives: _Rows, beam: int,
                  model, frame_idx: int, grow: bool) -> tuple[_Rows, _Rows]:
    """One expansion round: score from the joint, merge, prune, then step.

    `finished` have taken blank in this frame and `actives` may still emit
    in it; each holds distinct prefixes. One joint call scores the actives,
    each on its own row. An active's blank child is finished; with `grow`,
    its non-blank children are candidates too, and without it (the round
    past the cap) it has only the blank child. Candidates are known by
    their position and cost until they survive: positions number the
    finished rows first, then per active its children in vocabulary order,
    so one ufunc call forms every child's cost from the joint's rows.
    Candidates are ranked on the key (cost, tokens), exact ties kept in
    position order, and only the best `beam` survive (`_ranked`). Only a
    surviving child gets a prefix and a state, stepped through its parent's
    cache (`_step_cached`), the new ones in one predict_step call. Returns
    the survivors as (finished, actives), each in rank order.
    """
    fin_prefixes, fin_states, fin_costs = finished
    prefixes, states, parent_costs = actives
    projs = (states.proj if type(states) is _StateStack
             else np.array([state.proj for state in states]))
    log_probs = joint(frame_proj, projs, model)
    blank = model.config.vocab.blank_id
    first = 0 if grow else blank
    if not grow:
        log_probs = log_probs[:, blank:blank + 1]
    C = log_probs.shape[1]
    base = len(fin_prefixes)
    # -(score + log_prob) is exactly -score - log_prob
    costs = np.subtract(parent_costs[:, None], log_probs).ravel()
    keep = None  # False at each merged child
    if base:
        costs = np.concatenate((fin_costs, costs))
        # Distinct parents give distinct children, so the one possible merge
        # is of an active's blank child onto the finished row with its
        # prefix, by log-sum-exp. The finished row keeps its position and
        # its prediction state. Under SRS the two can hold different states:
        # the finished one a zero state carried over from before a reset,
        # the blank child one stepped after it by a shorter prefix. The rule
        # is part of the output: keeping the other state changes transcripts.
        where = {prefix: pos for pos, prefix in enumerate(fin_prefixes)}
        for a, prefix in enumerate(prefixes):
            pos = where.get(prefix)
            if pos is not None:
                kid = base + a * C + blank - first
                costs[pos] = -_logsumexp(-costs[pos], -costs[kid])
                if keep is None:
                    keep = np.ones(len(costs), dtype=bool)
                keep[kid] = False
    # a stable sort of candidates in position order ranks them on
    # (cost, position)
    order = costs.argsort(kind="stable")
    if keep is not None:
        order = order[keep[order]]

    parent_tokens = {}  # an active's tokens, built once for all its children

    def tokens_of(pos: int) -> tuple[int, ...]:
        if pos < base:
            return fin_prefixes[pos].tokens()
        a, c = divmod(pos - base, C)
        if a not in parent_tokens:
            parent_tokens[a] = prefixes[a].tokens()
        k = first + c
        return parent_tokens[a] + ((k,) if k != blank else ())

    done, done_prefixes, done_states = [], [], []
    grown, grown_prefixes, kids = [], [], []
    for pos in _ranked(order, costs, beam, tokens_of):
        if pos < base:
            done.append(pos)
            done_prefixes.append(fin_prefixes[pos])
            done_states.append(fin_states[pos])
            continue
        a, c = divmod(pos - base, C)
        k = first + c
        if k == blank:  # closed with blank for the rest of the frame
            done.append(pos)
            done_prefixes.append(prefixes[a])
            done_states.append(states[a])
        else:
            grown.append(pos)
            grown_prefixes.append(Prefix(prefixes[a], k, frame_idx))
            kids.append((a, k))
    return ((done_prefixes, done_states, costs.take(done)),
            (grown_prefixes, _step_cached(states, kids, model), costs.take(grown)))


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
    child stepped before, on this frame or an earlier one, is reused. Each
    round scores every active hypothesis on its own joint row. `hyps_prev`
    must hold distinct prefixes, as every step returns; a repeat is a
    ParameterError.
    """
    check_positive_int("beam", beam)
    if not hyps_prev:
        raise ParameterError("beam_search_step requires at least one hypothesis")
    prefixes = [h.prefix for h in hyps_prev]
    if len(set(prefixes)) < len(prefixes):
        raise ParameterError("beam_search_step requires distinct prefixes")
    frame_proj = frame_projection(h_i, model)
    finished = ([], [], np.empty(0))
    actives = (prefixes, [h.state for h in hyps_prev],
               np.array([-h.log_prob for h in hyps_prev]))
    for r in range(max_expansions + 1):
        if not actives[0]:
            break
        # the round past the cap force-terminates hypotheses still mid-frame
        finished, actives = _expand_round(
            frame_proj, finished, actives, beam, model, frame_idx,
            grow=r < max_expansions)
    prefixes, states, costs = finished
    _prune_children(states)
    return [Hypothesis(prefix, -cost, state)
            for prefix, cost, state in zip(prefixes, costs.tolist(), states)]


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
    one joint call on the hypotheses held, one row each, each candidate's
    score formed by the additions whose negation is _expand_round's cost,
    bit for bit. Round 1 keeps each closer's blank
    child and each emitter's token child; round 2 keeps the closers and
    each emitter's blank child. An emitter's token child is the state the
    emitter holds (_template checked it), so its rows are the emitter's.
    Frames are taken while both rounds keep these (_kept_best). Returns the
    frames taken and the hypotheses after the last, in the template's
    order."""
    src, toks = template
    n, m = len(frame_projs), len(hyps)
    V, blank = len(model.config.vocab), model.config.vocab.blank_id
    log_probs = joint(frame_projs[:, None], np.array([h.state.proj for h in hyps]), model)
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
    last = scores[k].tolist()
    return k, [Hypothesis(Prefix(hyps[src[q]].prefix, toks[q][0], i + k - 1)
                          if toks[q] and k else h.prefix, last[q], h.state)
               for q, h in enumerate(hyps)]


def _best(hyps: list[Hypothesis]) -> Hypothesis:
    """The first hypothesis in (-log_prob, tokens) order."""
    costs = np.array([-h.log_prob for h in hyps])
    (pos,) = _ranked(costs.argsort(kind="stable"), costs, 1,
                     lambda pos: hyps[pos].tokens)
    return hyps[pos]


def decode_with_srs(
    h: EncoderOutputs,
    model,
    beam: int,
    srs: SrsParams | None,
) -> Transcript:
    """Beam decoding over all encoder frames with the silence reset, which
    srs None turns off.

    After a prune-only frame, whose survivors hold the states it was handed,
    the next frames go in runs (label looping) when its decisions have the
    one shape `_template` takes: _replay scores a run for the hypotheses
    held in one joint call and takes its frames while the scores keep those
    decisions. A run that stops short of its frames (a changed survivor
    set, a tie at the beam boundary) drops its template, so the next frame
    goes through beam_search_step. A run is one frame, then doubles; a run
    that stops short ends with its hypotheses ranked, as beam_search_step
    breaks ties on position.

    `silent` counts the frames in a row in which no hypothesis emitted; SRS
    fires on the one that takes it past srs.t_sil, where an all-blank run
    under SRS ends. A run with an emitter follows an emitting frame, so
    `silent` is 0 before it and after it, even if it takes no frame.
    """
    check_positive_int("beam", beam)
    hyps, silent = [start_hypothesis(model)], 0
    projs = None  # every frame's projection, formed when the first run starts
    template = None  # the decisions the next run replays; None: no run
    run = 1  # frames the next run scores
    i = 0
    while i < h.length:
        if template:
            if projs is None:
                projs = frame_projection(h.h, model)
            all_blank = not any(template[1])  # no hypothesis emits in the run
            n = min(run, h.length - i)
            if all_blank and srs is not None:
                n = min(n, srs.t_sil + 1 - silent)
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
        silent = silent + k if all_blank else 0
        if srs is not None and silent > srs.t_sil:
            hyps = reset_prediction_states(hyps, model)
            silent = 0
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
    return Transcript(tuple(tokens), tuple(frames), float(log_prob))

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

from .encoder import EncoderOutputs
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


def _joint_rows(frame_proj: np.ndarray, actives: list[Hypothesis], rows: dict,
                cached: bool, model) -> np.ndarray:
    """Joint rows of `actives` on one frame, in at most one joint call.

    `rows`, the frame's table of each scored state's row, takes the rows
    scored here. With `cached`, once `rows` is filled or when actives share
    a state (after a reset), an active whose state has a row takes it and
    only new states are scored; otherwise one direct call scores them all.
    A row has the bits of its lone call either way.
    """
    states = [h.state for h in actives]
    if cached and (rows or len(set(states)) < len(states)):
        new = list(dict.fromkeys(s for s in states if s not in rows))
        if new:
            rows.update(zip(new, joint(frame_proj, np.array([s.proj for s in new]), model)))
        return np.array([rows[s] for s in states])
    log_probs = joint(frame_proj, np.array([s.proj for s in states]), model)
    rows.update(zip(states, log_probs))
    return log_probs


def _step(grown, model) -> list[PredictionState]:
    """The state of each (parent, token, score) child, in one predict_step call."""
    return predict_step(
        [k for _, k, _ in grown],
        np.array([h.state.hidden for h, _, _ in grown]),
        np.array([h.state.cell for h, _, _ in grown]),
        model,
    )


def _step_cached(grown, model) -> tuple[list, bool]:
    """_step through the parents' caches, and whether any child was reused.

    A parent state keeps, in its `children`, the state stepped from it by
    each token: a child stepped before, on this frame or an earlier one, is
    that same state. The others are stepped in one call and kept. A reused
    child has the bits of a new step, since each row of predict_step is
    its own gemv. A reset makes a new zero state, so nothing stepped before
    it is reused after it.
    """
    todo = []
    for g in grown:
        h, k, _ = g
        kids = h.state.children
        if kids is None:
            kids = h.state.children = {}
        if k not in kids:
            kids[k] = None  # stepped below, once
            todo.append(g)
    if todo:
        for (h, k, _), kid in zip(todo, _step(todo, model)):
            h.state.children[k] = kid
    return [h.state.children[k] for h, k, _ in grown], len(todo) < len(grown)


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
    cached: bool,
    rows: dict,
) -> tuple[list[Hypothesis], list[Hypothesis], bool]:
    """One expansion round: score from the joint, merge, prune, then step.

    `finished` have taken blank in this frame and `actives`, whose
    prefixes are distinct, may still emit in it. One joint call at most
    scores the actives (`_joint_rows`), whose rows join `rows`, the
    frame's table. An active's blank child is finished; with `grow`, its
    non-blank children are candidates too, and without it (the round past
    the cap) it has only the blank child. Candidates are known by their
    position and a score until they survive: positions number the carried
    finished hypotheses first, then per active its blank child followed by
    its non-blank children in token order. Only a blank child can merge,
    with a finished hypothesis on its prefix: distinct parents give
    distinct children. Candidates are ranked on the key (-log_prob,
    tokens), exact ties kept in position order, and only the best `beam`
    survive; one predict_step call steps the children among them. Returns
    the survivors as (finished, actives), each in rank order, and whether
    a child was reused.

    With `cached`, children are stepped through their parents' caches
    (`_step_cached`), and an active takes a row scored earlier in the
    frame (`_joint_rows`). Only states carried in from earlier frames or
    reused in the round before can hold a cache or such a row, so other
    rounds skip both.
    """
    base = len(finished)
    cols = _child_tokens(len(model.config.vocab), model.config.vocab.blank_id)
    if not grow:
        cols = cols[:1]
    C = len(cols)
    log_probs = _joint_rows(frame_proj, actives, rows, cached, model)
    kid = (np.array([h.log_prob for h in actives])[:, None]
           + log_probs.take(cols, axis=1))
    scores = np.concatenate([[h.log_prob for h in finished], kid.ravel()])
    dropped: list[int] = []
    _merge_finished(scores, [(pos, h.prefix) for pos, h in enumerate(finished)]
                    + [(base + a * C, h.prefix) for a, h in enumerate(actives)],
                    dropped)
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
    if not grown:
        return done, [], False
    kids, reused = _step_cached(grown, model) if cached else (_step(grown, model), False)
    return (done, [Hypothesis(Prefix(h.prefix, k, frame_idx), score, state)
                   for (h, k, score), state in zip(grown, kids)],
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
    already scored on this frame. `hyps_prev` must hold distinct prefixes,
    as every step returns; a repeat is a ParameterError.
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
    cached = True  # the first round's parents were carried in
    for r in range(max_expansions + 1):
        if not actives:
            break
        # the round past the cap force-terminates hypotheses still mid-frame
        finished, actives, cached = _expand_round(
            frame_proj, finished, actives, beam, model, frame_idx,
            grow=r < max_expansions, cached=cached, rows=rows)
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
    """The decisions of frame `frame_idx`, which made `hyps`, for _replay to
    repeat: hypothesis q is hyps[src[q]] followed by toks[q], the tokens it
    emitted in the frame, and holds that state stepped by them through the
    cache. Laid out as rounds: the finished carried in, the actives (src,
    tokens so far) as a slice of `nodes` with their columns in the round
    before, and which candidates (the finished, then each active's children
    in token order) survive. None when a state is not cached, a round would
    merge, or a survivor of a round is pruned in a later one."""
    slot = {h.prefix: q for q, h in enumerate(hyps)}
    src, paths = [], []
    for h in hyps:
        path, node = [], h.prefix
        while node.frame == frame_idx:
            path.insert(0, node)
            node = node.parent
        p = slot.get(node)
        state = None if p is None else hyps[p].state
        for kid in path:
            state = state and (state.children or {}).get(kid.token)
        if state is not h.state:
            return None
        src.append(p)
        paths.append(path)
    toks = tuple(tuple(node.token for node in path) for path in paths)
    # round r's blank child on the prefix of one finished earlier merges;
    # the round past the cap, which scores only blank children, is left out
    if any(len(path) >= MAX_SYMBOLS for path in paths) or any(
            len(toks[slot[node]]) < r for path in paths
            for r, node in enumerate(path, 1) if node in slot):
        return None
    V, blank = len(model.config.vocab), model.config.vocab.blank_id
    ends = set(zip(src, toks))
    nodes = [(p, ()) for p in range(len(src))]  # every round's actives, in order
    rounds, column = [], {}
    for r in range(max(map(len, toks)) + 1):
        fin = tuple(q for q, tk in enumerate(toks) if len(tk) < r)
        acts = list(dict.fromkeys((p, tk[:r]) for p, tk in ends if len(tk) >= r)
                    if r else nodes)
        index = {a: len(fin) + n * V for n, a in enumerate(acts)}
        grown = tuple(column[a] for a in acts) if r else None
        mask = np.zeros(len(fin) + len(acts) * V, dtype=bool)
        mask[:len(fin)] = True
        for p, tk in ends:
            if len(tk) > r:
                column[p, tk[:r + 1]] = index[p, tk[:r]] + tk[r]
        mask[[column[p, tk[:r + 1]] if len(tk) > r else index[p, tk] + blank
              for p, tk in ends if len(tk) >= r]] = True
        if mask.sum() != min(beam, len(mask)):
            return None
        keep, drop = np.flatnonzero(mask), np.flatnonzero(~mask)
        first = len(nodes) if r else 0
        nodes += acts if r else []
        rounds.append((fin, slice(first, first + len(acts)), grown, keep, drop))
    node = {a: n for n, a in enumerate(nodes)}

    def depth(q):
        return len(toks[q]) and 1 + depth(src[q])

    # each hypothesis that emitted, after the one it extends: the nodes and
    # tokens of the row entries its score adds
    chains = [(q, src[q], [(node[src[q], toks[q][:r]], k)
                           for r, k in enumerate(toks[q] + (blank,))])
              for q in sorted(range(len(src)), key=depth) if toks[q]]
    return src, toks, nodes, [node[a] for a in zip(src, toks)], chains, rounds


def _replay(hyps, template, frame_projs: np.ndarray, i: int, beam: int, model):
    """Frames i, i + 1, ... of `frame_projs` by the template's decisions, in
    one joint call for every state reached, each candidate's score formed as
    in _expand_round. Frames are taken while in every round the survivors
    are the best `beam` and the best beam + 1 scores are distinct (its no-tie
    path; at beam 1, blank wins a tie). Returns the frames taken and the
    hypotheses after the last, in the template's order."""
    src, toks, nodes, ends, chains, rounds = template
    n, m, blank = len(frame_projs), len(hyps), model.config.vocab.blank_id
    # each node's state: its hypothesis's, stepped by its tokens through the cache
    held = [functools.reduce(lambda s, k: s.children[k], tk, hyps[p].state)
            for p, tk in nodes]
    states = list(dict.fromkeys(held))
    log_probs = joint(frame_projs[:, None], np.array([s.proj for s in states]), model)
    if len(states) < len(held):  # to one row per node
        log_probs = log_probs.take([states.index(s) for s in held], axis=1)
    # row 0: the scores handed in; row j + 1: after frame i + j. A blank
    # child's on every frame is a sequential sum; the others follow it.
    scores = np.empty((n + 1, m))
    scores[0] = [h.log_prob for h in hyps]
    scores[1:] = log_probs[:, :m, blank]
    np.add.accumulate(scores, axis=0, out=scores)
    for q, p, chain in chains:
        score = scores[:-1, p]
        for a, k in chain:
            score = score + log_probs[:, a, k]
        scores[1:, q] = score
    ok = []  # per frame, whether each check holds
    for fin, acts, grown, keep, drop in rounds:
        parents = scores[:-1] if grown is None else cand.take(grown, axis=1)
        cand = (parents[:, :, None] + log_probs[:, acts]).reshape(n, -1)
        if fin:
            cand = np.concatenate([scores[1:].take(fin, axis=1), cand], axis=1)
        kept, rest = cand.take(keep, axis=1), cand.take(drop, axis=1)
        lo = kept.min(axis=1) if len(keep) > 1 else kept[:, 0]  # NaN fails below
        if len(drop):
            ok.append(lo > rest.max(axis=1) if beam > 1 else lo >= rest.max(axis=1))
        if len(keep) > 1:
            kept.sort(axis=1)
            ok.append((kept[:, 1:] != kept[:, :-1]).all(axis=1))
    ok = np.logical_and.reduce(ok) if len(ok) > 1 else ok[0]
    k = int(ok.argmin()) if not ok.all() else n

    def prefix(q, j):  # q's prefix after frame i + j
        if j < 0 or not toks[q]:
            return hyps[q].prefix
        return functools.reduce(lambda node, k: Prefix(node, k, i + j), toks[q],
                                prefix(src[q], j - 1))

    return k, [Hypothesis(prefix(q, k - 1), scores[k, q], held[ends[q]]) for q in range(m)]


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

    After a prune-only frame, whose survivors hold the states it was handed,
    the next frames go in runs (label looping): _replay takes a run in one
    joint call by that frame's decisions (`_template`) while the scores keep
    them. The first frame where they do not (a changed state set, a tie at
    the beam boundary, a merge) goes through beam_search_step, and an SRS
    firing ends a run. A run is one frame, then doubles; it ends with its
    hypotheses ranked, as beam_search_step breaks ties on position.
    """
    srs = srs or SrsParams()
    hyps = [start_hypothesis(model)]
    counter = SrsCounter(srs.t_sil)
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
                    srs.t_sil + 1 - counter.count if srs.enabled and all_blank
                    else h.length)
            k, hyps = _replay(hyps, template, projs[i:i + n], i, beam, model)
            i += k
            # only an all-blank run's last frame can fire SRS
            if k and srs.enabled and [counter.update(all_blank) for _ in range(k)][-1]:
                hyps = reset_prediction_states(hyps, model)
            if k == n:
                run = 2 * n
                continue
            hyps.sort(key=lambda hyp: -hyp.log_prob)
        held = {hyp.state for hyp in hyps}
        hyps = beam_search_step(h.h[i], hyps, beam, model, frame_idx=i)
        all_blank = check_blank_token(hyps, i)
        template = _template(hyps, i, beam, model) if {hyp.state for hyp in hyps} == held else None
        if srs.enabled and counter.update(all_blank):
            hyps = reset_prediction_states(hyps, model)
        run = 1
        i += 1
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

"""Sparse multi-head self-attention: scores, local/global masks, fusion.

The attended index set for query i is the union of a fixed local window
and the keys whose raw score strictly exceeds the query's mean score.
With several heads the global parts can be kept per head, intersected,
or unioned before attending.

The local-only policy forms each query's scores for its window alone,
in O(T·w) memory. The global mask needs every score of a row for its
mean, so the other policies hold one head's (T, T) scores at a time.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import matmul, softmax

__all__ = [
    "AttentionHeadWeights",
    "MultiHeadWeights",
    "ScoreMatrix",
    "BandScores",
    "AttentionMask",
    "MaskPolicy",
    "SparsityReport",
    "DENSE",
    "LOCAL_ONLY",
    "LOCAL_PLUS_GLOBAL",
    "FUSION_OR",
    "FUSION_PER_HEAD",
    "FUSION_AND",
    "compute_scores",
    "local_mask",
    "global_mask",
    "fuse_heads",
    "attention_internals",
    "sparse_attend",
    "mask_stats",
    "format_sparsity_report",
    "export_heatmap",
]

DENSE = "dense"
LOCAL_ONLY = "local"
LOCAL_PLUS_GLOBAL = "local_global"

# fusion variants, ordered loosest to sparsest global mask
FUSION_OR = "sgm1_or"
FUSION_PER_HEAD = "sgm2_per_head"
FUSION_AND = "sgm3_and"

_VARIANTS = (DENSE, LOCAL_ONLY, LOCAL_PLUS_GLOBAL)
_FUSIONS = (FUSION_OR, FUSION_PER_HEAD, FUSION_AND)


@dataclass
class AttentionHeadWeights:
    """Per-head query/key/value projections, each (model_dim, inner_dim)."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    @property
    def inner_dim(self) -> int:
        return self.w_q.shape[1]


@dataclass
class MultiHeadWeights:
    heads: list[AttentionHeadWeights]
    w_p: np.ndarray  # (H * inner_dim, model_dim)

    @property
    def num_heads(self) -> int:
        return len(self.heads)


@dataclass
class ScoreMatrix:
    """Raw pre-softmax scores e[i, j] with per-query mean scores."""

    e: np.ndarray  # (T, T)
    row_means: np.ndarray  # (T,)

    @property
    def length(self) -> int:
        return self.e.shape[0]

    def at(self, rows: np.ndarray, keys: np.ndarray | None = None) -> np.ndarray:
        """Scores of query rows at their keys (len(rows), n); None means every key."""
        if keys is None:
            return self.e[rows]
        # np.take, not fancy indexing: about 3x faster for these gathers
        return np.take(self.e, keys + (rows * self.length)[:, None])


@dataclass(frozen=True)
class _Window:
    """A band's interior batch: its r-th row attends the n keys from start + r on."""

    start: int
    n: int

    def of(self, x: np.ndarray, q: int) -> np.ndarray:
        """The first q rows' keys of x as a (q, n, d) strided view, with no copy.

        Each row's (n, d) block is a C-contiguous run of x, laid out as a
        gathered copy would be, so products over it keep their bits.
        """
        windows = np.lib.stride_tricks.sliding_window_view(x, self.n, axis=0)
        return windows[self.start : self.start + q].transpose(0, 2, 1)


@dataclass
class BandScores:
    """Scores kept as their query and key projections, formed only where read.

    `local` reads each query's band alone, so no (T, T) array is formed.
    An entry is the same dot product as in compute_scores, but may differ
    from that one gemm in the last bits.
    """

    q: np.ndarray  # (T, d)
    k: np.ndarray  # (T, d)

    @property
    def length(self) -> int:
        return self.q.shape[0]

    def at(self, rows: np.ndarray, keys: np.ndarray | _Window | None = None
           ) -> np.ndarray:
        """Scores of query rows at their keys (len(rows), n); None means every key."""
        if keys is None:
            keys = np.broadcast_to(np.arange(self.length), (len(rows), self.length))
        # one gemv per row: (n, d) keys times the row's (d,) query
        k = (keys.of(self.k, len(rows)) if isinstance(keys, _Window)
             else np.take(self.k, keys, axis=0))
        return (k @ self.q[rows, :, None])[:, :, 0] / np.sqrt(self.q.shape[1])


class AttentionMask:
    """Per-query attended-key sets: a band |i - j| <= w, or a boolean (T, T) matrix.

    A band holds only T and w; its key sets and counts are derived on
    demand, and its (T, T) view `rows` is built only when read.
    """

    def __init__(self, rows: np.ndarray | None = None, *, length: int | None = None,
                 w: int | None = None):
        if rows is None:  # a band
            # w >= T already spans every key
            self.length, self.w, self._rows = length, min(w, length), None
            return
        rows = np.asarray(rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ShapeError(f"mask must be square, got {rows.shape}")
        self.length, self.w, self._rows = rows.shape[0], None, rows

    @property
    def rows(self) -> np.ndarray:
        """rows[i, j] is True iff query i attends key j."""
        if self._rows is not None:
            return self._rows
        T, w = self.length, self.w
        # |i - j| <= w as j <= i + w and not j <= i - w - 1, with no int temporaries
        return np.tri(T, k=w, dtype=bool) & ~np.tri(T, k=-w - 1, dtype=bool)

    def counts(self) -> np.ndarray:
        """Number of attended keys of each query, (T,)."""
        if self._rows is not None:
            return self._rows.sum(axis=1)
        i = np.arange(self.length)
        return np.minimum(i + self.w + 1, self.length) - np.maximum(i - self.w, 0)

    def keys(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Sorted attended keys of query rows that each attend n keys, (len(rows), n)."""
        if self._rows is not None:
            return np.flatnonzero(self._rows[rows]).reshape(len(rows), n) % self.length
        return np.maximum(rows - self.w, 0)[:, None] + np.arange(n)

    def indices(self, i: int) -> np.ndarray:
        if self._rows is not None:
            return np.flatnonzero(self._rows[i])
        return np.arange(max(0, i - self.w), min(self.length, i + self.w + 1))

    def union(self, other: "AttentionMask") -> "AttentionMask":
        return AttentionMask(self.rows | other.rows)

    def row_density(self) -> np.ndarray:
        return self.counts() / self.length

    @classmethod
    def full(cls, T: int) -> "AttentionMask":
        return cls(length=T, w=T)


@dataclass
class MaskPolicy:
    """Which keys each query may attend; an inference-time switch only.

    w is the local half-window in (subsampled) frames; defaults to 40.
    Fusion matters only for local_global.
    """

    variant: str = LOCAL_PLUS_GLOBAL
    w: int = 40
    fusion: str = FUSION_AND

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ParameterError(f"unknown mask variant {self.variant!r}")
        if self.fusion not in _FUSIONS:
            raise ParameterError(f"unknown fusion variant {self.fusion!r}")
        if self.w < 0:
            raise ParameterError(f"local half-window must be >= 0, got {self.w}")

    @classmethod
    def dense(cls) -> "MaskPolicy":
        return cls(variant=DENSE)

    @classmethod
    def local(cls, w: int = 40) -> "MaskPolicy":
        return cls(variant=LOCAL_ONLY, w=w)

    @classmethod
    def local_global(cls, w: int = 40, fusion: str = FUSION_AND) -> "MaskPolicy":
        return cls(variant=LOCAL_PLUS_GLOBAL, w=w, fusion=fusion)


def compute_scores(z: np.ndarray, head: AttentionHeadWeights) -> ScoreMatrix:
    """Scaled dot-product scores Q Kᵀ / sqrt(d) plus per-row means."""
    z = np.asarray(z, dtype=np.float64)
    d = head.inner_dim
    q = matmul(z, head.w_q)
    k = matmul(z, head.w_k)
    e = (q @ k.T) / np.sqrt(d)
    return ScoreMatrix(e, e.mean(axis=1))


def local_mask(T: int, w: int) -> AttentionMask:
    """Banded window mask: query i attends keys within +-w, clamped to range."""
    if T < 1:
        raise ParameterError(f"sequence length must be >= 1, got {T}")
    return AttentionMask(length=T, w=w)


def global_mask(scores: ScoreMatrix) -> AttentionMask:
    """Keys whose raw score strictly exceeds the query's mean score.

    Constant rows yield empty sets; callers keep rows nonempty via the
    local window union.
    """
    return AttentionMask(scores.e > scores.row_means[:, None])


def fuse_heads(per_head_globals: Iterable[AttentionMask],
               fusion: str) -> list[AttentionMask]:
    """Combine per-head global masks; returns one mask per head.

    The masks may come from a generator: intersection and union keep only
    the running result and the current head's mask.
    """
    if fusion == FUSION_PER_HEAD:
        masks = list(per_head_globals)
        if not masks:
            raise ParameterError("fuse_heads requires at least one head mask")
        return masks
    combine = {FUSION_AND: np.logical_and, FUSION_OR: np.logical_or}.get(fusion)
    if combine is None:
        raise ParameterError(f"unknown fusion variant {fusion!r}")
    fused, heads = None, 0
    for heads, mask in enumerate(per_head_globals, 1):
        fused = mask.rows.copy() if fused is None else combine(fused, mask.rows, out=fused)
    if fused is None:
        raise ParameterError("fuse_heads requires at least one head mask")
    return [AttentionMask(fused)] * heads


def _policy_mask(T: int, policy: MaskPolicy, g: AttentionMask | None) -> AttentionMask:
    """One head's attended sets S_i, given its global mask g if local_global."""
    if policy.variant == DENSE:
        return AttentionMask.full(T)
    loc = local_mask(T, policy.w)
    return loc if policy.variant == LOCAL_ONLY else loc.union(g)


def build_masks(per_head_scores: list[ScoreMatrix],
                policy: MaskPolicy) -> list[AttentionMask]:
    """Per-head attended sets S_i, with fused global masks if the policy has them."""
    global_masks = [None] * len(per_head_scores)
    if policy.variant == LOCAL_PLUS_GLOBAL:
        global_masks = fuse_heads([global_mask(s) for s in per_head_scores],
                                  policy.fusion)
    T = per_head_scores[0].length
    return [_policy_mask(T, policy, g) for g in global_masks]


@dataclass
class AttentionInternals:
    """One layer's attention state, derived from its input z one head at a time.

    Attended sets shared by every head are built once; only sgm2 derives
    each head's from that head's scores. Scores are derived afresh when
    asked for, so a caller walking the heads holds at most one head's.
    """

    z: np.ndarray
    mh: MultiHeadWeights
    policy: MaskPolicy
    shared: AttentionMask | None  # every head's attended sets; None for sgm2
    fused: AttentionMask | None  # sgm1/sgm3's fused global mask

    def head_scores(self, h: int) -> ScoreMatrix | BandScores:
        """Head h's scores: `local` forms only those it reads, the rest the full matrix."""
        head = self.mh.heads[h]
        if self.policy.variant == LOCAL_ONLY:
            return BandScores(matmul(self.z, head.w_q), matmul(self.z, head.w_k))
        return compute_scores(self.z, head)

    def head_masks(self, h: int, scores: ScoreMatrix | None = None
                   ) -> tuple[AttentionMask, AttentionMask | None]:
        """Head h's attended sets and global mask (None unless local_global).

        sgm2 derives the global mask from the head's own scores; pass them
        if they are at hand.
        """
        if self.shared is not None:
            return self.shared, self.fused
        g = global_mask(scores if scores is not None else self.head_scores(h))
        return _policy_mask(self.z.shape[0], self.policy, g), g

    @property
    def scores(self) -> list[ScoreMatrix | BandScores]:
        return [self.head_scores(h) for h in range(self.mh.num_heads)]

    @property
    def masks(self) -> list[AttentionMask]:
        return [self.head_masks(h)[0] for h in range(self.mh.num_heads)]

    @property
    def global_masks(self) -> list[AttentionMask] | None:
        if self.policy.variant != LOCAL_PLUS_GLOBAL:
            return None
        return [self.head_masks(h)[1] for h in range(self.mh.num_heads)]


def attention_internals(z: np.ndarray, mh: MultiHeadWeights,
                        policy: MaskPolicy) -> AttentionInternals:
    """The state of one attention layer, derived from its input z.

    sparse_attend takes its scores and masks from here, so recomputing
    them from a layer's input gives exactly the sets that attention used.
    """
    z = np.asarray(z, dtype=np.float64)
    if policy.variant == LOCAL_PLUS_GLOBAL and policy.fusion == FUSION_PER_HEAD:
        return AttentionInternals(z, mh, policy, None, None)
    fused = None
    if policy.variant == LOCAL_PLUS_GLOBAL:
        # each head's scores live only until its boolean global mask is
        # folded in; attention computes them again with the same gemm
        fused = fuse_heads((global_mask(compute_scores(z, head)) for head in mh.heads),
                           policy.fusion)[0]
    return AttentionInternals(z, mh, policy, _policy_mask(z.shape[0], policy, fused),
                              fused)


@dataclass
class AttentionResult:
    output: np.ndarray  # (T, model_dim)
    masks: list[AttentionMask]  # per head, the S_i actually used


# bounds the keys one batch of rows reads, and so the kernel's transient memory
_GATHER_KEYS = 1 << 14


def _plan(mask: AttentionMask) -> Iterator[tuple[np.ndarray, np.ndarray | _Window | None]]:
    """The row batches that attend a mask, as (rows, keys), one at a time.

    Rows are batched by n, their number of attended keys, at most
    _GATHER_KEYS keys a batch. keys is None where the rows attend every
    key, a _Window in a band's interior (only `local`, whose scores are
    BandScores, attends a band narrower than T), else the rows' gathered
    (len(rows), n) keys. Those are kept in the narrowest unsigned type
    that holds T - 1, since a plan that every head shares holds all of a
    layer's at once.
    """
    T, w = mask.length, mask.w
    key_type = np.min_scalar_type(T - 1)
    counts = mask.counts()
    for n in set(counts.tolist()):
        group = np.flatnonzero(counts == n)
        step = max(1, _GATHER_KEYS // n)
        for b in range(0, len(group), step):
            rows = group[b : b + step]
            if n == T:
                keys = None
            elif w is not None and n == 2 * w + 1:  # interior rows are consecutive
                keys = _Window(int(rows[0]) - w, n)
            else:
                keys = mask.keys(rows, n).astype(key_type)
            yield rows, keys


def _attend(plan: Iterable, scores: ScoreMatrix | BandScores, v: np.ndarray) -> np.ndarray:
    """Softmax over each query's attended scores, applied to their values.

    Each batch reads only its rows' keys, so off-mask entries never enter
    the arithmetic. (q,1,n) @ (q,n,d) makes one gemv per row, as a lone
    row's product does.
    """
    out = np.empty((scores.length, v.shape[1]))
    for rows, keys in plan:
        if keys is None:
            weights, values = softmax(scores.at(rows)), v
        else:
            weights = softmax(scores.at(rows, keys))
            values = (keys.of(v, len(rows)) if isinstance(keys, _Window)
                      else np.take(v, keys, axis=0))
        out[rows] = (weights[:, None, :] @ values)[:, 0]
    return out


def sparse_attend(
    z: np.ndarray, mh: MultiHeadWeights, policy: MaskPolicy
) -> AttentionResult:
    """Masked multi-head attention: per-head attend, concat, project by w_p.

    Heads attend one at a time, so at most one head's scores are alive.
    Attended sets that every head shares are planned once for the layer;
    sgm2 plans each head's own, a batch at a time as it attends.
    """
    layer = attention_internals(z, mh, policy)
    shared = None if layer.shared is None else list(_plan(layer.shared))
    head_outputs, masks = [], []
    for h, head in enumerate(mh.heads):
        v = matmul(layer.z, head.w_v)
        scores = layer.head_scores(h)
        mask = layer.head_masks(h, scores)[0]
        head_outputs.append(_attend(_plan(mask) if shared is None else shared, scores, v))
        masks.append(mask)
        del scores  # before the next head's are formed
    concat = np.concatenate(head_outputs, axis=1)
    return AttentionResult(matmul(concat, mh.w_p), masks)


@dataclass
class SparsityRow:
    layer: int
    head: int
    mean_density: float
    min_density: float
    max_density: float
    global_density: float


@dataclass
class SparsityReport:
    rows: list[SparsityRow] = field(default_factory=list)


def mask_stats(
    masks: list[list[AttentionMask]],
    global_masks: list[list[AttentionMask] | None] | None = None,
) -> SparsityReport:
    """Density stats per (layer, head); global density 0 when no global mask."""
    if not masks:
        raise ParameterError("mask_stats requires at least one layer")
    report = SparsityReport()
    for li, layer_masks in enumerate(masks):
        for hi, mask in enumerate(layer_masks):
            dens = mask.row_density()
            gdens = 0.0
            if global_masks is not None and global_masks[li] is not None:
                gdens = float(global_masks[li][hi].row_density().mean())
            report.rows.append(
                SparsityRow(li, hi, float(dens.mean()), float(dens.min()),
                            float(dens.max()), gdens)
            )
    return report


def format_sparsity_report(report: SparsityReport) -> str:
    lines = ["layer head mean_density min_density max_density global_density"]
    lines += [
        f"{r.layer} {r.head} {r.mean_density:.6f} {r.min_density:.6f} "
        f"{r.max_density:.6f} {r.global_density:.6f}"
        for r in report.rows
    ]
    return "\n".join(lines) + "\n"


def export_heatmap(scores: ScoreMatrix, path) -> None:
    """Write the dense post-softmax attention matrix as a T x T CSV.

    Rows are queries, columns keys; values in [0, 1].
    """
    weights = softmax(scores.e)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for row in weights:
            fh.write(",".join(f"{v:.12f}" for v in row) + "\n")
    os.replace(tmp, path)

"""Sparse multi-head self-attention: scores, local/global masks, fusion.

The attended index set for query i is the union of a fixed local window
and the keys whose raw score strictly exceeds the query's mean score.
With several heads the global parts can be kept per head, intersected,
or unioned before attending.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import matmul, softmax

__all__ = [
    "AttentionHeadWeights",
    "MultiHeadWeights",
    "ScoreMatrix",
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


@dataclass
class AttentionMask:
    """Per-query attended-key sets as a boolean (T, T) matrix."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=bool)
        if self.rows.ndim != 2 or self.rows.shape[0] != self.rows.shape[1]:
            raise ShapeError(f"mask must be square, got {self.rows.shape}")

    @property
    def length(self) -> int:
        return self.rows.shape[0]

    def indices(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.rows[i])

    def union(self, other: "AttentionMask") -> "AttentionMask":
        return AttentionMask(self.rows | other.rows)

    def row_density(self) -> np.ndarray:
        return self.rows.sum(axis=1) / self.length

    @classmethod
    def full(cls, T: int) -> "AttentionMask":
        return cls(np.ones((T, T), dtype=bool))


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
    # |i - j| <= w as j <= i + w and not j <= i - w - 1, with no int temporaries
    rows = np.tri(T, k=w, dtype=bool) & ~np.tri(T, k=-w - 1, dtype=bool)
    return AttentionMask(rows)


def global_mask(scores: ScoreMatrix) -> AttentionMask:
    """Keys whose raw score strictly exceeds the query's mean score.

    Constant rows yield empty sets; callers keep rows nonempty via the
    local window union.
    """
    return AttentionMask(scores.e > scores.row_means[:, None])


def fuse_heads(per_head_globals: list[AttentionMask], fusion: str) -> list[AttentionMask]:
    """Combine per-head global masks; returns one mask per head."""
    if not per_head_globals:
        raise ParameterError("fuse_heads requires at least one head mask")
    if fusion == FUSION_PER_HEAD:
        return list(per_head_globals)
    stacked = np.stack([m.rows for m in per_head_globals])
    if fusion == FUSION_AND:
        fused = AttentionMask(stacked.all(axis=0))
    elif fusion == FUSION_OR:
        fused = AttentionMask(stacked.any(axis=0))
    else:
        raise ParameterError(f"unknown fusion variant {fusion!r}")
    return [fused] * len(per_head_globals)


def build_masks(per_head_scores: list[ScoreMatrix], policy: MaskPolicy,
                global_masks: list[AttentionMask] | None = None) -> list[AttentionMask]:
    """Per-head attended sets S_i; fused global masks are derived if not given."""
    T = per_head_scores[0].length
    if policy.variant == DENSE:
        return [AttentionMask.full(T)] * len(per_head_scores)
    loc = local_mask(T, policy.w)
    if policy.variant == LOCAL_ONLY:
        return [loc] * len(per_head_scores)
    if global_masks is None:
        global_masks = fuse_heads([global_mask(s) for s in per_head_scores],
                                  policy.fusion)
    return [loc.union(g) for g in global_masks]


@dataclass
class AttentionInternals:
    """One layer's per-head scores, attended sets and fused global masks."""

    scores: list[ScoreMatrix]
    masks: list[AttentionMask]
    global_masks: list[AttentionMask] | None  # None unless local_global


def attention_internals(z: np.ndarray, mh: MultiHeadWeights,
                        policy: MaskPolicy) -> AttentionInternals:
    """Scores and masks of one attention layer, derived from its input z.

    sparse_attend takes its masks from here, so recomputing them from a
    layer's input gives exactly the sets that attention used.
    """
    z = np.asarray(z, dtype=np.float64)
    scores = [compute_scores(z, head) for head in mh.heads]
    global_masks = None
    if policy.variant == LOCAL_PLUS_GLOBAL:
        global_masks = fuse_heads([global_mask(s) for s in scores], policy.fusion)
    return AttentionInternals(scores, build_masks(scores, policy, global_masks),
                              global_masks)


@dataclass
class AttentionResult:
    output: np.ndarray  # (T, model_dim)
    masks: list[AttentionMask]  # per head, the S_i actually used


# bounds the keys one batch of rows gathers, and so the kernel's transient memory
_GATHER_KEYS = 1 << 14


def _attend(e: np.ndarray, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Softmax over each query's attended scores, applied to their values.

    Rows are batched by n, their number of attended keys; a batch gathers
    only its rows' keys, so off-mask entries never enter the arithmetic.
    (q,1,n) @ (q,n,d) makes one gemv per row, as a lone row's product does.
    """
    T = e.shape[0]
    out = np.empty((T, v.shape[1]))
    counts = rows.sum(axis=1)
    for n in set(counts.tolist()):
        group = np.flatnonzero(counts == n)
        step = max(1, _GATHER_KEYS // n)
        for b in range(0, len(group), step):
            q = group[b : b + step]
            if n == T:
                weights, values = softmax(e[q]), v
            else:
                keys = np.flatnonzero(rows[q]).reshape(len(q), n) % T
                # np.take, not fancy indexing: about 3x faster for these gathers
                weights = softmax(np.take(e, keys + (q * T)[:, None]))
                values = np.take(v, keys, axis=0)
            out[q] = (weights[:, None, :] @ values)[:, 0]
    return out


def sparse_attend(
    z: np.ndarray, mh: MultiHeadWeights, policy: MaskPolicy
) -> AttentionResult:
    """Masked multi-head attention: per-head attend, concat, project by w_p."""
    internals = attention_internals(z, mh, policy)
    head_outputs = [
        _attend(scores.e, mask.rows, matmul(z, head.w_v))
        for head, scores, mask in zip(mh.heads, internals.scores, internals.masks)
    ]
    concat = np.concatenate(head_outputs, axis=1)
    return AttentionResult(matmul(concat, mh.w_p), internals.masks)


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

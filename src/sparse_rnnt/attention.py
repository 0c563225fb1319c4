"""Sparse multi-head self-attention: scores, local/global masks, fusion.

The attended index set for query i is the union of a fixed local window
and the keys whose raw score strictly exceeds the query's mean score.
With several heads the global parts can be kept per head, intersected,
or unioned before attending.

The local-only policy forms each query's scores for its window alone,
in O(T·w) memory. The global mask needs every score of a row for its
mean, and nothing outside that row, so the other policies score, mask
and attend b query rows of every head at a time (score_blocks), in
O(b·T) memory.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParameterError
from .frontend import atomic_output
from .numerics import row_matmul, softmax

__all__ = [
    "AttentionHeadWeights",
    "MultiHeadWeights",
    "BandScores",
    "ScoreBlock",
    "AttentionMask",
    "MaskPolicy",
    "parse_policy",
    "LOCAL_W",
    "FUSION_OR",
    "FUSION_PER_HEAD",
    "FUSION_AND",
    "local_mask",
    "global_mask",
    "fuse_heads",
    "score_blocks",
    "sparse_attend",
    "mask_stats",
    "format_sparsity_report",
    "export_heatmap",
]

LOCAL_W = 40  # the local half-window, in subsampled frames, unless one is given

# fusion variants, ordered loosest to sparsest global mask
FUSION_OR = "sgm1_or"
FUSION_PER_HEAD = "sgm2_per_head"
FUSION_AND = "sgm3_and"

_FUSIONS = (FUSION_OR, FUSION_PER_HEAD, FUSION_AND)

# bounds the scores one block of query rows holds over all heads (16 MB);
# a 20 s DOI window (T' up to about 600 at H = 4) is one block
_BLOCK_SCORES = 1 << 21
# bounds the keys one batch of rows reads over the heads it attends at
# once, and so the kernel's transient memory
_GATHER_KEYS = 1 << 14


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


def _per_head(z: np.ndarray, weights: Iterable[np.ndarray]) -> np.ndarray:
    """z times each head's projection, stacked (H, T, inner_dim)."""
    return np.stack([z @ w for w in weights])


@dataclass(frozen=True)
class _Window:
    """A band's interior batch: its r-th row attends the n keys from start + r on."""

    start: int
    n: int

    def of(self, x: np.ndarray, q: int) -> np.ndarray:
        """The first q rows' keys of every head's x (H, T, d), as a (H, q, n, d)
        strided view, with no copy.

        Each row's (n, d) block is a C-contiguous run of x, laid out as a
        gathered copy would be, so products over it keep their bits.
        """
        windows = np.lib.stride_tricks.sliding_window_view(x, self.n, axis=1)
        return windows[:, self.start : self.start + q].transpose(0, 1, 3, 2)


@dataclass
class BandScores:
    """Every head's scores kept as their query and key projections, formed
    only where read.

    `local` reads each query's band alone, so no (T, T) array is formed.
    An entry is the same dot product as in score_blocks, but may differ
    from that gemm in the last bits.
    """

    q: np.ndarray  # (H, T, d)
    k: np.ndarray  # (H, T, d)

    def at(self, rows: np.ndarray, keys: np.ndarray | _Window | None = None
           ) -> np.ndarray:
        """Scores of query rows at their keys (H, len(rows), n); None means every key."""
        if keys is None:
            T = self.q.shape[1]
            keys = np.broadcast_to(np.arange(T), (len(rows), T))
        k = (keys.of(self.k, len(rows)) if isinstance(keys, _Window)
             else np.take(self.k, keys, axis=1))
        return row_matmul(self.q[:, rows], k.swapaxes(-1, -2)) / np.sqrt(self.q.shape[2])


@dataclass
class ScoreBlock:
    """Query rows start, start + 1, ... of a layer: every head's scores and
    attended sets.

    sets[h, r, j] is True iff query start + r attends key j in head h, and
    g[h, r, j] iff the fused global mask selects it. Both have one slice
    per head under sgm2, else one slice that every head shares; a query
    attends sets[h, r].sum() keys.
    """

    start: int
    e: np.ndarray  # (H, b, T) raw scores
    sets: np.ndarray | None  # (1 or H, b, T); None under dense, as all are True
    g: np.ndarray | None  # (1 or H, b, T); None without a global mask

    def at(self, rows: np.ndarray, keys: np.ndarray | None = None) -> np.ndarray:
        """Scores of block rows at their keys (H, len(rows), n); None means every key."""
        if keys is None:
            return self.e[:, rows]
        # np.take, not fancy indexing: about 3x faster for these gathers
        flat = self.e.reshape(len(self.e), -1)
        return np.take(flat, keys + (rows * self.e.shape[2])[:, None], axis=1)


class AttentionMask:
    """The local band: query i attends the keys j with |i - j| <= w, of T.

    It holds only T and w; its key sets and counts are derived on demand,
    and boolean rows only for the queries asked for.
    """

    def __init__(self, length: int, w: int):
        # w >= T already spans every key
        self.length, self.w = length, min(w, length)

    def block(self, start: int, stop: int) -> np.ndarray:
        """[r, j] is True iff query start + r attends key j, (stop - start, T)."""
        b, T, w = stop - start, self.length, self.w
        # |i - j| <= w as j <= i + w and not j <= i - w - 1, with no int temporaries
        return (np.tri(b, T, k=start + w, dtype=bool)
                & ~np.tri(b, T, k=start - w - 1, dtype=bool))

    def counts(self) -> np.ndarray:
        """Number of attended keys of each query, (T,)."""
        i = np.arange(self.length)
        return np.minimum(i + self.w + 1, self.length) - np.maximum(i - self.w, 0)

    def keys(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Sorted attended keys of query rows that each attend n keys, (len(rows), n)."""
        return np.maximum(rows - self.w, 0)[:, None] + np.arange(n)


@dataclass
class MaskPolicy:
    """Which keys each query may attend; an inference-time switch only.

    w is the local half-window in (subsampled) frames; None is dense, the
    band that spans every key. fusion joins the heads' global masks to the
    band; None is no global mask, as dense has none.
    """

    w: int | None = LOCAL_W
    fusion: str | None = FUSION_AND

    def __post_init__(self):
        if self.w is None:
            if self.fusion is not None:
                raise ParameterError(f"a dense policy has no global mask, got {self.fusion!r}")
        elif type(self.w) is not int or self.w < 0:
            raise ParameterError(f"local half-window must be an integer >= 0, got {self.w!r}")
        if self.fusion not in (None, *_FUSIONS):
            raise ParameterError(f"unknown fusion variant {self.fusion!r}")

    @classmethod
    def dense(cls) -> "MaskPolicy":
        return cls(None, None)

    @classmethod
    def local(cls, w: int = LOCAL_W) -> "MaskPolicy":
        return cls(w, None)

    @classmethod
    def local_global(cls, w: int = LOCAL_W, fusion: str = FUSION_AND) -> "MaskPolicy":
        return cls(w, fusion)


# each banded policy's spelling, as its fusion
_FUSION_OF = {
    "local": None,
    "local+sgm1": FUSION_OR,
    "local+sgm2": FUSION_PER_HEAD,
    "local+sgm3": FUSION_AND,
}


def parse_policy(spec: str, w: int = LOCAL_W) -> MaskPolicy:
    """Parse 'dense', 'local', or 'local+sgm{1,2,3}' into a mask policy;
    dense ignores w."""
    spec = spec.strip().lower()
    if spec == "dense":
        return MaskPolicy.dense()
    if spec not in _FUSION_OF:
        raise ParameterError(f"unknown mask policy {spec!r}")
    return MaskPolicy(w, _FUSION_OF[spec])


def local_mask(T: int, w: int) -> AttentionMask:
    """Banded window mask: query i attends keys within +-w, clamped to range."""
    if T < 1:
        raise ParameterError(f"sequence length must be >= 1, got {T}")
    return AttentionMask(T, w)


def global_mask(e: np.ndarray) -> np.ndarray:
    """Keys whose raw score strictly exceeds the query's mean score.

    e holds one query's scores per row of its last axis, such as a block's
    (H, b, T); each row is thresholded at its own mean. Constant rows
    yield empty sets; callers keep rows nonempty via the local window union.
    """
    return e > e.mean(axis=-1, keepdims=True)


def fuse_heads(g: np.ndarray, fusion: str) -> np.ndarray:
    """Combine the heads' global masks g, stacked along the first axis.

    sgm1 keeps a key that any head keeps and sgm3 one that every head
    keeps, as one slice (1, ...) that every head shares; sgm2 keeps each
    head's own.
    """
    if len(g) == 0:
        raise ParameterError("fuse_heads requires at least one head mask")
    if fusion == FUSION_PER_HEAD:
        return g
    if fusion == FUSION_OR:
        return g.any(axis=0, keepdims=True)
    if fusion == FUSION_AND:
        return g.all(axis=0, keepdims=True)
    raise ParameterError(f"unknown fusion variant {fusion!r}")


def score_blocks(z: np.ndarray, heads: list[AttentionHeadWeights],
                 policy: MaskPolicy) -> Iterator[ScoreBlock]:
    """A layer's scores and attended sets, b query rows of every head at a time.

    Each block's scores are one stacked (H, b, d) @ (H, d, T) product. Its
    rows are thresholded at their means, fused across heads and unioned
    with the band. b keeps a block within _BLOCK_SCORES scores, so a short
    layer is one block, whose scores have the bits of one (T, T) gemm per
    head; a gemm over fewer rows can differ from that in the last bits.
    """
    z = np.asarray(z, dtype=np.float64)
    T = z.shape[0]
    # dense is the band of half-width T, which spans every key
    band = local_mask(T, T if policy.w is None else policy.w)
    q = _per_head(z, [head.w_q for head in heads])
    # each head's K^T as a transposed view, as a lone q @ k.T reads it
    k_t = _per_head(z, [head.w_k for head in heads]).transpose(0, 2, 1)
    scale = np.sqrt(q.shape[2])
    b = max(1, _BLOCK_SCORES // (len(heads) * T))
    for start in range(0, T, b):
        e = (q[:, start : start + b] @ k_t) / scale
        sets, g = None if policy.w is None else band.block(start, start + e.shape[1])[None], None
        if policy.fusion is not None:
            g = fuse_heads(global_mask(e), policy.fusion)
            sets = sets | g
        yield ScoreBlock(start, e, sets, g)
        del e, sets, g  # before the next block is scored


@dataclass
class AttentionResult:
    output: np.ndarray  # (T, model_dim)
    observed: object = None  # what sparse_attend's observer returned


def _plan(counts: np.ndarray, keys: Callable, T: int, heads: int,
          w: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray | _Window | None]]:
    """The row batches that attend a run of query rows, as (rows, keys),
    one at a time.

    counts[r] is row r's number of attended keys, of T, and keys(rows, n)
    gives the sorted keys of rows that each attend n. Rows are batched by
    n, at most _GATHER_KEYS keys a batch over the `heads` heads that
    attend it at once. keys is None where the rows attend every key, a
    _Window in the interior of a band of half-width w (only `local`, whose
    scores are BandScores, passes one), else the rows' gathered
    (len(rows), n) keys.
    """
    # rows sorted by count, each count's rows in ascending order
    order = np.argsort(counts, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        n = int(counts[group[0]])
        step = max(1, _GATHER_KEYS // (heads * n))
        for b in range(0, len(group), step):
            rows = group[b : b + step]
            if n == T:
                yield rows, None
            elif w is not None and n == 2 * w + 1:  # interior rows are consecutive
                yield rows, _Window(int(rows[0]) - w, n)
            else:
                yield rows, keys(rows, n)


def _block_keys(sets: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sorted attended keys of block rows that each attend n keys, (len(rows), n)."""
    return np.flatnonzero(sets[rows]).reshape(len(rows), n) % sets.shape[1]


def _attend(plan: Iterable, at: Callable, v: np.ndarray, out: np.ndarray) -> None:
    """Softmax over each query's attended scores, applied to their values.

    at(rows, keys) gives the scores of the heads attended at once,
    (H, len(rows), n), v their values (H, T, d) and out their outputs for
    the planned rows. Each batch reads only its rows' keys, so off-mask
    entries never enter the arithmetic. Each row and head is its own
    product (row_matmul), as a lone row's is.
    """
    for rows, keys in plan:
        if keys is None:
            weights, values = softmax(at(rows)), v[:, None]
        else:
            weights = softmax(at(rows, keys))
            values = (keys.of(v, len(rows)) if isinstance(keys, _Window)
                      else np.take(v, keys, axis=1))
        out[:, rows] = row_matmul(weights, values)


def _attend_block(block: ScoreBlock, v: np.ndarray, out: np.ndarray) -> None:
    """Attend a block's rows by each slice of its sets, with the heads that
    share it at once: every head by one slice, or under sgm2 each head by
    its own. Under dense every row attends every key."""
    H, b, T = block.e.shape
    if block.sets is None:
        return _attend(_plan(np.full(b, T), None, T, H), block.at, v, out)
    share = H // len(block.sets)
    for s, sets in enumerate(block.sets):
        heads = slice(s * share, (s + 1) * share)
        scores = ScoreBlock(block.start, block.e[heads], sets[None], None)
        _attend(_plan(sets.sum(axis=1), partial(_block_keys, sets), T, share),
                scores.at, v[heads], out[heads])


def sparse_attend(z: np.ndarray, mh: MultiHeadWeights, policy: MaskPolicy,
                  observe: Callable | None = None) -> AttentionResult:
    """Masked multi-head attention: per-head attend, concat, project by w_p.

    `local` attends its band, its scores formed where read. The other
    policies attend the blocks of score_blocks as they come, all heads at
    once where they share attended sets; sgm2 attends each head's own.

    observe, if given, is called once as observe(z, counts, global_counts):
    each head's number of attended keys and of global keys per query, (H, T)
    each, counted from the sets attended (global_counts is None without
    a global mask). What it returns is the result's `observed`.
    """
    z = np.asarray(z, dtype=np.float64)
    T, H = z.shape[0], mh.num_heads
    v = _per_head(z, [head.w_v for head in mh.heads])
    out = np.empty_like(v)
    counts = global_counts = None
    if observe is not None:
        counts = np.empty((H, T), dtype=np.int64)
        if policy.fusion is not None:
            global_counts = np.empty_like(counts)
    if policy.w is not None and policy.fusion is None:
        band = local_mask(T, policy.w)
        scores = BandScores(_per_head(z, [head.w_q for head in mh.heads]),
                            _per_head(z, [head.w_k for head in mh.heads]))
        _attend(_plan(band.counts(), band.keys, T, H, band.w), scores.at, v, out)
        if counts is not None:
            counts[:] = band.counts()
    else:
        for block in score_blocks(z, mh.heads, policy):
            rows = slice(block.start, block.start + block.e.shape[1])
            if counts is not None:
                counts[:, rows] = T if block.sets is None else block.sets.sum(axis=2)
            if global_counts is not None:
                global_counts[:, rows] = block.g.sum(axis=2)
            _attend_block(block, v, out[:, rows])
            del block  # before the next block is scored
    # the heads' (T, d) outputs side by side, (T, H * d)
    concat = out.transpose(1, 0, 2).reshape(T, -1)
    observed = None if observe is None else observe(z, counts, global_counts)
    return AttentionResult(concat @ mh.w_p, observed)


@dataclass
class SparsityRow:
    layer: int
    head: int
    mean_density: float
    min_density: float
    max_density: float
    global_density: float


def mask_stats(
    counts: list[np.ndarray],
    global_counts: list[np.ndarray | None] | None = None,
) -> list[SparsityRow]:
    """Density stats per (layer, head) from each layer's per-query counts of
    attended keys and of global keys, (H, T) each; global density 0 where
    a layer has none."""
    if not counts:
        raise ParameterError("mask_stats requires at least one layer")
    rows = []
    for li, layer_counts in enumerate(counts):
        T = layer_counts.shape[1]
        for hi, head_counts in enumerate(layer_counts):
            dens = head_counts / T
            gdens = 0.0
            if global_counts is not None and global_counts[li] is not None:
                gdens = float((global_counts[li][hi] / T).mean())
            rows.append(
                SparsityRow(li, hi, float(dens.mean()), float(dens.min()),
                            float(dens.max()), gdens)
            )
    return rows


def format_sparsity_report(rows: list[SparsityRow]) -> str:
    lines = ["layer head mean_density min_density max_density global_density"]
    lines += [
        f"{r.layer} {r.head} {r.mean_density:.6f} {r.min_density:.6f} "
        f"{r.max_density:.6f} {r.global_density:.6f}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def export_heatmap(z: np.ndarray, head: AttentionHeadWeights, path) -> None:
    """Write one head's dense post-softmax attention matrix as a T x T CSV,
    a block of rows at a time.

    Rows are queries, columns keys; values in [0, 1].
    """
    with atomic_output(path) as fh:
        for block in score_blocks(z, [head], MaskPolicy.dense()):
            for row in softmax(block.e[0]):
                fh.write(",".join(f"{v:.12f}" for v in row) + "\n")

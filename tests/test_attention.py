import dataclasses
import tracemalloc

import numpy as np
import pytest

from sparse_rnnt import attention
from sparse_rnnt.attention import (
    FUSION_AND,
    FUSION_OR,
    FUSION_PER_HEAD,
    AttentionHeadWeights,
    MaskPolicy,
    MultiHeadWeights,
    export_heatmap,
    format_sparsity_report,
    fuse_heads,
    global_mask,
    local_mask,
    mask_stats,
    score_blocks,
    sparse_attend,
)
from sparse_rnnt.errors import ParameterError
from tests_oracles import oracle_sparse_attend as oracle_attention
from tests_oracles import rowwise_sparse_attend


def random_mh(rng, model_dim, num_heads, inner_dim):
    heads = [
        AttentionHeadWeights(
            rng.normal(size=(model_dim, inner_dim)),
            rng.normal(size=(model_dim, inner_dim)),
            rng.normal(size=(model_dim, inner_dim)),
        )
        for _ in range(num_heads)
    ]
    return MultiHeadWeights(heads, rng.normal(size=(num_heads * inner_dim, model_dim)))


def attend_peaks(rng, policy, lengths, num_heads=4):
    """Traced peak bytes of one sparse_attend call at each T', heads of 8."""
    mh = random_mh(rng, 32, num_heads, 8)
    peaks = {}
    for T in lengths:  # the shorter first, so a quadratic path fails small
        z = rng.normal(size=(T, 32))
        tracemalloc.start()
        try:
            sparse_attend(z, mh, policy)
            peaks[T] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def observed_counts(z, mh, policy):
    """(counts, global counts) that sparse_attend observes of the sets it attends."""
    return sparse_attend(z, mh, policy, lambda z, *counts: counts).observed


def scores_of(z, heads):
    """Every head's (T, T) scores, read block by block from score_blocks."""
    return np.concatenate([b.e for b in score_blocks(z, heads, MaskPolicy.dense())],
                          axis=1)


class TestComputeScores:
    def test_orthonormal_identity(self):
        d = 4
        z = np.eye(d)
        head = AttentionHeadWeights(np.eye(d), np.eye(d), np.eye(d))
        assert np.allclose(scores_of(z, [head]), np.eye(d) / np.sqrt(d))

    def test_zero_query_weights(self, rng):
        z = rng.normal(size=(5, 3))
        head = AttentionHeadWeights(np.zeros((3, 2)), rng.normal(size=(3, 2)),
                                    rng.normal(size=(3, 2)))
        e = scores_of(z, [head])
        assert np.array_equal(e, np.zeros((1, 5, 5)))
        # all-zero rows have no key above their mean
        assert not global_mask(e).any()

    def test_matches_naive_oracle(self, rng, monkeypatch):
        z = rng.normal(size=(6, 4))
        heads = [AttentionHeadWeights(*(rng.normal(size=(4, 3)) for _ in range(3)))
                 for _ in range(2)]
        expected = [z @ h.w_q @ (z @ h.w_k).T / np.sqrt(3) for h in heads]
        assert np.allclose(scores_of(z, heads), expected, atol=1e-12)
        # blocks of one row: 2 heads x 1 row x 6 keys
        monkeypatch.setattr(attention, "_BLOCK_SCORES", 12)
        assert [b.e.shape for b in score_blocks(z, heads, MaskPolicy.dense())] == \
            [(2, 1, 6)] * 6
        assert np.allclose(scores_of(z, heads), expected, atol=1e-12)


def keys_of(mask, i):
    """Query i's attended keys in the band."""
    return list(np.flatnonzero(mask.block(i, i + 1)[0]))


class TestLocalMask:
    def test_window_definition(self):
        m = local_mask(5, 1)
        assert keys_of(m, 2) == [1, 2, 3]

    def test_diagonal(self):
        m = local_mask(5, 0)
        for i in range(5):
            assert keys_of(m, i) == [i]

    def test_clamping(self):
        m = local_mask(3, 10)
        for i in range(3):
            assert keys_of(m, i) == [0, 1, 2]

    def test_contains_self(self, rng):
        for _ in range(20):
            T = int(rng.integers(1, 30))
            w = int(rng.integers(0, 40))  # w >= T included
            m = local_mask(T, w)
            rows = m.block(0, T)
            assert all(rows[i, i] for i in range(T))
            idx = np.arange(T)
            assert np.array_equal(rows, np.abs(idx[:, None] - idx[None, :]) <= w)
            # any run of query rows is the same rows of the band
            start = int(rng.integers(0, T))
            stop = int(rng.integers(start, T + 1))
            assert np.array_equal(m.block(start, stop), rows[start:stop])


class TestGlobalMask:
    def test_constant_row_empty(self):
        assert not global_mask(np.ones((4, 4))).any()

    def test_strictly_above_mean(self):
        e = np.array([[1.0, 2.0, 3.0, 4.0]] * 4)
        assert list(np.flatnonzero(global_mask(e)[0])) == [2, 3]
        # each row of a stacked block is thresholded at its own mean
        g = global_mask(np.stack([e, -e])[:, None])
        assert [list(np.flatnonzero(h[0, 0])) for h in g] == [[2, 3], [0, 1]]

    def test_uniform_density_monte_carlo(self):
        rng = np.random.default_rng(4242)
        e = rng.uniform(size=(1000, 1000))
        assert abs(global_mask(e).mean() - 0.5) < 0.05


class TestFuseHeads:
    def test_set_algebra(self):
        def from_sets(sets, T):
            rows = np.zeros((len(sets), T), dtype=bool)
            for i, s in enumerate(sets):
                rows[i, list(s)] = True
            return rows

        g = np.stack([from_sets([{1, 2}] * 4, 4), from_sets([{2, 3}] * 4, 4)])
        both_and = fuse_heads(g, FUSION_AND)
        both_or = fuse_heads(g, FUSION_OR)
        # one fused slice that every head shares
        assert both_and.shape == both_or.shape == (1, 4, 4)
        assert list(np.flatnonzero(both_and[0, 0])) == [2]
        assert list(np.flatnonzero(both_or[0, 0])) == [1, 2, 3]
        assert fuse_heads(g, FUSION_PER_HEAD) is g

    def test_single_head_variants_identical(self, rng):
        m = rng.uniform(size=(1, 6, 6)) > 0.5
        for fusion in (FUSION_AND, FUSION_OR, FUSION_PER_HEAD):
            assert np.array_equal(fuse_heads(m, fusion), m)

    def test_subset_chain(self, rng):
        for _ in range(50):
            T = int(rng.integers(2, 12))
            masks = rng.uniform(size=(4, T, T)) > 0.5
            anded = fuse_heads(masks, FUSION_AND)[0]
            ored = fuse_heads(masks, FUSION_OR)[0]
            for h in range(4):
                assert np.all(anded <= masks[h])
                assert np.all(masks[h] <= ored)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            fuse_heads(np.zeros((0, 3, 3), dtype=bool), FUSION_AND)
        with pytest.raises(ParameterError):
            fuse_heads(np.zeros((2, 3, 3), dtype=bool), "sgm4")


class TestSparseAttend:
    def test_full_mask_policies_coincide(self, rng):
        z = rng.normal(size=(7, 6))
        mh = random_mh(rng, 6, 2, 3)
        dense = sparse_attend(z, mh, MaskPolicy.dense()).output
        loc = sparse_attend(z, mh, MaskPolicy.local(10)).output
        lg = sparse_attend(z, mh, MaskPolicy.local_global(10)).output
        assert np.max(np.abs(dense - loc)) < 1e-9
        assert np.max(np.abs(dense - lg)) < 1e-9

    def test_single_frame(self, rng):
        z = rng.normal(size=(1, 4))
        mh = random_mh(rng, 4, 2, 2)
        out = sparse_attend(z, mh, MaskPolicy.local_global(0)).output
        v = np.concatenate([z @ h.w_v for h in mh.heads], axis=1)
        assert np.allclose(out, v @ mh.w_p, atol=1e-12)

    def test_matches_straight_line_oracle(self, rng):
        z = rng.normal(size=(8, 6))
        mh = random_mh(rng, 6, 2, 3)
        policy = MaskPolicy.local_global(1, FUSION_AND)
        out = sparse_attend(z, mh, policy).output
        assert np.max(np.abs(out - oracle_attention(z, mh, policy))) < 1e-9

    @pytest.mark.parametrize("variant", ["dense", "local", "local_global"])
    @pytest.mark.parametrize("fusion", [FUSION_AND, FUSION_PER_HEAD, FUSION_OR])
    def test_oracle_all_variants(self, rng, variant, fusion):
        # dense and local carry no global mask, so only local_global takes
        # the fusion; a dense policy refuses one
        z = rng.normal(size=(6, 4))
        mh = random_mh(rng, 4, 2, 2)
        if variant == "dense":
            with pytest.raises(ParameterError):
                MaskPolicy(None, fusion)
        policy = {"dense": MaskPolicy.dense(), "local": MaskPolicy.local(1),
                  "local_global": MaskPolicy.local_global(1, fusion)}[variant]
        out = sparse_attend(z, mh, policy).output
        assert np.max(np.abs(out - oracle_attention(z, mh, policy))) < 1e-9

    @pytest.mark.parametrize("policy", [
        MaskPolicy.dense(), MaskPolicy.local(30),
        MaskPolicy.local_global(30, FUSION_OR),
        MaskPolicy.local_global(30, FUSION_PER_HEAD),
        MaskPolicy.local_global(30, FUSION_AND),
    ], ids=["dense", "local", "sgm1", "sgm2", "sgm3"])
    def test_matches_rowwise_bit_for_bit(self, rng, policy):
        # at T = 400, w = 30 the all-keys rows (dense) and the band's interior
        # rows (local) each span several batches; the band's edge rows and
        # the global sets give rows of differing counts. The other shapes
        # are where the band's interior windows start or stop: w = 0 (every
        # row interior), T = 2w + 1 (the one interior row attends every
        # key), T = 2w + 2 (two interior rows) and w >= T (no band left)
        assert (400 - 2 * 30) * (2 * 30 + 1) > attention._GATHER_KEYS
        for T, w in ((400, 30), (40, 0), (61, 30), (62, 30), (20, 30), (20, 20)):
            if policy.w is not None:  # dense has no half-window
                policy = dataclasses.replace(policy, w=w)
            z = rng.normal(size=(T, 8))
            mh = random_mh(rng, 8, 2, 4)
            out = sparse_attend(z, mh, policy).output
            assert np.array_equal(
                out, rowwise_sparse_attend(z, mh, policy, library_scores=True)), (T, w)
            if policy == MaskPolicy.local(w):
                # `local` forms only its band's scores, whose last bits can
                # differ from the full gemm's
                full = rowwise_sparse_attend(z, mh, policy)
                assert np.max(np.abs(out - full)) <= 1e-12, (T, w)
            else:
                # each layer here is one block, scored by one full gemm
                assert np.array_equal(out, rowwise_sparse_attend(z, mh, policy)), (T, w)

    @pytest.mark.parametrize("policy", [
        MaskPolicy.dense(),
        MaskPolicy.local_global(3, FUSION_OR),
        MaskPolicy.local_global(3, FUSION_PER_HEAD),
        MaskPolicy.local_global(3, FUSION_AND),
    ], ids=["dense", "sgm1", "sgm2", "sgm3"])
    def test_block_edges_match_rowwise(self, rng, monkeypatch, policy):
        # with H * b * b scores a block, T = b - 1 and b are one block; at
        # T = b + 1 a block is b - 1 rows (two blocks), at 2b + 1 it is 9
        # (five blocks)
        H, b = 2, 20
        monkeypatch.setattr(attention, "_BLOCK_SCORES", H * b * b)
        mh = random_mh(rng, 8, H, 4)
        for T, blocks in ((b - 1, 1), (b, 1), (b + 1, 2), (2 * b + 1, 5)):
            z = rng.normal(size=(T, 8))
            assert len(list(score_blocks(z, mh.heads, policy))) == blocks
            out = sparse_attend(z, mh, policy).output
            assert np.array_equal(
                out, rowwise_sparse_attend(z, mh, policy, library_scores=True)), T
            full = rowwise_sparse_attend(z, mh, policy)
            if blocks == 1:
                assert np.array_equal(out, full), T
            else:
                # a gemm over a block of rows can differ from the full
                # gemm in the last bits
                assert np.max(np.abs(out - full)) <= 1e-12, T

    @pytest.mark.parametrize("fusion", [FUSION_OR, FUSION_PER_HEAD, FUSION_AND])
    def test_key_sets_planned_once_per_layer(self, rng, monkeypatch, fusion):
        # attended sets that every head shares are planned once, so their
        # key sets are gathered once per batch, not once per head; sgm2
        # plans each head
        T, H = 60, 4
        z = rng.normal(size=(T, 8))
        mh = random_mh(rng, 8, H, 2)
        policy = MaskPolicy.local_global(2, fusion)
        calls = []
        block_keys = attention._block_keys

        def spy(sets, rows, n):
            calls.append(n)
            return block_keys(sets, rows, n)

        monkeypatch.setattr(attention, "_block_keys", spy)
        counts = observed_counts(z, mh, policy)[0]
        # the layer is one block, and H * T * max count is within
        # _GATHER_KEYS, so each count is one batch
        assert H * T * T <= attention._GATHER_KEYS
        assert len(list(score_blocks(z, mh.heads, policy))) == 1
        per_head = [sorted({int(n) for n in c} - {T}) for c in counts]
        if fusion == FUSION_PER_HEAD:
            want = [n for ns in per_head for n in ns]
        else:
            assert all(ns == per_head[0] for ns in per_head)
            want = per_head[0]
        assert sorted(calls) == sorted(want)
        assert len(calls) >= len(per_head[0]) > 1

    def test_mask_rows_nonempty_and_contain_self(self, rng):
        z = rng.normal(size=(9, 4))
        mh = random_mh(rng, 4, 2, 2)
        for policy in (MaskPolicy.local(0), MaskPolicy.local_global(0)):
            for block in score_blocks(z, mh.heads, policy):
                rows = np.arange(block.e.shape[1])
                assert block.sets[:, rows, block.start + rows].all()
            assert observed_counts(z, mh, policy)[0].min() >= 1

    def test_monotone_attended_set_sizes(self, rng):
        z = rng.normal(size=(10, 4))
        mh = random_mh(rng, 4, 4, 1)
        sizes = {}
        for fusion in (FUSION_AND, FUSION_PER_HEAD, FUSION_OR):
            sizes[fusion] = observed_counts(z, mh, MaskPolicy.local_global(1, fusion))[0]
        for h in range(4):
            assert np.all(sizes[FUSION_AND][h] <= sizes[FUSION_PER_HEAD][h])
            assert np.all(sizes[FUSION_PER_HEAD][h] <= sizes[FUSION_OR][h])

    def test_off_mask_perturbation_zero_influence(self, rng):
        # diagonal masks: output row i must be bit-identical when any other
        # input row changes
        z = rng.normal(size=(6, 4))
        mh = random_mh(rng, 4, 2, 2)
        policy = MaskPolicy.local(0)
        base = sparse_attend(z, mh, policy).output
        z2 = z.copy()
        z2[4] += rng.normal(size=4)
        pert = sparse_attend(z2, mh, policy).output
        for i in range(6):
            if i != 4:
                assert np.array_equal(base[i], pert[i])
        # an off-mask inf must not reach other rows, not even as 0 * inf
        z2[4] = np.inf
        with np.errstate(invalid="ignore"):
            pert = sparse_attend(z2, mh, policy).output
        for i in range(6):
            if i != 4:
                assert np.all(np.isfinite(pert[i]))
                assert np.array_equal(base[i], pert[i])

    def test_local_memory_linear_in_length(self, rng):
        # a band of w = 40 costs O(T'·w): at T' = 8000 not even one T'xT'
        # bool (64 MB) may be allocated, and doubling T' at most about
        # doubles the peak
        peaks = attend_peaks(rng, MaskPolicy.local(40), (4000, 8000))
        for T, peak in peaks.items():
            assert peak < T * T, peaks
        assert peaks[8000] < 2.5 * peaks[4000], peaks

    @pytest.mark.parametrize("policy", [MaskPolicy.dense(), MaskPolicy.local_global(40)],
                             ids=["dense", "sgm3"])
    def test_block_memory_linear_in_length(self, rng, policy):
        # a block holds at most _BLOCK_SCORES scores (16 MB), whatever T'
        # and the number of heads: at T' = 4000 the peak stays under two
        # T'xT' bools (one float T'xT' is 128 MB), at T' = 8000 under one,
        # and doubling T' at most about doubles it. One head keeps it quick
        peaks = attend_peaks(rng, policy, (4000, 8000), num_heads=1)
        assert peaks[4000] < 2 * 4000 * 4000, peaks
        assert peaks[8000] < 8000 * 8000, peaks
        assert peaks[8000] < 2.5 * peaks[4000], peaks

    def test_deterministic(self, rng):
        z = rng.normal(size=(8, 6))
        mh = random_mh(rng, 6, 3, 2)
        policy = MaskPolicy.local_global(2, FUSION_PER_HEAD)
        r1 = sparse_attend(z, mh, policy)
        r2 = sparse_attend(z, mh, policy)
        assert np.array_equal(r1.output, r2.output)
        b1, b2 = (list(score_blocks(z, mh.heads, policy)) for _ in range(2))
        for x, y in zip(b1, b2, strict=True):
            assert np.array_equal(x.sets, y.sets)


class TestMaskStats:
    def test_diagonal_density(self):
        rows = mask_stats([local_mask(8, 0).counts()[None]])
        assert rows[0].mean_density == pytest.approx(1 / 8)

    def test_full_density(self):
        rows = mask_stats([np.full((1, 5), 5)])
        assert rows[0].mean_density == 1.0

    def test_hand_counted_density(self):
        # query sets {0, 1}, {1, 2}, {2, 3}, {3} of 4 keys, and global
        # sets {1}, {}, {2, 3}, {}
        rows = mask_stats([np.array([[2, 2, 2, 1]])], [np.array([[1, 0, 2, 0]])])
        assert rows[0].mean_density == pytest.approx(0.4375)
        assert rows[0].min_density == pytest.approx(0.25)
        assert rows[0].max_density == pytest.approx(0.5)
        assert rows[0].global_density == pytest.approx(0.1875)

    def test_counts_of_every_policy(self, rng):
        # dense attends every key, `local` its band, and the global policies
        # the band and their global sets, as sparse_attend observes them
        T, w = 12, 2
        z = rng.normal(size=(T, 4))
        mh = random_mh(rng, 4, 2, 2)
        band = local_mask(T, w).counts()
        counts, g = observed_counts(z, mh, MaskPolicy.dense())
        assert g is None and np.array_equal(counts, np.full((2, T), T))
        counts, g = observed_counts(z, mh, MaskPolicy.local(w))
        assert g is None and np.array_equal(counts, [band, band])
        for fusion in (FUSION_OR, FUSION_PER_HEAD, FUSION_AND):
            counts, g = observed_counts(z, mh, MaskPolicy.local_global(w, fusion))
            assert np.all(band <= counts) and np.all(counts <= band + g)

    def test_observer_sees_one_pass_and_changes_nothing(self, rng, monkeypatch):
        # the observer is called once with the call's input and returns the
        # result's `observed`; attention's output keeps its bits, and counts
        # filled over blocks of two rows equal those of one block
        T, H = 9, 2
        z = rng.normal(size=(T, 4))
        mh = random_mh(rng, 4, H, 2)
        for policy in (MaskPolicy.dense(), MaskPolicy.local(1),
                       *(MaskPolicy.local_global(1, fusion)
                         for fusion in (FUSION_OR, FUSION_PER_HEAD, FUSION_AND))):
            plain = sparse_attend(z, mh, policy)
            assert plain.observed is None
            calls = []
            seen = sparse_attend(z, mh, policy, lambda *args: calls.append(args) or "kept")
            assert seen.observed == "kept" and len(calls) == 1 and calls[0][0] is z
            assert np.array_equal(seen.output, plain.output)
            one = observed_counts(z, mh, policy)
            with monkeypatch.context() as m:
                m.setattr(attention, "_BLOCK_SCORES", 2 * H * T)
                blocked = observed_counts(z, mh, policy)
            for a, b in zip(one, blocked, strict=True):
                assert (a is None and b is None) or np.array_equal(a, b)
                assert a is None or a.shape == (H, T)

    @pytest.mark.parametrize("T,w,mean,lo,hi", [
        (5, 1, 13 / 25, 2 / 5, 3 / 5),  # counts 2 3 3 3 2
        (7, 2, 29 / 49, 3 / 7, 5 / 7),  # counts 3 4 5 5 5 4 3
        (6, 4, 34 / 36, 5 / 6, 6 / 6),  # counts 5 6 6 6 6 5
        (4, 9, 1.0, 1.0, 1.0),  # the window spans every key
        (1, 0, 1.0, 1.0, 1.0),
    ])
    def test_local_density(self, T, w, mean, lo, hi):
        # each query i attends the keys j with |i - j| <= w
        row = mask_stats([local_mask(T, w).counts()[None]])[0]
        assert (row.mean_density, row.min_density, row.max_density) == \
            pytest.approx((mean, lo, hi), abs=1e-15)
        assert row.global_density == 0.0

    def test_report_format(self):
        report = mask_stats([np.array([[2, 2], [1, 1]])])
        text = format_sparsity_report(report)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].split()[:2] == ["layer", "head"]
        assert lines[1].split()[:2] == ["0", "0"]


def read_heatmap(path):
    rows = path.read_text().strip().splitlines()
    return np.array([[float(v) for v in r.split(",")] for r in rows])


class TestHeatmap:
    def test_uniform_scores(self, tmp_path, rng):
        head = AttentionHeadWeights(np.zeros((2, 2)), rng.normal(size=(2, 2)),
                                    rng.normal(size=(2, 2)))
        export_heatmap(rng.normal(size=(3, 2)), head, tmp_path / "h.csv")
        assert np.allclose(read_heatmap(tmp_path / "h.csv"), 1 / 3)

    def test_dominant_scores_near_one_hot(self, tmp_path, rng):
        # with z = I the scores are w_q @ w_k.T / 2: query i's winner is the
        # key whose row of w_k is 100 at column i
        winners = [1, 3, 0, 2]
        w_k = rng.normal(size=(4, 4))
        for i, j in enumerate(winners):
            w_k[j, i] += 100.0
        head = AttentionHeadWeights(np.eye(4), w_k, np.eye(4))
        export_heatmap(np.eye(4), head, tmp_path / "h.csv")
        vals = read_heatmap(tmp_path / "h.csv")
        for i, j in enumerate(winners):
            assert vals[i, j] > 0.999

    def test_round_trip_nine_decimals(self, tmp_path, rng, monkeypatch):
        z = rng.normal(size=(5, 3))
        head = AttentionHeadWeights(*(rng.normal(size=(3, 2)) for _ in range(3)))
        e = (z @ head.w_q) @ (z @ head.w_k).T / np.sqrt(2)
        expected = np.exp(e - e.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        # one block, and blocks of two rows
        for block_scores in (attention._BLOCK_SCORES, 10):
            monkeypatch.setattr(attention, "_BLOCK_SCORES", block_scores)
            export_heatmap(z, head, tmp_path / "h.csv")
            assert np.max(np.abs(read_heatmap(tmp_path / "h.csv") - expected)) < 5e-10

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
    AttentionMask,
    MaskPolicy,
    MultiHeadWeights,
    ScoreMatrix,
    compute_scores,
    export_heatmap,
    format_sparsity_report,
    fuse_heads,
    global_mask,
    local_mask,
    mask_stats,
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


class TestComputeScores:
    def test_orthonormal_identity(self):
        d = 4
        z = np.eye(d)
        head = AttentionHeadWeights(np.eye(d), np.eye(d), np.eye(d))
        s = compute_scores(z, head)
        assert np.allclose(s.e, np.eye(d) / np.sqrt(d))

    def test_zero_query_weights(self, rng):
        z = rng.normal(size=(5, 3))
        head = AttentionHeadWeights(np.zeros((3, 2)), rng.normal(size=(3, 2)),
                                    rng.normal(size=(3, 2)))
        s = compute_scores(z, head)
        assert np.array_equal(s.e, np.zeros((5, 5)))
        assert np.array_equal(s.row_means, np.zeros(5))

    def test_matches_naive_oracle(self, rng):
        z = rng.normal(size=(6, 4))
        head = AttentionHeadWeights(*(rng.normal(size=(4, 3)) for _ in range(3)))
        s = compute_scores(z, head)
        q = z @ head.w_q
        k = z @ head.w_k
        expected = q @ k.T / np.sqrt(3)
        assert np.allclose(s.e, expected, atol=1e-12)
        assert np.allclose(s.row_means, expected.mean(axis=1), atol=1e-12)


class TestLocalMask:
    def test_window_definition(self):
        m = local_mask(5, 1)
        assert list(m.indices(2)) == [1, 2, 3]

    def test_diagonal(self):
        m = local_mask(5, 0)
        for i in range(5):
            assert list(m.indices(i)) == [i]

    def test_clamping(self):
        m = local_mask(3, 10)
        for i in range(3):
            assert list(m.indices(i)) == [0, 1, 2]

    def test_contains_self(self, rng):
        for _ in range(20):
            T = int(rng.integers(1, 30))
            w = int(rng.integers(0, 40))  # w >= T included
            m = local_mask(T, w)
            assert all(m.rows[i, i] for i in range(T))
            idx = np.arange(T)
            assert np.array_equal(m.rows, np.abs(idx[:, None] - idx[None, :]) <= w)


class TestGlobalMask:
    def test_constant_row_empty(self):
        e = np.ones((4, 4))
        g = global_mask(ScoreMatrix(e, e.mean(axis=1)))
        assert not g.rows.any()

    def test_strictly_above_mean(self):
        e = np.array([[1.0, 2.0, 3.0, 4.0]] * 4)
        g = global_mask(ScoreMatrix(e, e.mean(axis=1)))
        assert list(g.indices(0)) == [2, 3]

    def test_uniform_density_monte_carlo(self):
        rng = np.random.default_rng(4242)
        e = rng.uniform(size=(1000, 1000))
        g = global_mask(ScoreMatrix(e, e.mean(axis=1)))
        assert abs(g.rows.mean() - 0.5) < 0.05


class TestFuseHeads:
    def test_set_algebra(self):
        def from_sets(sets, T):
            rows = np.zeros((len(sets), T), dtype=bool)
            for i, s in enumerate(sets):
                rows[i, list(s)] = True
            return AttentionMask(rows)

        g1 = from_sets([{1, 2}] * 4, 4)
        g2 = from_sets([{2, 3}] * 4, 4)
        both_and = fuse_heads([g1, g2], FUSION_AND)
        both_or = fuse_heads([g1, g2], FUSION_OR)
        assert [list(m.indices(0)) for m in both_and] == [[2], [2]]
        assert [list(m.indices(0)) for m in both_or] == [[1, 2, 3], [1, 2, 3]]

    def test_single_head_variants_identical(self, rng):
        m = AttentionMask(rng.uniform(size=(6, 6)) > 0.5)
        for fusion in (FUSION_AND, FUSION_OR, FUSION_PER_HEAD):
            out = fuse_heads([m], fusion)
            assert np.array_equal(out[0].rows, m.rows)

    def test_subset_chain(self, rng):
        for _ in range(50):
            T = int(rng.integers(2, 12))
            masks = [AttentionMask(rng.uniform(size=(T, T)) > 0.5)
                     for _ in range(4)]
            anded = fuse_heads(masks, FUSION_AND)
            ored = fuse_heads(masks, FUSION_OR)
            for h in range(4):
                assert np.all(anded[h].rows <= masks[h].rows)
                assert np.all(masks[h].rows <= ored[h].rows)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            fuse_heads([], FUSION_AND)


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
        z = rng.normal(size=(6, 4))
        mh = random_mh(rng, 4, 2, 2)
        policy = MaskPolicy(variant=variant, w=1, fusion=fusion)
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
            policy = dataclasses.replace(policy, w=w)
            z = rng.normal(size=(T, 8))
            mh = random_mh(rng, 8, 2, 4)
            out = sparse_attend(z, mh, policy).output
            if policy.variant == "local":
                # `local` forms only its band's scores, whose last bits can
                # differ from the full gemm's
                assert np.array_equal(
                    out, rowwise_sparse_attend(z, mh, policy, band_scores=True)), (T, w)
                full = rowwise_sparse_attend(z, mh, policy)
                assert np.max(np.abs(out - full)) <= 1e-12, (T, w)
            else:
                assert np.array_equal(out, rowwise_sparse_attend(z, mh, policy)), (T, w)

    @pytest.mark.parametrize("fusion", [FUSION_OR, FUSION_PER_HEAD, FUSION_AND])
    def test_key_sets_planned_once_per_layer(self, rng, monkeypatch, fusion):
        # a mask every head shares is planned once, so its key sets are
        # gathered once per batch, not once per head; sgm2 plans each head
        T, H = 60, 4
        z = rng.normal(size=(T, 8))
        mh = random_mh(rng, 8, H, 2)
        policy = MaskPolicy.local_global(2, fusion)
        calls = []
        keys = AttentionMask.keys

        def spy(mask, rows, n):
            calls.append((id(mask), n))
            return keys(mask, rows, n)

        monkeypatch.setattr(AttentionMask, "keys", spy)
        masks = sparse_attend(z, mh, policy).masks
        # T * max count is within _GATHER_KEYS, so each count is one batch
        assert T * T <= attention._GATHER_KEYS
        per_head = [sorted({int(n) for n in m.counts()} - {T}) for m in masks]
        if fusion == FUSION_PER_HEAD:
            want = [(id(m), n) for m, ns in zip(masks, per_head) for n in ns]
        else:
            assert all(m is masks[0] for m in masks)
            want = [(id(masks[0]), n) for n in per_head[0]]
        assert sorted(calls) == sorted(want)
        assert len(calls) >= len(per_head[0]) > 1

    def test_mask_rows_nonempty_and_contain_self(self, rng):
        z = rng.normal(size=(9, 4))
        mh = random_mh(rng, 4, 2, 2)
        for policy in (MaskPolicy.local(0), MaskPolicy.local_global(0)):
            res = sparse_attend(z, mh, policy)
            for mask in res.masks:
                for i in range(9):
                    assert mask.rows[i, i]

    def test_monotone_attended_set_sizes(self, rng):
        z = rng.normal(size=(10, 4))
        mh = random_mh(rng, 4, 4, 1)
        sizes = {}
        for fusion in (FUSION_AND, FUSION_PER_HEAD, FUSION_OR):
            res = sparse_attend(z, mh, MaskPolicy.local_global(1, fusion))
            sizes[fusion] = [m.rows.sum(axis=1) for m in res.masks]
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
        mh = random_mh(rng, 32, 4, 8)
        peaks = {}
        for T in (4000, 8000):  # the shorter first, so a quadratic path fails small
            z = rng.normal(size=(T, 32))
            tracemalloc.start()
            try:
                sparse_attend(z, mh, MaskPolicy.local(40))
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peaks[T] < T * T, peaks
        assert peaks[8000] < 2.5 * peaks[4000], peaks

    def test_deterministic(self, rng):
        z = rng.normal(size=(8, 6))
        mh = random_mh(rng, 6, 3, 2)
        policy = MaskPolicy.local_global(2, FUSION_PER_HEAD)
        r1 = sparse_attend(z, mh, policy)
        r2 = sparse_attend(z, mh, policy)
        assert np.array_equal(r1.output, r2.output)
        for m1, m2 in zip(r1.masks, r2.masks):
            assert np.array_equal(m1.rows, m2.rows)


class TestMaskStats:
    def test_diagonal_density(self):
        m = local_mask(8, 0)
        report = mask_stats([[m]])
        assert report.rows[0].mean_density == pytest.approx(1 / 8)

    def test_full_density(self):
        report = mask_stats([[AttentionMask.full(5)]])
        assert report.rows[0].mean_density == 1.0

    def test_hand_counted_density(self):
        rows = np.zeros((4, 4), dtype=bool)
        for i, s in enumerate([{0, 1}, {1, 2}, {2, 3}, {3}]):
            rows[i, list(s)] = True
        report = mask_stats([[AttentionMask(rows)]])
        assert report.rows[0].mean_density == pytest.approx(0.4375)
        assert report.rows[0].min_density == pytest.approx(0.25)
        assert report.rows[0].max_density == pytest.approx(0.5)

    @pytest.mark.parametrize("T,w,mean,lo,hi", [
        (5, 1, 13 / 25, 2 / 5, 3 / 5),  # counts 2 3 3 3 2
        (7, 2, 29 / 49, 3 / 7, 5 / 7),  # counts 3 4 5 5 5 4 3
        (6, 4, 34 / 36, 5 / 6, 6 / 6),  # counts 5 6 6 6 6 5
        (4, 9, 1.0, 1.0, 1.0),  # the window spans every key
        (1, 0, 1.0, 1.0, 1.0),
    ])
    def test_local_density(self, T, w, mean, lo, hi):
        # each query i attends the keys j with |i - j| <= w
        row = mask_stats([[local_mask(T, w)]]).rows[0]
        assert (row.mean_density, row.min_density, row.max_density) == \
            pytest.approx((mean, lo, hi), abs=1e-15)
        assert row.global_density == 0.0

    def test_report_format(self):
        report = mask_stats([[AttentionMask.full(2), local_mask(2, 0)]])
        text = format_sparsity_report(report)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].split()[:2] == ["layer", "head"]
        assert lines[1].split()[:2] == ["0", "0"]


class TestHeatmap:
    def test_uniform_scores(self, tmp_path):
        e = np.zeros((3, 3))
        export_heatmap(ScoreMatrix(e, e.mean(axis=1)), tmp_path / "h.csv")
        rows = (tmp_path / "h.csv").read_text().strip().splitlines()
        vals = [[float(v) for v in r.split(",")] for r in rows]
        assert np.allclose(vals, 1 / 3)

    def test_dominant_scores_near_one_hot(self, tmp_path, rng):
        e = rng.normal(size=(4, 4))
        winners = [1, 3, 0, 2]
        for i, j in enumerate(winners):
            e[i, j] += 50.0
        export_heatmap(ScoreMatrix(e, e.mean(axis=1)), tmp_path / "h.csv")
        rows = (tmp_path / "h.csv").read_text().strip().splitlines()
        vals = np.array([[float(v) for v in r.split(",")] for r in rows])
        for i, j in enumerate(winners):
            assert vals[i, j] > 0.999

    def test_round_trip_nine_decimals(self, tmp_path, rng):
        e = rng.normal(size=(5, 5))
        s = ScoreMatrix(e, e.mean(axis=1))
        export_heatmap(s, tmp_path / "h.csv")
        rows = (tmp_path / "h.csv").read_text().strip().splitlines()
        vals = np.array([[float(v) for v in r.split(",")] for r in rows])
        expected = np.exp(e - e.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.max(np.abs(vals - expected)) < 5e-10

"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with plain pytest; the PASS/FAIL lines are written straight to the
terminal so they survive output capture.
"""

import itertools
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from conftest import tiny_config
from sparse_rnnt.attention import (
    AttentionHeadWeights,
    MaskPolicy,
    MultiHeadWeights,
    fuse_heads,
    global_mask,
    local_mask,
    sparse_attend,
)
from sparse_rnnt.cli import main
from sparse_rnnt.encoder import EncoderConfig, FeatureMatrix, encode, receptive_field
from sparse_rnnt.frontend import Waveform, write_wav
from sparse_rnnt.metrics import edit_alignment, sweep_report
from sparse_rnnt.model_io import ModelConfig, load_model, random_model, save_model
from sparse_rnnt.segmentation import DOI_OVERLAP, TimedToken, doi_merge, doi_split
from sparse_rnnt.transducer import (
    SrsParams,
    beam_search_step,
    decode_with_srs,
    greedy_decode,
    reset_prediction_states,
    start_hypothesis,
)
from tests_oracles import oracle_sparse_attend, oracle_srs_firings, scripted_srs_firings


@contextmanager
def criterion(label):
    """Record and print a one-line verdict for a release criterion."""
    try:
        yield
    except BaseException:
        _verdict(f"[acceptance] {label}: FAIL")
        raise
    _verdict(f"[acceptance] {label}: PASS")


def _verdict(line):
    print(line, file=sys.__stdout__, flush=True)
    conftest.acceptance_verdicts.append(line)


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


def test_mask_algebra_subset_and_monotonicity():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    with criterion("01 mask set algebra"):
        for _ in range(1000):
            T = int(rng.integers(2, 65))
            H = int(rng.choice([1, 2, 4, 8]))
            per_head_globals = global_mask(rng.normal(size=(H, T, T)))
            fused_and = fuse_heads(per_head_globals, "sgm3_and")[0]
            fused_or = fuse_heads(per_head_globals, "sgm1_or")[0]
            for g in per_head_globals:
                # intersection <= each head <= union, elementwise
                assert not np.any(fused_and & ~g)
                assert not np.any(g & ~fused_or)
            w = int(rng.integers(0, 4))
            band = local_mask(T, w).block(0, T)
            sizes = {}
            for name in ("sgm1_or", "sgm2_per_head", "sgm3_and"):
                masks = band | fuse_heads(per_head_globals, name)
                sizes[name] = np.broadcast_to(masks.sum(axis=2), (H, T))
            assert np.all(sizes["sgm3_and"] <= sizes["sgm2_per_head"])
            assert np.all(sizes["sgm2_per_head"] <= sizes["sgm1_or"])
        assert time.monotonic() - started < 10.0


def test_full_mask_policies_match_dense_attention():
    rng = np.random.default_rng(202)
    with criterion("02 dense equivalence"):
        for _ in range(100):
            T = int(rng.integers(2, 20))
            H = int(rng.choice([1, 2, 4]))
            d = int(rng.integers(2, 5))
            D = H * d
            z = rng.normal(size=(T, D))
            mh = random_mh(rng, D, H, d)
            outs = []
            for head in mh.heads:
                e = (z @ head.w_q) @ (z @ head.w_k).T / np.sqrt(d)
                p = np.exp(e - e.max(axis=1, keepdims=True))
                p = p / p.sum(axis=1, keepdims=True)
                outs.append(p @ (z @ head.w_v))
            dense = np.concatenate(outs, axis=1) @ mh.w_p
            for policy in (MaskPolicy.dense(), MaskPolicy.local(T)):
                got = sparse_attend(z, mh, policy).output
                assert np.max(np.abs(got - dense)) < 1e-9


def test_attention_matches_independent_oracle():
    rng = np.random.default_rng(303)
    with criterion("03 attention oracle"):
        for _ in range(50):
            T = int(rng.integers(2, 17))
            H = int(rng.integers(1, 5))
            d = int(rng.integers(2, 4))
            D = H * d
            z = rng.normal(size=(T, D))
            mh = random_mh(rng, D, H, d)
            w = int(rng.integers(0, 3))
            policies = [MaskPolicy.dense(), MaskPolicy.local(w)]
            policies += [MaskPolicy.local_global(w, f)
                         for f in ("sgm1_or", "sgm2_per_head", "sgm3_and")]
            for policy in policies:
                want = oracle_sparse_attend(z, mh, policy)
                got = sparse_attend(z, mh, policy).output
                assert np.max(np.abs(got - want)) < 1e-9


def test_local_policy_receptive_field_is_exact():
    rng = np.random.default_rng(404)
    with criterion("04 receptive field bound"):
        for trial in range(20):
            layers = int(rng.integers(1, 4))
            kernel = int(rng.choice([3, 5]))
            w = int(rng.integers(0, 3))
            cfg = tiny_config(num_layers=layers, conv_kernel=kernel)
            model = random_model(cfg, trial)
            policy = MaskPolicy.local(w)
            T = int(rng.integers(40, 80))
            frames = rng.normal(size=(T, 6))
            f = FeatureMatrix(frames, 0.01, 0.025)
            base, _ = encode(f, model, policy)
            T_out = base.h.shape[0]
            i = int(rng.integers(0, T_out))
            lo, hi = receptive_field(cfg.encoder, policy, i, T_out, T)
            outside = [p for p in (lo - 1, hi + 1, 0, T - 1)
                       if 0 <= p < T and not lo <= p <= hi]
            for p in outside:
                f2 = FeatureMatrix(frames.copy(), 0.01, 0.025)
                f2.frames[p] += rng.normal(size=6)
                pert, _ = encode(f2, model, policy)
                assert np.array_equal(base.h[i], pert.h[i])


def test_silence_reset_state_machine_exhaustive(tiny_model, monkeypatch):
    started = time.monotonic()
    with criterion("05 silence-reset state machine"):
        # the decode loop's own silence count, on every pattern of all-blank
        # and emitting frames: it resets on exactly the frames where the
        # running count of all-blank frames exceeds t_sil
        firings = scripted_srs_firings(monkeypatch, tiny_model)
        for t_sil in (1, 2, 3):
            for length in range(1, 11):
                for seq in itertools.product([True, False], repeat=length):
                    assert firings(t_sil, seq) == oracle_srs_firings(t_sil, seq)
        # resets must not disturb token histories or scores
        rng = np.random.default_rng(5)
        hyps = [start_hypothesis(tiny_model)]
        for i in range(4):
            hyps = beam_search_step(rng.normal(size=8), hyps, 3, tiny_model,
                                    frame_idx=i)
        before = [(h.tokens, h.log_prob) for h in hyps]
        after = reset_prediction_states(hyps, tiny_model)
        assert [(h.tokens, h.log_prob) for h in after] == before
        assert time.monotonic() - started < 5.0


def test_unit_beam_reduces_to_greedy():
    rng = np.random.default_rng(606)
    with criterion("06 beam-1 equals greedy"):
        from sparse_rnnt.encoder import EncoderOutputs

        for seed in range(20):
            model = random_model(tiny_config(), seed)
            out = EncoderOutputs(rng.normal(size=(10, 8)), 0.04)
            g = greedy_decode(out, model)
            b = decode_with_srs(out, model, beam=1, srs=None)
            assert b.token_ids == g.token_ids
            assert b.frames == g.frames
            assert b.log_prob == g.log_prob


def test_window_cores_tile_and_merge_losslessly():
    rng = np.random.default_rng(707)
    with criterion("07 overlapped-window partition and merge"):
        durations = rng.uniform(0.5, 200.0, size=100)
        for duration in durations:
            duration = float(duration)
            for doi_length in (8, 18, 20, 28, 38, 48, 58):
                segs = doi_split(duration, float(doi_length))
                assert segs[0].core_start == 0.0
                assert segs[-1].core_end == duration
                for a, b in zip(segs, segs[1:]):
                    assert abs(a.core_end - b.core_start) < 1e-9
                covered = sum(s.core_end - s.core_start for s in segs)
                assert abs(covered - duration) < 1e-6
                # identity decoder: every segment reports all tokens it saw
                times = np.arange(0.25, duration, 0.9)
                results = [
                    (seg, [TimedToken(int(i), float(t))
                           for i, t in enumerate(times)
                           if seg.start <= t < seg.end])
                    for seg in segs
                ]
                merged = doi_merge(results)
                assert [m.time for m in merged] == list(times)


def brute_force_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[-1] + 1))
        prev = cur
    return prev[-1]


def test_edit_distance_oracle_and_report(tmp_path):
    rng = np.random.default_rng(808)
    with criterion("08 edit-distance oracle"):
        alphabet = "abc"
        strings = [""]
        for n in range(1, 5):
            strings += ["".join(p) for p in itertools.product(alphabet, repeat=n)]
        for ref in strings:
            for hyp in strings:
                assert edit_alignment(ref, hyp).total_errors == \
                    brute_force_distance(ref, hyp)
        letters = list("abc")
        for _ in range(10_000):
            ref = "".join(rng.choice(letters, size=rng.integers(0, 12)))
            hyp = "".join(rng.choice(letters, size=rng.integers(0, 12)))
            assert edit_alignment(ref, hyp).total_errors == \
                brute_force_distance(ref, hyp)
        out = tmp_path / "sweep.csv"
        sweep_report(
            {("dense", "doi", 20.0): edit_alignment("abc", "abd"),
             ("local", "epd", None): edit_alignment("ab", "ab")},
            out,
        )
        header = out.read_text().splitlines()[0]
        assert header == "policy,segmentation,doi_length,cer,del,ins,sub"


def test_above_mean_mask_density_near_half():
    with criterion("09 global-mask density"):
        rng = np.random.default_rng(909)
        T = 1000
        e = rng.uniform(size=(T, T))
        mask = global_mask(e)
        density = mask.sum(axis=1).mean() / T
        assert abs(density - 0.5) < 0.05


def test_end_to_end_decode_and_model_io_deterministic(tmp_path):
    with criterion("10 end-to-end determinism"):
        model_path = tmp_path / "m.model"
        assert main(["gen-model", "--seed", "11", "--out", str(model_path)]) == 0
        # model file round-trips byte-identically
        resaved = tmp_path / "m2.model"
        save_model(load_model(model_path), resaved)
        assert model_path.read_bytes() == resaved.read_bytes()
        sr = 16000
        t = np.arange(2 * sr) / sr
        sig = 0.2 * np.sin(2 * np.pi * 250 * t)
        sig += 0.02 * np.random.default_rng(4).normal(size=sig.shape)
        wav = tmp_path / "utt.wav"
        write_wav(wav, Waveform(sig, sr))
        outs = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for out in outs:
            code = main(["decode", "--model", str(model_path), str(wav),
                         "--mask", "local+sgm3", "--w", "10",
                         "--out", str(out)])
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_shipped_defaults():
    with criterion("11 shipped default parameters"):
        assert MaskPolicy().w == 40
        assert MaskPolicy.local().w == 40
        assert SrsParams().t_sil == 15
        assert DOI_OVERLAP == 2.0
        enc = EncoderConfig()
        assert enc.subsample_stride == 2
        assert enc.subsample_kernel == 3
        cfg = ModelConfig.desk_scale()
        assert cfg.encoder.subsample_stride == 2
        assert cfg.encoder.subsample_kernel == 3

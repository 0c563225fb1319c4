import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import tiny_config
from sparse_rnnt import encoder as encoder_module
from sparse_rnnt import attention
from sparse_rnnt.attention import MaskPolicy, score_blocks, sparse_attend
from sparse_rnnt.encoder import (
    EncoderConfig,
    SubsampleWeights,
    conformer_block_forward,
    conv_subsample,
    encode,
    receptive_field,
    subsampled_length,
    _conv1d_valid,
)
from sparse_rnnt.errors import EmptyInputError, ParameterError
from sparse_rnnt.frontend import FeatureMatrix, Waveform, frame_lengths, log_mel_spectrogram
from sparse_rnnt.model_io import ModelConfig, random_model
from sparse_rnnt.numerics import layer_norm, sigmoid
from sparse_rnnt.pipeline import (
    SegmentationSpec,
    parse_policy,
    prepare_input,
)
from tests_oracles import rowwise_sets, rowwise_sparse_attend

POLICIES = ["dense", "local", "local+sgm1", "local+sgm2", "local+sgm3"]


def feats(rng, T, F):
    return FeatureMatrix(rng.normal(size=(T, F)), 0.01, 0.025)


def reachable_arrays(obj, seen=None) -> list:
    """Every distinct ndarray reachable through dataclasses, lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        return []
    return [a for child in children for a in reachable_arrays(child, seen)]


class TestConvSubsample:
    def test_length_arithmetic(self):
        cfg = EncoderConfig(num_layers=1, model_dim=4, num_heads=1, head_dim=4,
                            ff_dim=4, conv_kernel=3, subsample_channels=2)
        assert subsampled_length(100, cfg) == 24  # (100-3)//2+1=49, (49-3)//2+1=24

    def test_length_arithmetic_random(self, rng):
        for _ in range(50):
            T = int(rng.integers(3, 200))
            cfg = EncoderConfig(num_layers=1, model_dim=4, num_heads=1,
                                head_dim=4, ff_dim=4, conv_kernel=3,
                                subsample_channels=2)
            def stage(t):
                return (t - 3) // 2 + 1 if t >= 3 else 0
            expected = stage(stage(T)) if stage(T) >= 3 else 0
            assert subsampled_length(T, cfg) == max(expected, 0)

    def test_shortest_kept_input_matches_search(self):
        # prepare_input keeps a piece iff its frames encode to at least one
        # output frame: t frames, the fewest found by search, take
        # win + (t - 1) * hop samples, and one sample fewer is dropped
        win, hop = frame_lengths(16000)
        x = Waveform(np.random.default_rng(0).normal(size=win + 400 * hop), 16000)
        for stride in range(1, 51):
            for kernel in range(1, 8):
                cfg = EncoderConfig(num_layers=1, model_dim=4, num_heads=1,
                                    head_dim=4, ff_dim=4, conv_kernel=3,
                                    subsample_channels=2, subsample_stride=stride,
                                    subsample_kernel=kernel)
                model = SimpleNamespace(config=SimpleNamespace(encoder=cfg, feat_dim=4))
                t = 1
                while subsampled_length(t, cfg) < 1:
                    t += 1
                n = win + (t - 1) * hop
                ((_, f, _),) = prepare_input(model, Waveform(x.samples[:n], 16000),
                                             SegmentationSpec())
                assert f.num_frames == t
                ((_, none, _),) = prepare_input(
                    model, Waveform(x.samples[:n - 1], 16000), SegmentationSpec())
                assert none is None

    def test_shortest_kept_input_encodes_to_one_frame(self, rng):
        # the shortest waveform prepare_input keeps encodes to exactly one
        # frame, and one sample less is skipped: it could not be encoded
        for model in (random_model(tiny_config(), 0),
                      random_model(ModelConfig.desk_scale(), 7)):
            F = model.config.feat_dim
            enc = model.config.encoder
            k, s = enc.subsample_kernel, enc.subsample_stride
            for rate in (51, 100, 8000, 16000, 22050, 44100, 48000):
                win, hop = frame_lengths(rate)
                # the second stage needs k frames, the first k + (k - 1) * s
                n = win + (k + (k - 1) * s - 1) * hop
                w = Waveform(rng.normal(size=n), rate)
                ((_, f, _),) = prepare_input(model, w, SegmentationSpec())
                assert encode(f, model, MaskPolicy.local())[0].length == 1
                short = Waveform(w.samples[:-1], rate)
                ((_, none, _),) = prepare_input(model, short, SegmentationSpec())
                assert none is None
                with pytest.raises(EmptyInputError):
                    encode(log_mel_spectrogram(short, F), model, MaskPolicy.local())

    def test_zero_weights_zero_output(self, rng):
        cfg = tiny_config().encoder
        F = 6
        w = SubsampleWeights(
            np.zeros((3, F, 4)), np.zeros(4), np.zeros((3, 4, 4)), np.zeros(4),
            np.zeros((4, cfg.model_dim)), np.zeros(cfg.model_dim),
        )
        out = conv_subsample(feats(rng, 40, F), w, cfg)
        assert np.array_equal(out, np.zeros_like(out))

    def test_delta_kernel_passthrough(self, rng):
        # stride-1 stage with a centered delta kernel reproduces the input
        x = rng.normal(size=(10, 1))
        w = np.zeros((3, 1, 1))
        w[1, 0, 0] = 1.0
        out = _conv1d_valid(x, w, np.zeros(1), stride=1)
        assert np.allclose(out, x[1:-1])

    def test_too_short_input(self, rng):
        cfg = tiny_config().encoder
        w = SubsampleWeights(
            np.zeros((3, 6, 4)), np.zeros(4), np.zeros((3, 4, 4)), np.zeros(4),
            np.zeros((4, cfg.model_dim)), np.zeros(cfg.model_dim),
        )
        with pytest.raises(EmptyInputError):
            conv_subsample(feats(rng, 2, 6), w, cfg)


class TestConformerBlock:
    def _block(self, seed=3):
        model = random_model(tiny_config(), seed)
        return model.blocks[0], model

    def test_zero_sublayer_weights_pass_through(self, rng):
        block, _ = self._block()
        # zero every projection so each sublayer contributes nothing
        for ff in (block.ffn1, block.ffn2):
            ff.w1[:] = 0
            ff.b1[:] = 0
            ff.w2[:] = 0
            ff.b2[:] = 0
        for head in block.mh.heads:
            head.w_v[:] = 0
        block.mh.w_p[:] = 0
        block.conv.pw2[:] = 0
        block.conv.pb2[:] = 0
        x = rng.normal(size=(5, 8))
        out, _ = conformer_block_forward(x, block, MaskPolicy.dense())
        expected = layer_norm(x, block.final_norm_gain, block.final_norm_bias)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_dense_vs_full_local(self, rng):
        block, _ = self._block()
        x = rng.normal(size=(6, 8))
        dense, _ = conformer_block_forward(x, block, MaskPolicy.dense())
        loc, _ = conformer_block_forward(x, block, MaskPolicy.local(10))
        assert np.max(np.abs(dense - loc)) < 1e-9

    def test_straight_line_oracle(self, rng):
        from tests_oracles import oracle_conformer_block

        block, _ = self._block(seed=9)
        x = rng.normal(size=(5, 8))
        policy = MaskPolicy.local_global(1)
        out, _ = conformer_block_forward(x, block, policy)
        assert np.max(np.abs(out - oracle_conformer_block(x, block, policy))) < 1e-9

    def test_diagnostics_shapes(self, rng):
        block, _ = self._block()
        x = rng.normal(size=(6, 8))
        policy = MaskPolicy.local_global(2)
        _, (z, counts, global_counts) = conformer_block_forward(
            x, block, policy, lambda *seen: seen)
        assert z.shape == (6, 8)
        assert counts.shape == global_counts.shape == (2, 6)
        (diag,) = score_blocks(z, block.mh.heads, policy)
        assert diag.e.shape == (2, 6, 6)
        # sgm3's fused sets, one slice that both heads share
        assert diag.sets.shape == diag.g.shape == (1, 6, 6)


class TestEncode:
    def test_dense_equals_huge_local_window(self, rng):
        model = random_model(tiny_config(), 11)
        f = feats(rng, 50, 6)
        dense, _ = encode(f, model, MaskPolicy.dense())
        loc, _ = encode(f, model, MaskPolicy.local(1000))
        assert np.max(np.abs(dense.h - loc.h)) < 1e-9

    def test_deterministic(self, rng):
        model = random_model(tiny_config(), 11)
        f = feats(rng, 40, 6)
        a, _ = encode(f, model, MaskPolicy.local_global(2))
        b, _ = encode(f, model, MaskPolicy.local_global(2))
        assert np.array_equal(a.h, b.h)

    def test_frame_rate(self, rng):
        model = random_model(tiny_config(), 11)
        f = feats(rng, 40, 6)
        out, _ = encode(f, model, MaskPolicy.dense())
        assert out.frame_rate == pytest.approx(0.04)

    def test_receptive_field_bound_bit_exact(self, rng):
        cfg = tiny_config(num_layers=2, conv_kernel=3)
        model = random_model(cfg, 5)
        policy = MaskPolicy.local(1)
        T = 60
        f = feats(rng, T, 6)
        base, _ = encode(f, model, policy)
        T_out = base.h.shape[0]
        i = T_out // 2
        lo, hi = receptive_field(cfg.encoder, policy, i, T_out, T)
        assert 0 <= lo <= hi < T
        for p in [lo - 1, hi + 1, 0, T - 1]:
            if 0 <= p < T and not lo <= p <= hi:
                f2 = FeatureMatrix(f.frames.copy(), f.frame_shift, f.frame_length)
                f2.frames[p] += rng.normal(size=6)
                pert, _ = encode(f2, model, policy)
                assert np.array_equal(base.h[i], pert.h[i])

    def test_perturbation_inside_field_changes_output(self, rng):
        cfg = tiny_config(num_layers=2, conv_kernel=3)
        model = random_model(cfg, 5)
        policy = MaskPolicy.local(1)
        f = feats(rng, 60, 6)
        base, _ = encode(f, model, policy)
        i = base.h.shape[0] // 2
        f2 = FeatureMatrix(f.frames.copy(), f.frame_shift, f.frame_length)
        f2.frames[i * 4] += 10.0
        pert, _ = encode(f2, model, policy)
        assert not np.array_equal(base.h[i], pert.h[i])

    @pytest.mark.parametrize("spec", POLICIES)
    def test_keeps_nothing_quadratic(self, rng, monkeypatch, spec):
        # no policy may create a T'xT' array: at T' ~ 2000 one T'xT' bool
        # outweighs all that a band attention allocates, and all that a
        # global one allocates besides its block of scores. _BLOCK_SCORES
        # bounds that block (test_attention checks it at its real size),
        # so with blocks of 2^16 scores each call's traced peak must stay
        # below one T'xT' bool
        model = random_model(tiny_config(), 11)
        monkeypatch.setattr(attention, "_BLOCK_SCORES", 1 << 16)
        peaks = []

        def spy(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            res = sparse_attend(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return res

        monkeypatch.setattr(encoder_module, "sparse_attend", spy)
        tracemalloc.start()
        try:
            # with the observer of `decode --stats`, which keeps each layer's counts
            out, counts = encode(feats(rng, 8000, 6), model, parse_policy(spec, 2),
                                 lambda z, *counts: counts)
        finally:
            tracemalloc.stop()
        T = out.length
        assert T * T != T * model.config.encoder.model_dim
        arrays = reachable_arrays((out, counts))
        assert arrays and all(a.size != T * T for a in arrays)
        assert len(peaks) == len(model.blocks)
        assert all(peak < T * T for peak in peaks), (T, peaks)

    @pytest.mark.parametrize("spec", POLICIES)
    def test_recomputed_masks_are_the_masks_attention_used(
            self, rng, monkeypatch, spec):
        # `decode --stats` reports the counts sparse_attend observes in its
        # own pass. The rowwise oracle derives each layer's sets again from
        # the layer's input: it gives attention's output bit for bit, and
        # its set sizes are the observed counts
        used = []

        def spy(*args):
            res = sparse_attend(*args)
            used.append(res.output)
            return res

        monkeypatch.setattr(encoder_module, "sparse_attend", spy)
        model = random_model(tiny_config(), 11)
        policy = parse_policy(spec, 2)
        _, observed = encode(feats(rng, 60, 6), model, policy, lambda *seen: seen)
        assert len(used) == len(observed) == len(model.blocks)
        for output, (z, counts, global_counts), block in zip(used, observed, model.blocks):
            assert np.array_equal(
                output, rowwise_sparse_attend(z, block.mh, policy, library_scores=True))
            _, attended, global_ = rowwise_sets(z, block.mh, policy, library_scores=True)
            assert np.array_equal(counts, [[len(s) for s in head] for head in attended])
            assert (global_counts is None) == (global_ is None)
            if global_ is not None:
                assert np.array_equal(global_counts,
                                      [[len(s) for s in head] for head in global_])

    def test_receptive_field_requires_local(self):
        cfg = tiny_config().encoder
        with pytest.raises(ParameterError):
            receptive_field(cfg, MaskPolicy.dense(), 0, 10, 40)


class TestConfig:
    def test_model_dim_consistency_enforced(self):
        with pytest.raises(ParameterError):
            EncoderConfig(model_dim=10, num_heads=4, head_dim=2)

    def test_even_conv_kernel_rejected(self):
        with pytest.raises(ParameterError):
            EncoderConfig(num_layers=1, model_dim=8, num_heads=2, head_dim=4,
                          conv_kernel=4)

    @pytest.mark.parametrize("field,value", [
        ("subsample_stride", 0), ("subsample_kernel", -1), ("num_layers", 0),
        ("conv_kernel", -3), ("ff_dim", "4"), ("num_layers", 2.0),
        ("use_sinusoidal_pe", "no"), ("use_sinusoidal_pe", 1),
    ])
    def test_non_positive_or_non_int_size_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            EncoderConfig(**{field: value})

    def test_paper_defaults(self):
        cfg = EncoderConfig()
        assert cfg.num_layers == 12
        assert cfg.subsample_stride == 2
        assert cfg.subsample_kernel == 3

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import tiny_config
from sparse_rnnt import transducer
from sparse_rnnt.encoder import EncoderOutputs
from sparse_rnnt.errors import ParameterError, VocabularyError
from sparse_rnnt.model_io import random_model
from sparse_rnnt.numerics import RecurrentState
from sparse_rnnt.transducer import (
    Hypothesis,
    SrsCounter,
    SrsParams,
    beam_search_step,
    check_blank_token,
    decode_with_srs,
    greedy_decode,
    joint,
    predict_step,
    reset_prediction_states,
    start_hypothesis,
)
from tests_oracles import eager_beam_search_step


def enc_outputs(rng, model, T):
    dim = model.config.encoder.model_dim
    return EncoderOutputs(rng.normal(size=(T, dim)), 0.04)


class TestPredictStep:
    def test_zero_weights_zero_output(self):
        model = random_model(tiny_config(), 0)
        model.prediction.lstm.w_x[:] = 0
        model.prediction.lstm.w_h[:] = 0
        model.prediction.lstm.bias[:] = 0
        g, _ = predict_step(None, RecurrentState.zeros(4), model)
        assert np.array_equal(g, np.zeros(4))

    def test_deterministic(self, tiny_model):
        s = RecurrentState.zeros(4)
        g1, s1 = predict_step(2, s, tiny_model)
        g2, s2 = predict_step(2, s, tiny_model)
        assert np.array_equal(g1, g2)
        assert np.array_equal(s1.cell, s2.cell)

    def test_invalid_token(self, tiny_model):
        with pytest.raises(VocabularyError):
            predict_step(99, RecurrentState.zeros(4), tiny_model)

    def test_start_symbol_uses_zero_embedding(self, tiny_model):
        g1, _ = predict_step(None, RecurrentState.zeros(4), tiny_model)
        # feeding an explicit zero embedding through the cell must agree
        from sparse_rnnt.numerics import lstm_cell_step

        g2, _ = lstm_cell_step(np.zeros(4), RecurrentState.zeros(4),
                               tiny_model.prediction.lstm)
        assert np.array_equal(g1, g2)


class TestJoint:
    def test_equal_logits_uniform(self, tiny_model, rng):
        tiny_model.joint.out[:] = 0
        tiny_model.joint.out_bias[:] = 0.7
        lp = joint(rng.normal(size=8), rng.normal(size=4), tiny_model)
        V = len(tiny_model.config.vocab)
        assert np.allclose(lp, -np.log(V))

    def test_log_probs_normalize(self, tiny_model, rng):
        lp = joint(rng.normal(size=8), rng.normal(size=4), tiny_model)
        assert abs(np.exp(lp).sum() - 1.0) < 1e-9

    def test_two_token_hand_case(self):
        cfg = tiny_config(vocab_size=2)
        model = random_model(cfg, 0)
        model.joint.out[:] = 0
        model.joint.out_bias[:] = [0.0, math.log(3.0)]
        lp = joint(np.zeros(8), np.zeros(4), model)
        assert np.allclose(lp, [-math.log(4.0), math.log(3.0 / 4.0)])


class TestCheckBlankToken:
    def test_all_blank(self, tiny_model):
        h = start_hypothesis(tiny_model)
        assert check_blank_token([h, h]) is True

    def test_one_non_blank(self, tiny_model):
        from dataclasses import replace

        h = start_hypothesis(tiny_model)
        hyps = [h] * 3 + [replace(h, last_was_blank=False)]
        assert check_blank_token(hyps) is False

    def test_single_non_blank(self, tiny_model):
        from dataclasses import replace

        h = replace(start_hypothesis(tiny_model), last_was_blank=False)
        assert check_blank_token([h]) is False

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            check_blank_token([])


class TestSrsCounter:
    def test_spec_trace(self):
        # all-blank at four consecutive steps with threshold 2:
        # counts 1, 2, then the third blank fires and clears
        c = SrsCounter(2)
        assert c.update(True) is False and c.count == 1
        assert c.update(True) is False and c.count == 2
        assert c.update(True) is True and c.count == 0
        assert c.update(True) is False and c.count == 1

    def test_non_blank_clears(self):
        c = SrsCounter(3)
        c.update(True)
        c.update(True)
        assert c.update(False) is False
        assert c.count == 0

    def test_exhaustive_state_machine(self):
        # oracle: fires iff the running consecutive-blank count exceeds t_sil
        for t_sil in (1, 2, 3):
            for length in range(1, 11):
                for seq in itertools.product([True, False], repeat=length):
                    c = SrsCounter(t_sil)
                    run = 0
                    for blank in seq:
                        fired = c.update(blank)
                        if blank:
                            run += 1
                        else:
                            run = 0
                        expect_fire = run > t_sil
                        if expect_fire:
                            run = 0
                        assert fired == expect_fire
                        assert c.count == run


class TestBeamSearch:
    def test_blank_dominant_model_never_grows(self):
        model = random_model(tiny_config(), 1)
        model.joint.out[:] = 0
        model.joint.out_bias[:] = -10.0
        model.joint.out_bias[model.config.vocab.blank_id] = 10.0
        h = start_hypothesis(model)
        state_before = h.pred_state.hidden.copy()
        hyps = [h]
        for i in range(5):
            hyps = beam_search_step(np.zeros(8), hyps, 1, model, frame_idx=i)
        assert len(hyps) == 1
        assert hyps[0].tokens == ()
        assert np.array_equal(hyps[0].pred_state.hidden, state_before)
        assert hyps[0].last_was_blank

    def test_beam_one_equals_greedy(self, rng):
        for seed in range(20):
            model = random_model(tiny_config(), seed)
            out = enc_outputs(rng, model, 10)
            g = greedy_decode(out, model)
            b = decode_with_srs(out, model, beam=1,
                                srs=SrsParams(t_sil=1, enabled=False))
            assert b.token_ids == g.token_ids
            assert b.frames == g.frames
            assert b.log_prob == pytest.approx(g.log_prob, abs=1e-12)

    def test_prefix_merge_log_sum_exp(self, rng):
        # brute-force alignment lattice over 2 frames, <=2 emissions per frame
        cfg = tiny_config(vocab_size=3)
        model = random_model(cfg, 17)
        out = enc_outputs(rng, model, 2)
        cap = 2
        blank = model.config.vocab.blank_id

        def paths(frame, prefix_state, prefix_out, lp, tokens):
            # returns dict tokens -> list of path log probs
            if frame == out.length:
                yield tokens, lp
                return
            def expand(emitted, state, g, lp_now):
                probs = joint(out.h[frame], g, model)
                # end the frame with blank
                yield from paths(frame + 1, state, g, lp_now + probs[blank],
                                 emitted)
                if len(emitted) - len(tokens) < cap:
                    for k in range(len(probs)):
                        if k == blank:
                            continue
                        g2, s2 = predict_step(k, state, model)
                        yield from expand(emitted + (k,), s2, g2,
                                          lp_now + probs[k])
                else:
                    return
            yield from expand(tokens, prefix_state, prefix_out, lp)

        h0 = start_hypothesis(model)
        totals = {}
        for tokens, lp in paths(0, h0.pred_state, h0.pred_out, 0.0, ()):
            totals.setdefault(tokens, []).append(lp)
        expected = {
            t: np.logaddexp.reduce(np.array(lps)) for t, lps in totals.items()
        }
        hyps = [h0]
        for i in range(out.length):
            hyps = beam_search_step(out.h[i], hyps, 500, model, frame_idx=i,
                                    max_expansions=cap)
        assert len(hyps) <= 500
        got = {h.tokens: h.log_prob for h in hyps}
        assert set(got) == set(expected)
        for tokens in expected:
            assert got[tokens] == pytest.approx(expected[tokens], abs=1e-9)

    def test_no_duplicate_prefixes_and_beam_bound(self, rng):
        model = random_model(tiny_config(), 23)
        out = enc_outputs(rng, model, 6)
        hyps = [start_hypothesis(model)]
        for i in range(out.length):
            hyps = beam_search_step(out.h[i], hyps, 4, model, frame_idx=i)
            assert len(hyps) <= 4
            prefixes = [h.tokens for h in hyps]
            assert len(prefixes) == len(set(prefixes))

    def test_beam_monotonicity(self, rng):
        for seed in (2, 5, 8):
            model = random_model(tiny_config(), seed)
            out = enc_outputs(rng, model, 8)
            best = []
            for beam in (1, 2, 3, 4):
                t = decode_with_srs(out, model, beam=beam,
                                    srs=SrsParams(enabled=False))
                best.append(t.log_prob)
            for a, b in zip(best, best[1:]):
                assert b >= a - 1e-12


def assert_same_hyps(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.tokens == b.tokens
        assert a.frames == b.frames
        assert a.log_prob == b.log_prob
        assert np.array_equal(a.pred_state.hidden, b.pred_state.hidden)
        assert np.array_equal(a.pred_state.cell, b.pred_state.cell)
        assert np.array_equal(a.pred_out, b.pred_out)
        assert a.last_was_blank == b.last_was_blank


def equivalence_models():
    """20 seeded tiny models spanning blank-heavy to emitting regimes, and
    one whose tokens 1 and 2 share a joint.out column, so their scores tie
    exactly and the token tie-break decides at the beam boundary."""
    models = []
    for seed in range(20):
        model = random_model(tiny_config(), seed)
        model.joint.out_bias[model.config.vocab.blank_id] += 0.5 * (seed % 4)
        models.append(model)
    tied = random_model(tiny_config(), 99)
    tied.joint.out[:, 2] = tied.joint.out[:, 1]
    tied.joint.out_bias[2] = tied.joint.out_bias[1]
    models.append(tied)
    return models


class TestDeferredExpansion:
    """`beam_search_step` against the eager reference in tests_oracles."""

    @pytest.mark.parametrize("t_sil", [None, 1])
    def test_identical_to_eager_step(self, t_sil):
        rng = np.random.default_rng(4242)
        for model in equivalence_models():
            out = enc_outputs(rng, model, 6)
            for beam in (1, 2, 4, 8):
                for max_exp in (1, 2, 5):
                    hyps = [start_hypothesis(model)]
                    counter = SrsCounter(t_sil) if t_sil else None
                    for i in range(out.length):
                        want = eager_beam_search_step(out.h[i], hyps, beam, model,
                                                      i, max_exp)
                        hyps = beam_search_step(out.h[i], hyps, beam, model,
                                                frame_idx=i, max_expansions=max_exp)
                        assert_same_hyps(hyps, want)
                        if counter and counter.update(check_blank_token(hyps)):
                            hyps = reset_prediction_states(hyps, model)

    def test_tied_columns_decide_at_beam_boundary(self):
        # Two hypotheses with one score and one state, listed against
        # lexicographic order. Under the tied model every child (2, k) ties
        # exactly with (1, k), and (x, 1) with (x, 2); pool order would put
        # (2, ...) first, so only the token tie-break picks the survivors.
        model = equivalence_models()[-1]
        h0 = start_hypothesis(model)
        g, state = predict_step(1, h0.pred_state, model)
        lp = joint(np.zeros(8), g, model)
        assert lp[1] == lp[2]
        hyps = [Hypothesis((2,), (0,), -1.0, state, g),
                Hypothesis((1,), (0,), -1.0, state, g)]
        for beam in range(1, 7):
            for max_exp in (1, 2):
                got = beam_search_step(np.zeros(8), hyps, beam, model,
                                       frame_idx=1, max_expansions=max_exp)
                want = eager_beam_search_step(np.zeros(8), hyps, beam, model,
                                              1, max_exp)
                assert_same_hyps(got, want)
                ranked = sorted(got, key=lambda h: h.sort_key())
                assert [h.tokens for h in got] == [h.tokens for h in ranked]

    def test_equal_keys_keep_pool_order(self, rng):
        # A's blank child and B's child (1,) share tokens and, by
        # construction, the exact score, so their full ranking keys tie.
        # With the beam cut right after the tied pair, pool order alone
        # decides which one survives.
        model = random_model(tiny_config(vocab_size=29), 5)
        blank = model.config.vocab.blank_id
        h0 = start_hypothesis(model)
        g, state = predict_step(1, h0.pred_state, model)
        h_i = rng.normal(size=8)
        lp_a, lp_b = joint(h_i, g, model), joint(h_i, h0.pred_out, model)
        target = -2.0 + lp_b[1]
        a_lp = target - lp_a[blank]
        assert a_lp + lp_a[blank] == target
        a = Hypothesis((1,), (0,), a_lp, state, g)
        b = replace(h0, log_prob=-2.0)
        scores = np.concatenate([a_lp + lp_a, -2.0 + lp_b])
        beam = int(np.sum(scores > target)) + 1
        for hyps in ([a, b], [b, a]):
            got = beam_search_step(h_i, hyps, beam, model, frame_idx=1,
                                   max_expansions=1)
            want = eager_beam_search_step(h_i, hyps, beam, model, 1, 1)
            assert_same_hyps(got, want)

    def test_duplicate_prefixes_in_input_merge_like_eager(self, tiny_model, rng):
        h0 = start_hypothesis(tiny_model)
        g, state = predict_step(1, h0.pred_state, tiny_model)
        other = replace(h0, log_prob=-0.7, pred_state=state, pred_out=g)
        hyps = [h0, other, replace(h0, tokens=(3,), frames=(0,), log_prob=-1.1)]
        for beam in (2, 5, 40):
            h_i = rng.normal(size=8)
            got = beam_search_step(h_i, hyps, beam, tiny_model, frame_idx=1,
                                   max_expansions=2)
            want = eager_beam_search_step(h_i, hyps, beam, tiny_model, 1, 2)
            assert_same_hyps(got, want)

    def test_lstm_steps_bounded_by_survivors(self, rng, monkeypatch):
        calls = []
        real = transducer.predict_step

        def counting(token_id, state, model):
            calls.append(token_id)
            return real(token_id, state, model)

        monkeypatch.setattr(transducer, "predict_step", counting)
        model = random_model(tiny_config(vocab_size=29), 3)
        out = enc_outputs(rng, model, 12)
        for beam, max_exp in ((1, 5), (4, 5), (4, 2), (8, 1)):
            hyps = [start_hypothesis(model)]
            for i in range(out.length):
                del calls[:]
                hyps = beam_search_step(out.h[i], hyps, beam, model, frame_idx=i,
                                        max_expansions=max_exp)
                assert len(calls) <= beam * max_exp
        # under a blank-dominant model, beam 1 keeps only the blank child:
        # no LSTM step after the start symbol (the eager step made 28/frame)
        model.joint.out_bias[model.config.vocab.blank_id] += 50.0
        del calls[:]
        decode_with_srs(out, model, beam=1, srs=SrsParams(t_sil=1))
        assert calls == [None]


class TestSrsMergeState:
    def test_carried_prefix_keeps_its_state_after_reset(self, tiny_model, rng):
        # Pool after a reset: prefix (1,) and its parent (), both zeroed.
        # In round 1, () re-emits 1 and reaches (1,) with a stepped LSTM
        # state; in round 2 that entry takes blank and merges with the
        # carried-over finished (1,). The carried entry is first in pool
        # order, so its zero state is the one kept.
        h0 = start_hypothesis(tiny_model)
        g1, s1 = predict_step(1, h0.pred_state, tiny_model)
        h1 = Hypothesis((1,), (0,), -0.25, s1, g1, last_was_blank=True)
        pool = reset_prediction_states([h1, replace(h0, log_prob=-0.5)], tiny_model)
        h_i = rng.normal(size=8)
        got = beam_search_step(h_i, pool, 64, tiny_model, frame_idx=1,
                               max_expansions=2)
        assert_same_hyps(got, eager_beam_search_step(h_i, pool, 64, tiny_model,
                                                     1, 2))
        merged = next(h for h in got if h.tokens == (1,))
        blank = tiny_model.config.vocab.blank_id
        zero_out = np.zeros(4)
        g_re, s_re = predict_step(1, pool[1].pred_state, tiny_model)
        carried = -0.25 + joint(h_i, zero_out, tiny_model)[blank]
        reemitted = (-0.5 + joint(h_i, zero_out, tiny_model)[1]
                     + joint(h_i, g_re, tiny_model)[blank])
        assert merged.log_prob == pytest.approx(np.logaddexp(carried, reemitted),
                                                abs=1e-12)
        assert not np.array_equal(s_re.hidden, np.zeros(4))
        assert np.array_equal(merged.pred_state.hidden, np.zeros(4))
        assert np.array_equal(merged.pred_state.cell, np.zeros(4))
        assert np.array_equal(merged.pred_out, zero_out)


class TestDecodeWithSrs:
    def test_disabled_equals_huge_threshold(self, rng):
        model = random_model(tiny_config(), 31)
        out = enc_outputs(rng, model, 12)
        a = decode_with_srs(out, model, beam=3, srs=SrsParams(enabled=False))
        b = decode_with_srs(out, model, beam=3,
                            srs=SrsParams(t_sil=10_000, enabled=True))
        assert a == b

    def test_all_blank_empty_transcript(self):
        model = random_model(tiny_config(), 1)
        model.joint.out[:] = 0
        model.joint.out_bias[:] = -10.0
        model.joint.out_bias[model.config.vocab.blank_id] = 10.0
        out = EncoderOutputs(np.zeros((9, 8)), 0.04)
        for t_sil in (1, 3):
            t = decode_with_srs(out, model, beam=2, srs=SrsParams(t_sil=t_sil))
            assert t.token_ids == ()

    def test_reset_zeroes_only_recurrent_state(self, tiny_model, rng):
        h = start_hypothesis(tiny_model)
        hyps = [h]
        for i in range(3):
            hyps = beam_search_step(rng.normal(size=8), hyps, 3, tiny_model,
                                    frame_idx=i)
        before = [(x.tokens, x.log_prob) for x in hyps]
        after = reset_prediction_states(hyps, tiny_model)
        assert [(x.tokens, x.log_prob) for x in after] == before
        for x in after:
            assert np.array_equal(x.pred_state.hidden, np.zeros(4))
            assert np.array_equal(x.pred_state.cell, np.zeros(4))
            assert np.array_equal(x.pred_out, np.zeros(4))

    def test_srs_changes_decoding_after_long_silence(self, rng):
        # engineered model: emit, then a long silent stretch, then emit again;
        # with a tiny threshold the reset must be observable in determinism
        model = random_model(tiny_config(), 77)
        out = enc_outputs(rng, model, 15)
        with_srs = decode_with_srs(out, model, beam=2, srs=SrsParams(t_sil=1))
        again = decode_with_srs(out, model, beam=2, srs=SrsParams(t_sil=1))
        assert with_srs == again

    def test_emission_frames_nondecreasing(self, rng):
        model = random_model(tiny_config(), 13)
        out = enc_outputs(rng, model, 10)
        t = decode_with_srs(out, model, beam=3, srs=SrsParams(enabled=False))
        assert list(t.frames) == sorted(t.frames)


class TestGreedy:
    def test_blank_model_empty(self):
        model = random_model(tiny_config(), 1)
        model.joint.out[:] = 0
        model.joint.out_bias[:] = -5.0
        model.joint.out_bias[model.config.vocab.blank_id] = 5.0
        out = EncoderOutputs(np.zeros((6, 8)), 0.04)
        assert greedy_decode(out, model).token_ids == ()

    def test_deterministic(self, rng):
        model = random_model(tiny_config(), 3)
        out = enc_outputs(rng, model, 7)
        assert greedy_decode(out, model) == greedy_decode(out, model)

    def test_symbol_cap_terminates(self, rng):
        # model that always prefers a non-blank token must still halt
        model = random_model(tiny_config(), 1)
        model.joint.out[:] = 0
        model.joint.out_bias[:] = -5.0
        model.joint.out_bias[1] = 5.0
        out = EncoderOutputs(np.zeros((4, 8)), 0.04)
        t = greedy_decode(out, model, max_symbols=5)
        assert len(t.token_ids) == 4 * 5

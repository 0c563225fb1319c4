import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import tiny_config
from sparse_rnnt import transducer
from sparse_rnnt.encoder import EncoderOutputs
from sparse_rnnt.errors import ParameterError, ShapeError, VocabularyError
from sparse_rnnt.model_io import ModelConfig, Vocabulary, random_model
from sparse_rnnt.numerics import lstm_cell_step
from sparse_rnnt.transducer import (
    Hypothesis,
    Prefix,
    SrsParams,
    beam_search_step,
    check_blank_token,
    decode_with_srs,
    frame_projection,
    greedy_decode,
    joint,
    predict_step,
    reset_prediction_states,
    start_hypothesis,
)
from tests_oracles import (
    LstmState,
    eager_beam_search_step,
    frame_by_frame_decode,
    hypothesis_of,
    oracle_joint,
    oracle_lstm_cell_step,
    oracle_predict_step,
    oracle_srs_firings,
    prefix_of,
    scripted_srs_firings,
    srs_frames,
)


def enc_outputs(rng, model, T):
    dim = model.config.encoder.model_dim
    return EncoderOutputs(rng.normal(size=(T, dim)), 0.04)


def predict_one(token_id, state, model):
    """predict_step on one row: (new state, its projection)."""
    (new,) = predict_step([token_id], state.hidden[None], state.cell[None], model)
    return new, new.proj


def joint_one(frame_proj, pred_proj, model):
    """joint on one row: its log-probabilities over the vocabulary."""
    (log_probs,) = joint(frame_proj, pred_proj[None], model)
    return log_probs


class TestPredictStep:
    def test_zero_weights_zero_output(self):
        model = random_model(tiny_config(), 0)
        model.prediction.lstm.w_x[:] = 0
        model.prediction.lstm.w_h[:] = 0
        model.prediction.lstm.bias[:] = 0
        state, _ = predict_one(None, LstmState.zeros(4), model)
        assert np.array_equal(state.hidden, np.zeros(4))

    def test_deterministic(self, tiny_model):
        s = LstmState.zeros(4)
        s1, p1 = predict_one(2, s, tiny_model)
        s2, p2 = predict_one(2, s, tiny_model)
        assert np.array_equal(s1.hidden, s2.hidden)
        assert np.array_equal(s1.cell, s2.cell)
        assert np.array_equal(p1, p2)

    def test_invalid_token(self, tiny_model):
        with pytest.raises(VocabularyError):
            predict_one(99, LstmState.zeros(4), tiny_model)

    def test_weights_read_only_once_cached(self):
        # the input_gates table is built on first use; editing the weights
        # it was built from afterwards must fail loudly, not decode stale
        model = random_model(tiny_config(), 0)
        pred = model.prediction
        pred.embedding[0, 0] += 1.0
        pred.lstm.w_x[0, 0] += 1.0
        predict_one(1, LstmState.zeros(4), model)
        for weights in (pred.embedding, pred.lstm.w_x):
            with pytest.raises(ValueError, match="read-only"):
                weights[0, 0] = 0.0
        pred.lstm.w_h[0, 0] += 1.0  # not cached, stays writable

    def test_states_are_views_of_the_stack(self, tiny_model, rng, monkeypatch):
        stacks = []
        real = transducer.lstm_cell_step

        def spy(*args):
            stacks.append(real(*args))
            return stacks[-1]

        monkeypatch.setattr(transducer, "lstm_cell_step", spy)
        hidden, cell = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        states = predict_step([None, 1, 2], hidden, cell, tiny_model)
        ((h, c),) = stacks
        assert len(states) == 3
        for r, state in enumerate(states):
            assert state.hidden.base is h and state.cell.base is c
            assert state.proj.base is states[0].proj.base
            assert np.array_equal(state.hidden, h[r])
            assert np.array_equal(state.cell, c[r])
            assert np.array_equal(state.proj, h[r] @ tiny_model.joint.pred_proj)

    def test_start_symbol_uses_zero_embedding(self, tiny_model):
        s1, _ = predict_one(None, LstmState.zeros(4), tiny_model)
        # feeding an explicit zero embedding through the cell must agree
        g2, _ = oracle_lstm_cell_step(np.zeros(4), LstmState.zeros(4),
                                      tiny_model.prediction.lstm)
        assert np.array_equal(s1.hidden, g2)


def joint_on(h_t, g_u, model):
    """The joint kernel on a raw frame and prediction output."""
    return joint_one(frame_projection(h_t, model), g_u @ model.joint.pred_proj, model)


class TestJoint:
    def test_equal_logits_uniform(self, tiny_model, rng):
        tiny_model.joint.out[:] = 0
        tiny_model.joint.out_bias[:] = 0.7
        lp = joint_on(rng.normal(size=8), rng.normal(size=4), tiny_model)
        V = len(tiny_model.config.vocab)
        assert np.allclose(lp, -np.log(V))

    def test_log_probs_normalize(self, tiny_model, rng):
        lp = joint_on(rng.normal(size=8), rng.normal(size=4), tiny_model)
        assert abs(np.exp(lp).sum() - 1.0) < 1e-9

    def test_two_token_hand_case(self):
        cfg = tiny_config(vocab_size=2)
        model = random_model(cfg, 0)
        model.joint.out[:] = 0
        model.joint.out_bias[:] = [0.0, math.log(3.0)]
        lp = joint_on(np.zeros(8), np.zeros(4), model)
        assert np.allclose(lp, [-math.log(4.0), math.log(3.0 / 4.0)])


def kernel_models():
    """A tiny, a desk-scale and a blank-biased desk-scale random model."""
    desk, blank = (random_model(ModelConfig.desk_scale(), 7) for _ in range(2))
    blank.joint.out_bias[blank.config.vocab.blank_id] += 1.5
    return [random_model(tiny_config(), 3), desk, blank]


@pytest.mark.parametrize("model", kernel_models(), ids=["tiny", "desk", "blank"])
class TestCachedKernels:
    """The stacked kernels against lone rows and the uncached formulas, bit
    for bit."""

    def states(self, model):
        """A zero state, two random ones, and the states of a beam-4 pool
        right after reset_prediction_states."""
        n = model.config.pred_dim
        rng = np.random.default_rng(11)
        D = model.config.encoder.model_dim
        hyps = [start_hypothesis(model)]
        for i in range(3):
            hyps = beam_search_step(rng.normal(size=D), hyps, 4, model, frame_idx=i)
        reset = [h.state for h in reset_prediction_states(hyps, model)]
        return [LstmState.zeros(n),
                LstmState(rng.normal(size=n), rng.normal(size=n)),
                LstmState(rng.normal(size=n), rng.normal(size=n)), *reset]

    def test_predict_step_every_token(self, model):
        # stacks of B = 1..8 rows, mixing every token with every state
        states = self.states(model)
        tokens = [None, *range(len(model.config.vocab))]
        for B in range(1, 9):
            for first in range(0, len(tokens), B):
                rows = [(tokens[(first + r) % len(tokens)],
                         states[(first + 3 * r) % len(states)]) for r in range(B)]
                got = predict_step(
                    [k for k, _ in rows], np.array([s.hidden for _, s in rows]),
                    np.array([s.cell for _, s in rows]), model)
                projs = np.array([s.proj for s in got])
                assert len(got) == B and projs.shape == (B, model.config.joint_dim)
                for (k, state), new, proj in zip(rows, got, projs):
                    one, one_proj = predict_one(k, state, model)
                    g, want = oracle_predict_step(k, state, model)
                    for a in (one, want):
                        assert np.array_equal(new.hidden, a.hidden)
                        assert np.array_equal(new.cell, a.cell)
                    assert np.array_equal(proj, one_proj)
                    assert np.array_equal(proj, g @ model.joint.pred_proj)

    def test_joint_every_token(self, model):
        # stacks of A = 1..8 prefixes, each after one token from one state
        rng = np.random.default_rng(12)
        states = self.states(model)
        tokens = [None, *range(len(model.config.vocab))]
        D = model.config.encoder.model_dim
        for A in range(1, 9):
            for first in range(0, len(tokens), A):
                after = [predict_one(tokens[(first + r) % len(tokens)],
                                     states[(first + 2 * r) % len(states)], model)
                         for r in range(A)]
                h_t = rng.normal(size=D)
                frame_proj = frame_projection(h_t, model)
                got = joint(frame_proj, np.array([p for _, p in after]), model)
                assert got.shape == (A, len(model.config.vocab))
                for (state, proj), row in zip(after, got):
                    assert np.array_equal(row, joint_one(frame_proj, proj, model))
                    assert np.array_equal(row, oracle_joint(h_t, state.hidden, model))

    def test_block_of_frames(self, model):
        # run scoring: L frames' projections as one stacked gemv and one
        # joint call against S prefixes, each (frame, prefix) row bit for
        # bit the lone row's
        rng = np.random.default_rng(14)
        D = model.config.encoder.model_dim
        states = self.states(model)
        for L, S in ((1, 1), (2, 3), (17, 1), (17, 4), (300, 2)):
            held = [predict_one(k % len(model.config.vocab), states[k % len(states)], model)
                    for k in range(1, S + 1)]
            h = rng.normal(size=(L, D))
            projs = frame_projection(h, model)
            block = joint(projs[:, None], np.array([p for _, p in held]), model)
            assert projs.shape == (L, model.config.joint_dim)
            assert block.shape == (L, S, len(model.config.vocab))
            for h_t, row_proj, rows in zip(h, projs, block):
                assert np.array_equal(row_proj, frame_projection(h_t, model))
                for (state, proj), row in zip(held, rows):
                    assert np.array_equal(row, joint_one(row_proj, proj, model))
                    assert np.array_equal(row, oracle_joint(h_t, state.hidden, model))

    def test_frame_projection_rejects_wrong_dim(self, model):
        D = model.config.encoder.model_dim
        for shape in ((D + 1,), (3, D - 1)):
            with pytest.raises(ShapeError, match=f"{shape[-1]} != joint input {D}"):
                frame_projection(np.zeros(shape), model)

    def test_after_reset(self, model):
        rng = np.random.default_rng(13)
        D, n = model.config.encoder.model_dim, model.config.pred_dim
        hyps = [start_hypothesis(model)]
        for i in range(3):
            hyps = beam_search_step(rng.normal(size=D), hyps, 4, model, frame_idx=i)
        reset = reset_prediction_states(hyps, model)
        h_t = rng.normal(size=D)
        got = joint(frame_projection(h_t, model),
                    np.array([h.state.proj for h in reset]), model)
        for row in got:
            assert np.array_equal(row, oracle_joint(h_t, np.zeros(n), model))
        tokens = [(None, 1)[r % 2] for r in range(len(reset))]
        states = predict_step(
            tokens, np.array([h.state.hidden for h in reset]),
            np.array([h.state.cell for h in reset]), model)
        for k, state in zip(tokens, states):
            g, want = oracle_predict_step(k, LstmState.zeros(n), model)
            assert np.array_equal(state.hidden, want.hidden)
            assert np.array_equal(state.cell, want.cell)
            assert np.array_equal(state.proj, g @ model.joint.pred_proj)

    def test_inputs_left_unwritten(self, model):
        # joint, predict_step and lstm_cell_step reuse their own temporaries
        # in place; every array handed in keeps its bytes: the states' row
        # views and the stacks they view, the cached input_gates table and
        # the weights, on lone rows, stacks and blocks of frames
        rng = np.random.default_rng(15)
        D = model.config.encoder.model_dim
        pred, jw = model.prediction, model.joint
        hyps = [start_hypothesis(model)]
        for i in range(3):
            hyps = beam_search_step(rng.normal(size=D), hyps, 4, model, frame_idx=i)
        states = [h.state for h in hyps]  # row views of predict_step's stacks
        stack = predict_step([1, 2, None], np.array([s.hidden for s in states[:3]]),
                             np.array([s.cell for s in states[:3]]), model)
        frame_proj = frame_projection(rng.normal(size=D), model)
        block = frame_projection(rng.normal(size=(5, D)), model)[:, None]
        weights = [pred.input_gates, pred.embedding, pred.lstm.w_x, pred.lstm.w_h,
                   pred.lstm.bias, jw.enc_proj, jw.pred_proj, jw.bias, jw.out, jw.out_bias]
        inputs = [frame_proj, block, stack.hidden, stack.cell, stack.proj,
                  *(v for st in [*states, *stack] for v in (st.hidden, st.cell, st.proj))]
        before = [a.tobytes() for a in weights + inputs]
        joint(frame_proj, stack.proj, model)
        joint(frame_proj, states[0].proj[None], model)
        joint(block, stack.proj, model)
        predict_step([3, None, 1], stack.hidden, stack.cell, model)
        predict_step([2], states[0].hidden[None], states[0].cell[None], model)
        lstm_cell_step(pred.input_gates[1:4], stack.hidden, stack.cell, pred.lstm)
        lstm_cell_step(pred.input_gates[-1:], states[1].hidden[None], states[1].cell[None],
                       pred.lstm)
        assert [a.tobytes() for a in weights + inputs] == before

    def test_invalid_token_inside_a_stack(self, model):
        V = len(model.config.vocab)
        zero = np.zeros((3, model.config.pred_dim))
        for bad in (-1, V, 10 * V):
            for slot in range(3):
                tokens = [None, 1, V - 1]
                tokens[slot] = bad
                with pytest.raises(VocabularyError, match=str(bad)):
                    predict_step(tokens, zero, zero, model)


class TestCheckBlankToken:
    """A hypothesis produced a token in frame i iff its prefix's last
    token is at frame i."""

    def test_all_blank(self, tiny_model):
        h = start_hypothesis(tiny_model)
        assert check_blank_token([h, h], 0) is True

    def test_earlier_emissions_are_blank_now(self, tiny_model):
        h = replace(start_hypothesis(tiny_model), prefix=prefix_of((1, 2), (0, 2)))
        assert check_blank_token([h], 3) is True
        assert check_blank_token([h], 2) is False

    def test_one_non_blank(self, tiny_model):
        h = start_hypothesis(tiny_model)
        hyps = [h] * 3 + [replace(h, prefix=prefix_of((1,), (4,)))]
        assert check_blank_token(hyps, 4) is False
        assert check_blank_token(hyps, 5) is True

    def test_single_non_blank(self, tiny_model):
        h = replace(start_hypothesis(tiny_model), prefix=prefix_of((3,), (0,)))
        assert check_blank_token([h], 0) is False

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            check_blank_token([], 0)


class TestBeamWidth:
    """beam_search_step and decode_with_srs take the rule DecodeOptions
    applies: an int of at least 1, not a bool."""

    @pytest.mark.parametrize("beam", [2.5, True, 0])
    def test_rejected(self, rng, beam):
        model = random_model(tiny_config(), 0)
        out = enc_outputs(rng, model, 6)
        with pytest.raises(ParameterError, match="^beam must be"):
            beam_search_step(out.h[0], [start_hypothesis(model)], beam, model)
        with pytest.raises(ParameterError, match="^beam must be"):
            decode_with_srs(out, model, beam=beam, srs=SrsParams())

    def test_checked_before_any_work(self, rng, monkeypatch):
        model = random_model(tiny_config(), 0)
        out = enc_outputs(rng, model, 6)
        start = start_hypothesis(model)

        def no_work(*args):
            raise AssertionError("beam must be checked before any work")

        monkeypatch.setattr(transducer, "frame_projection", no_work)
        monkeypatch.setattr(transducer, "start_hypothesis", no_work)
        with pytest.raises(ParameterError):
            beam_search_step(out.h[0], [start], 2.5, model)
        with pytest.raises(ParameterError):
            decode_with_srs(out, model, beam=2.5, srs=SrsParams())


class TestBeamSearch:
    def test_blank_dominant_model_never_grows(self):
        model = random_model(tiny_config(), 1)
        model.joint.out[:] = 0
        model.joint.out_bias[:] = -10.0
        model.joint.out_bias[model.config.vocab.blank_id] = 10.0
        h = start_hypothesis(model)
        state_before = h.state.hidden.copy()
        hyps = [h]
        for i in range(5):
            hyps = beam_search_step(np.zeros(8), hyps, 1, model, frame_idx=i)
        assert len(hyps) == 1
        assert hyps[0].tokens == ()
        assert np.array_equal(hyps[0].state.hidden, state_before)
        assert check_blank_token(hyps, 4)

    def test_beam_one_equals_greedy(self, rng):
        for seed in range(20):
            model = random_model(tiny_config(), seed)
            out = enc_outputs(rng, model, 10)
            g = greedy_decode(out, model)
            b = decode_with_srs(out, model, beam=1,
                                srs=None)
            assert b.token_ids == g.token_ids
            assert b.frames == g.frames
            assert b.log_prob == g.log_prob

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
                probs = oracle_joint(out.h[frame], g, model)
                # end the frame with blank
                yield from paths(frame + 1, state, g, lp_now + probs[blank],
                                 emitted)
                if len(emitted) - len(tokens) < cap:
                    for k in range(len(probs)):
                        if k == blank:
                            continue
                        g2, s2 = oracle_predict_step(k, state, model)
                        yield from expand(emitted + (k,), s2, g2,
                                          lp_now + probs[k])
                else:
                    return
            yield from expand(tokens, prefix_state, prefix_out, lp)

        h0 = start_hypothesis(model)
        totals = {}
        for tokens, lp in paths(0, h0.state, h0.state.hidden, 0.0, ()):
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
        for _, hyps, _ in srs_frames(out, model, 4, None):
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
                                    srs=None)
                best.append(t.log_prob)
            for a, b in zip(best, best[1:]):
                assert b >= a - 1e-12


def assert_same_hyps(got, want, frame_idx):
    """`got` from beam_search_step on frame `frame_idx` equals the eager
    step's (hypothesis, emitted) pairs `want`; a hypothesis produced a
    token in the frame iff its prefix's last token is there."""
    assert len(got) == len(want)
    for a, (b, emitted) in zip(got, want):
        assert a.tokens == b.tokens
        assert a.frames == b.frames
        assert a.log_prob == b.log_prob
        assert np.array_equal(a.state.hidden, b.state.hidden)
        assert np.array_equal(a.state.cell, b.state.cell)
        assert np.array_equal(a.state.proj, b.state.proj)
        assert (a.prefix.frame == frame_idx) == emitted


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
        srs = None if t_sil is None else SrsParams(t_sil)
        for model in equivalence_models():
            out = enc_outputs(rng, model, 6)
            for beam in (1, 2, 4, 8):
                for max_exp in (1, 2, 5):
                    def step(h_i, hyps, i):
                        want = eager_beam_search_step(h_i, hyps, beam, model, i, max_exp)
                        hyps = beam_search_step(h_i, hyps, beam, model,
                                                frame_idx=i, max_expansions=max_exp)
                        assert_same_hyps(hyps, want, i)
                        return hyps

                    for _ in srs_frames(out, model, beam, srs, step):
                        pass

    def test_tied_columns_decide_at_beam_boundary(self):
        # Two hypotheses with one score and one state, listed against
        # lexicographic order. Under the tied model every child (2, k) ties
        # exactly with (1, k), and (x, 1) with (x, 2); pool order would put
        # (2, ...) first, so only the token tie-break picks the survivors.
        model = equivalence_models()[-1]
        h0 = start_hypothesis(model)
        state, _ = predict_one(1, h0.state, model)
        lp = oracle_joint(np.zeros(8), state.hidden, model)
        assert lp[1] == lp[2]
        hyps = [hypothesis_of((2,), (0,), -1.0, state, model),
                hypothesis_of((1,), (0,), -1.0, state, model)]
        for beam in range(1, 7):
            for max_exp in (1, 2):
                got = beam_search_step(np.zeros(8), hyps, beam, model,
                                       frame_idx=1, max_expansions=max_exp)
                want = eager_beam_search_step(np.zeros(8), hyps, beam, model,
                                              1, max_exp)
                assert_same_hyps(got, want, 1)
                ranked = sorted(got, key=lambda h: (-h.log_prob, h.tokens))
                assert [h.tokens for h in got] == [h.tokens for h in ranked]

    def test_equal_keys_keep_pool_order(self, rng):
        # A's blank child and B's child (1,) share tokens and, by
        # construction, the exact score, so their full ranking keys tie.
        # With the beam cut right after the tied pair, pool order alone
        # decides which one survives.
        model = random_model(tiny_config(vocab_size=29), 5)
        blank = model.config.vocab.blank_id
        h0 = start_hypothesis(model)
        state, _ = predict_one(1, h0.state, model)
        h_i = rng.normal(size=8)
        lp_a = oracle_joint(h_i, state.hidden, model)
        lp_b = oracle_joint(h_i, h0.state.hidden, model)
        target = -2.0 + lp_b[1]
        a_lp = target - lp_a[blank]
        assert a_lp + lp_a[blank] == target
        a = hypothesis_of((1,), (0,), a_lp, state, model)
        b = replace(h0, log_prob=-2.0)
        scores = np.concatenate([a_lp + lp_a, -2.0 + lp_b])
        beam = int(np.sum(scores > target)) + 1
        for hyps in ([a, b], [b, a]):
            got = beam_search_step(h_i, hyps, beam, model, frame_idx=1,
                                   max_expansions=1)
            want = eager_beam_search_step(h_i, hyps, beam, model, 1, 1)
            assert_same_hyps(got, want, 1)

    def test_repeated_prefixes_in_input_rejected(self, tiny_model, rng):
        # every step returns distinct prefixes, so a repeat is a caller's
        # error, whatever the states and scores on it and on whichever chain
        h0 = start_hypothesis(tiny_model)
        state, _ = predict_one(1, h0.state, tiny_model)
        one_chain = [h0, replace(h0, log_prob=-0.7, state=state),
                     replace(h0, prefix=prefix_of((3,), (0,)), log_prob=-1.1)]
        two_chains = [hypothesis_of((1, 2), (0, 0), -0.3, state, tiny_model),
                      hypothesis_of((3,), (0,), -0.9, h0.state, tiny_model),
                      hypothesis_of((1, 2), (0, 0), -0.6, h0.state, tiny_model)]
        for hyps in (one_chain, two_chains):
            for beam in (1, 2, 5, 40):
                with pytest.raises(ParameterError, match="distinct prefixes"):
                    beam_search_step(rng.normal(size=8), hyps, beam, tiny_model,
                                     frame_idx=1, max_expansions=2)

    def test_lstm_steps_bounded_by_survivors(self, rng, monkeypatch):
        calls = []
        real = transducer.predict_step

        def counting(tokens, hidden, cell, model):
            calls.extend(tokens)
            return real(tokens, hidden, cell, model)

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

    def test_one_kernel_call_per_round(self, rng, monkeypatch):
        # every expansion round scores its actives in one joint call, one
        # row per active in order, and steps all its surviving children in
        # at most one predict_step call: on a saturated beam-4 decode, on
        # the prune-only fixture, whose closing rounds score states scored
        # earlier in the frame, and on a decode with many resets, whose
        # actives share one zero state
        calls = {"joint": [], "predict_step": []}
        for name, rows in (("joint", lambda args: args[1]),
                           ("predict_step", lambda args: len(args[0]))):
            def spy(*args, real=getattr(transducer, name), name=name, rows=rows):
                calls[name].append(rows(args))
                return real(*args)
            monkeypatch.setattr(transducer, name, spy)
        rounds = []
        seen = {"frame": None, "states": set(), "rescored": 0, "shared": 0}
        real_round = transducer._expand_round

        def round_spy(*args, **kwargs):
            # the actives are rows (prefixes, states, costs)
            actives, frame = args[2][1], args[5]
            states = set(actives)
            if frame != seen["frame"]:
                seen["frame"], seen["states"] = frame, set()
            seen["rescored"] += states <= seen["states"]
            seen["shared"] += len(states) < len(actives)
            seen["states"] |= states
            before = {name: len(c) for name, c in calls.items()}
            out = real_round(*args, **kwargs)
            made = {name: c[before[name]:] for name, c in calls.items()}
            rows = np.array([state.proj for state in actives])
            # per joint call, whether its rows are the actives', in order
            rounds.append({"joint": [np.array_equal(pred, rows) for pred in made["joint"]],
                           "predict_step": len(made["predict_step"])})
            return out

        monkeypatch.setattr(transducer, "_expand_round", round_spy)
        model = random_model(tiny_config(vocab_size=29), 3)
        model.joint.out_bias[model.config.vocab.blank_id] -= 20.0
        out = enc_outputs(rng, model, 12)
        t = decode_with_srs(out, model, beam=4, srs=None)
        assert len(t.token_ids) == 5 * out.length  # saturated
        assert calls["predict_step"][0] == 1  # the start symbol
        assert len(rounds) == 6 * out.length  # 5 growing rounds and the cap
        assert all(r["joint"] == [True] and r["predict_step"] <= 1 for r in rounds)
        assert sum(r["predict_step"] for r in rounds) == 5 * out.length
        assert max(len(p) for p in calls["joint"]) == 4
        assert max(calls["predict_step"]) == 4

        prune_model, prune_out = prune_only_outputs()
        reset_model = random_model(tiny_config(), 3)
        reset_model.joint.out_bias[reset_model.config.vocab.blank_id] += 4.0
        reset_out = enc_outputs(np.random.default_rng(0), reset_model, 200)
        for model, out, srs, key in ((prune_model, prune_out, SrsParams(t_sil=15), "rescored"),
                                     (reset_model, reset_out, SrsParams(t_sil=1), "shared")):
            del rounds[:]
            seen.update(frame=None, rescored=0, shared=0)
            decode_with_srs(out, model, beam=4, srs=srs)
            assert seen[key] > 0  # the input has the rounds the rule is about
            assert all(r["joint"] == [True] and r["predict_step"] <= 1 for r in rounds)


class TestPrefixIdentity:
    def test_equal_tokens_on_different_chains_are_equal(self):
        a = prefix_of((1, 2, 3), (0, 0, 1))
        b = prefix_of((1, 2, 3), (0, 1, 2))
        c = Prefix(prefix_of((1, 2), (0, 0)), 3, 1)
        assert a is not b and a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1
        assert a != prefix_of((1, 2, 4), (0, 0, 1))
        assert a != prefix_of((1, 2), (0, 0))
        assert prefix_of((), ()) == Prefix()

    def test_equal_tokens_on_different_chains_merge(self, tiny_model, rng):
        # (1,) emits 2 onto a new chain; its child takes blank and merges
        # with the carried (1, 2), built on a chain of its own
        h0 = start_hypothesis(tiny_model)
        s1, _ = predict_one(1, h0.state, tiny_model)
        s12, _ = predict_one(2, s1, tiny_model)
        hyps = [hypothesis_of((1, 2), (0, 0), -0.3, s12, tiny_model),
                hypothesis_of((1,), (0,), -0.6, s1, tiny_model)]
        for max_exp in (1, 2):
            h_i = rng.normal(size=8)
            got = beam_search_step(h_i, hyps, 40, tiny_model, frame_idx=1,
                                   max_expansions=max_exp)
            assert_same_hyps(got, eager_beam_search_step(h_i, hyps, 40, tiny_model,
                                                         1, max_exp), 1)
            assert [h.tokens for h in got].count((1, 2)) == 1

    def test_hash_collision_never_merges(self, monkeypatch, rng):
        models = equivalence_models()[::5]
        outs = [enc_outputs(rng, m, 8) for m in models]
        want = [decode_with_srs(out, m, beam=4, srs=SrsParams(t_sil=1))
                for m, out in zip(models, outs)]
        # every prefix of a length now shares one hash
        monkeypatch.setattr(transducer, "_hash_step", lambda prefix_hash, token: 0)
        a, b = prefix_of((1, 2), (0, 0)), prefix_of((2, 1), (0, 0))
        assert hash(a) == hash(b) and a.length == b.length
        assert a != b and len({a, b}) == 2
        for m, out, w in zip(models, outs, want):
            assert decode_with_srs(out, m, beam=4, srs=SrsParams(t_sil=1)) == w
        model = models[0]
        h0 = start_hypothesis(model)
        hyps = [hypothesis_of((1,), (0,), -0.5, h0.state, model),
                hypothesis_of((2,), (0,), -0.5, h0.state, model)]
        h_i = rng.normal(size=8)
        got = beam_search_step(h_i, hyps, 8, model, frame_idx=1, max_expansions=2)
        assert_same_hyps(got, eager_beam_search_step(h_i, hyps, 8, model, 1, 2), 1)

    def test_token_tuples_built_only_for_the_transcript(self, monkeypatch, rng):
        built = {"tokens": 0, "frames": 0}
        for name in built:
            def spy(prefix, real=getattr(Prefix, name), name=name):
                built[name] += 1
                return real(prefix)
            monkeypatch.setattr(Prefix, name, spy)
        model = random_model(tiny_config(vocab_size=29), 3)
        model.joint.out_bias[model.config.vocab.blank_id] -= 20.0
        out = enc_outputs(rng, model, 12)
        t = decode_with_srs(out, model, beam=4, srs=None)
        assert len(t.token_ids) == 5 * out.length  # saturated
        assert built == {"tokens": 1, "frames": 1}
        # exact ties at the beam boundary are broken on the token tuples
        tied = equivalence_models()[-1]
        tied.joint.out_bias[tied.config.vocab.blank_id] -= 20.0
        decode_with_srs(out, tied, beam=4, srs=None)
        assert built["tokens"] > 2 and built["frames"] == 2


class TestSrsMergeState:
    def test_carried_prefix_keeps_its_state_after_reset(self, tiny_model, rng):
        # Pool after a reset: prefix (1,) and its parent (), both zeroed.
        # In round 1, () re-emits 1 and reaches (1,) with a stepped LSTM
        # state; in round 2 that entry takes blank and merges with the
        # carried-over finished (1,). The carried entry is first in pool
        # order, so its zero state is the one kept.
        h0 = start_hypothesis(tiny_model)
        s1, _ = predict_one(1, h0.state, tiny_model)
        h1 = hypothesis_of((1,), (0,), -0.25, s1, tiny_model)
        pool = reset_prediction_states([h1, replace(h0, log_prob=-0.5)], tiny_model)
        h_i = rng.normal(size=8)
        got = beam_search_step(h_i, pool, 64, tiny_model, frame_idx=1,
                               max_expansions=2)
        assert_same_hyps(got, eager_beam_search_step(h_i, pool, 64, tiny_model,
                                                     1, 2), 1)
        merged = next(h for h in got if h.tokens == (1,))
        blank = tiny_model.config.vocab.blank_id
        zero_out = np.zeros(4)
        g_re, s_re = oracle_predict_step(1, pool[1].state, tiny_model)
        carried = -0.25 + oracle_joint(h_i, zero_out, tiny_model)[blank]
        reemitted = (-0.5 + oracle_joint(h_i, zero_out, tiny_model)[1]
                     + oracle_joint(h_i, g_re, tiny_model)[blank])
        assert merged.log_prob == pytest.approx(np.logaddexp(carried, reemitted),
                                                abs=1e-12)
        assert not np.array_equal(s_re.hidden, np.zeros(4))
        assert np.array_equal(merged.state.hidden, np.zeros(4))
        assert np.array_equal(merged.state.cell, np.zeros(4))
        assert np.array_equal(merged.state.hidden, zero_out)
        assert np.array_equal(merged.state.proj, zero_out @ tiny_model.joint.pred_proj)


class TestDecodeWithSrs:
    def test_disabled_equals_huge_threshold(self, rng):
        model = random_model(tiny_config(), 31)
        out = enc_outputs(rng, model, 12)
        a = decode_with_srs(out, model, beam=3, srs=None)
        b = decode_with_srs(out, model, beam=3,
                            srs=SrsParams(t_sil=10_000))
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
            assert np.array_equal(x.state.hidden, np.zeros(4))
            assert np.array_equal(x.state.cell, np.zeros(4))
            assert np.array_equal(x.state.proj, np.zeros(4) @ tiny_model.joint.pred_proj)

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
        t = decode_with_srs(out, model, beam=3, srs=None)
        assert list(t.frames) == sorted(t.frames)

    @pytest.mark.parametrize("t_sil", [1, 15])
    def test_every_hypothesis_feeds_the_counter(self, t_sil, monkeypatch):
        # check_blank_token reads the whole beam, not its best hypothesis.
        # At beam 4 the prune-only beam keeps three one-token children of
        # the all-blank prefix on every frame, so no frame is all-blank and
        # SRS never fires, though the best hypothesis emits nothing. At
        # beam 1 that prefix is the beam: SRS fires every t_sil + 1 frames.
        model, out = prune_only_outputs()
        resets = spy_rows(monkeypatch, "reset_prediction_states", lambda args: 1)
        got = decode_with_srs(out, model, beam=4, srs=SrsParams(t_sil=t_sil))
        assert got.token_ids == () and resets == []
        got = decode_with_srs(out, model, beam=1, srs=SrsParams(t_sil=t_sil))
        assert got.token_ids == ()
        assert len(resets) == out.length // (t_sil + 1) > 10

    def test_fires_where_the_silent_count_passes_t_sil(self, tiny_model, monkeypatch):
        # every pattern of all-blank and emitting frames, up to 10 frames:
        # the beam resets on exactly the frames where the running count of
        # all-blank frames exceeds t_sil, and the count then starts over
        firings = scripted_srs_firings(monkeypatch, tiny_model)
        for t_sil in (1, 2, 3):
            for length in range(1, 11):
                for silences in itertools.product([True, False], repeat=length):
                    assert firings(t_sil, silences) == oracle_srs_firings(t_sil, silences)

    @pytest.mark.parametrize("t_sil", [1, 2, 15])
    def test_reference_loop_fires_as_the_oracle(self, t_sil):
        # srs_frames, the runs' reference, fires where oracle_srs_firings
        # does over its frames' silences (a reset keeps the prefixes they
        # are read from): all silent at beam 1, mixed at beam 4
        model = random_model(tiny_config(), 3)
        model.joint.out_bias[model.config.vocab.blank_id] += 5.0
        out = enc_outputs(np.random.default_rng(0), model, 300)
        for beam in (1, 4):
            frames = list(srs_frames(out, model, beam, SrsParams(t_sil)))
            silences = [check_blank_token(hyps, i) for i, hyps, _ in frames]
            fired = [i for i, _, fired in frames if fired]
            assert fired and fired == oracle_srs_firings(t_sil, silences)
        assert not all(silences)


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

    @pytest.mark.parametrize("blank_id", [0, 2])
    def test_blank_wins_exact_ties(self, rng, blank_id):
        # token 1 and blank share a joint column and dominate the rest, so
        # they tie exactly on every row; the beam ranks blank first
        cfg = tiny_config()
        cfg.vocab = Vocabulary(cfg.vocab.tokens, blank_id=blank_id)
        model = random_model(cfg, 4)
        jw = model.joint
        jw.out_bias[:] -= 5.0
        jw.out[:, 1] = jw.out[:, blank_id]
        jw.out_bias[1] = jw.out_bias[blank_id] = 5.0
        out = enc_outputs(rng, model, 4)
        g = greedy_decode(out, model)
        b = decode_with_srs(out, model, beam=1, srs=None)
        assert g.token_ids == b.token_ids == ()
        assert g.log_prob == b.log_prob

    def test_symbol_cap_terminates(self, rng):
        # model that always prefers a non-blank token must still halt
        model = random_model(tiny_config(), 1)
        model.joint.out[:] = 0
        model.joint.out_bias[:] = -5.0
        model.joint.out_bias[1] = 5.0
        out = EncoderOutputs(np.zeros((4, 8)), 0.04)
        t = greedy_decode(out, model)
        assert len(t.token_ids) == 4 * transducer.MAX_SYMBOLS


def run_ahead_models():
    """Tiny models over blank biases 0-4, a desk-scale one that emits on
    some random frames and not others, a blank-biased desk-scale one, and a
    model whose token 1 ties blank exactly on every row."""
    models = []
    for bias in range(5):
        model = random_model(tiny_config(), 40 + bias)
        model.joint.out_bias[model.config.vocab.blank_id] += bias
        models.append(model)
    desk, blank = (random_model(ModelConfig.desk_scale(), 7) for _ in range(2))
    blank.joint.out_bias[blank.config.vocab.blank_id] += 1.5
    tied = random_model(tiny_config(), 45)
    tied.joint.out[:, 1] = tied.joint.out[:, 0]
    tied.joint.out_bias[1] = tied.joint.out_bias[0] = tied.joint.out_bias.max() + 1.0
    return models + [desk, blank, tied]


def same_transcript(got, want):
    """Tokens, frames and log_prob bits equal."""
    return (got.token_ids == want.token_ids and got.frames == want.frames
            and float(got.log_prob).hex() == float(want.log_prob).hex())


def joint_rows_of(args):
    """Rows a joint call scores: A prefixes on one frame, L frames of one
    prefix, or L frames of S prefixes."""
    return math.prod(np.broadcast_shapes(args[0].shape, args[1].shape)[:-1])


def spy_rows(monkeypatch, name, rows_of, calls=None):
    """Record rows_of(args) for each call of transducer.<name>, in `calls`
    if given."""
    calls = [] if calls is None else calls
    real = getattr(transducer, name)

    def spy(*args, **kwargs):
        calls.append(rows_of(args))
        return real(*args, **kwargs)

    monkeypatch.setattr(transducer, name, spy)
    return calls


def event_log(monkeypatch):
    """The decoder's calls in order: "step", "reset", and per joint call
    "run" when it scores a block of frames (3-D frame projections), as a
    run does, or "joint"."""
    log = []
    spy_rows(monkeypatch, "joint",
             lambda args: "run" if args[0].ndim == 3 else "joint", log)
    spy_rows(monkeypatch, "beam_search_step", lambda args: "step", log)
    spy_rows(monkeypatch, "reset_prediction_states", lambda args: "reset", log)
    return log


def runs_ended_by_reset(log):
    """Runs in an event_log that ended where SRS fired."""
    return sum(a == "run" and b == "reset" for a, b in zip(log, log[1:]))


def beam_of(hyps):
    """Each hypothesis's tokens, frames, log_prob bits and state, in order."""
    return [(h.tokens, h.frames, float(h.log_prob).hex(), h.state.hidden.tobytes(),
             h.state.cell.tobytes()) for h in hyps]


class TestRunAhead:
    """decode_with_srs, which takes the frames after a prune-only frame in
    runs at every beam, against the frame-by-frame loop in tests_oracles."""

    @pytest.mark.parametrize("t_sil", [1, 4, 15])
    def test_identical_to_frame_by_frame(self, t_sil, monkeypatch):
        # the final beam, in rank order, of the decode and of its oracle
        beams = spy_rows(monkeypatch, "_best", lambda args: beam_of(args[0]))
        log = event_log(monkeypatch)
        rng = np.random.default_rng(900 + t_sil)
        period = t_sil + 1
        # T' within one reset period, multiples of it, and neither
        lengths = sorted({1, t_sil, period, 2 * period, 2 * period + 3, 24})
        cases = [(model, enc_outputs(rng, model, T))
                 for model in run_ahead_models() for T in lengths]
        cases.append(tie_outputs())
        emitted = blank_frames = reset_runs = 0
        for model, out in cases:
            for beam in (1, 2, 4, 8):
                oracle = {}  # SRS on / off: the transcript and the final beam
                for srs in (SrsParams(t_sil=t_sil), None):
                    del log[:]
                    got = decode_with_srs(out, model, beam=beam, srs=srs)
                    got_beam, calls = beams[-1], log[:]
                    if srs is not None or resets:
                        del log[:]
                        oracle[srs is not None] = (
                            frame_by_frame_decode(out, model, beam, srs), beams[-1])
                        resets = log.count("reset")
                    # with no reset fired, the oracle decodes alike with SRS off
                    want, want_beam = oracle.get(srs is not None, oracle[True])
                    assert same_transcript(got, want), (out.length, beam, srs)
                    assert got_beam == want_beam
                    if beam == 1:
                        emitted += len(got.frames) > 0
                        blank_frames += out.length - len(set(got.frames))
                    else:
                        reset_runs += runs_ended_by_reset(calls)
        # both beam-1 regimes were exercised: runs that stop at an
        # emission, and long all-blank stretches; and beam > 1 runs ended
        # by the reset
        assert emitted > 20 and blank_frames > 200
        assert reset_runs > 0 or t_sil > 1


class TestLogProbType:
    """Transcript.log_prob is a Python float whichever path made it."""

    @pytest.mark.parametrize("beam", [1, 2])
    def test_a_float_on_every_path(self, beam, monkeypatch):
        model = random_model(ModelConfig.desk_scale(), 7)
        model.joint.out_bias[model.config.vocab.blank_id] += 10.0
        out = enc_outputs(np.random.default_rng(3), model, 40)
        log = event_log(monkeypatch)
        srs = SrsParams(t_sil=4)
        got = decode_with_srs(out, model, beam=beam, srs=srs)
        # the last frame came from a run
        assert [e for e in log if e in ("run", "step")][-1] == "run"
        assert type(got.log_prob) is float
        del log[:]
        monkeypatch.setattr(transducer, "_template", lambda *args: None)
        frame_by_frame = decode_with_srs(out, model, beam=beam, srs=srs)
        assert "run" not in log and type(frame_by_frame.log_prob) is float
        assert type(greedy_decode(out, model).log_prob) is float


class TestBeamOneRunAhead:
    """The row schedule of beam 1's runs."""

    def test_resets_at_the_end_of_runs(self, monkeypatch):
        # blank on every frame: frame 0 goes alone (no frame before it),
        # runs of 1 + 2 + 4 + 8 frames reach the first reset, then one run
        # of t_sil + 1 = 16 frames per reset and one of the last 14 frames
        model = random_model(ModelConfig.desk_scale(), 7)
        model.joint.out_bias[model.config.vocab.blank_id] += 10.0
        out = enc_outputs(np.random.default_rng(5), model, 1998)
        srs = SrsParams(t_sil=15)
        joint_rows = spy_rows(monkeypatch, "joint", joint_rows_of)
        resets = spy_rows(monkeypatch, "reset_prediction_states", lambda args: 1)
        steps = spy_rows(monkeypatch, "beam_search_step", lambda args: 1)
        got = decode_with_srs(out, model, beam=1, srs=srs)
        assert got.token_ids == ()
        assert len(resets) == 1998 // 16 == 124
        assert len(joint_rows) == 1 + 4 + 123 + 1
        assert joint_rows[:6] == [1, 1, 2, 4, 8, 16] and joint_rows[-1] == 14
        assert sum(joint_rows) == 1998
        assert len(steps) == 1
        monkeypatch.undo()
        assert same_transcript(got, frame_by_frame_decode(out, model, beam=1, srs=srs))

    def test_rows_bounded_by_the_frame_by_frame_search(self, monkeypatch):
        # A saturated decode never starts a run, so it scores exactly the
        # frame-by-frame search's joint rows. On a mixed decode, doubling
        # from one row after each blank frame wastes at most one row per
        # blank frame; a fixed run length wastes up to a whole run at every
        # emission that ends a gap.
        rng = np.random.default_rng(6)
        saturated = random_model(ModelConfig.desk_scale(), 7)
        saturated.joint.out_bias[saturated.config.vocab.blank_id] -= 20.0
        mixed = random_model(ModelConfig.desk_scale(), 7)
        mixed.joint.out_bias[mixed.config.vocab.blank_id] += 1.25
        rows = spy_rows(monkeypatch, "joint", joint_rows_of)
        for model, T in ((saturated, 300), (mixed, 600)):
            out = enc_outputs(rng, model, T)
            for srs in (SrsParams(t_sil=15), None):
                del rows[:]
                got = decode_with_srs(out, model, beam=1, srs=srs)
                ours = sum(rows)
                del rows[:]
                want = frame_by_frame_decode(out, model, beam=1, srs=srs)
                assert same_transcript(got, want)
                blank_frames = T - len(set(got.frames))
                if model is saturated:
                    assert blank_frames == 0 and ours == sum(rows) == 6 * T
                else:
                    assert 0.2 * T < blank_frames < 0.8 * T
                    assert sum(rows) < ours <= sum(rows) + blank_frames


class TestTemplateShape:
    """_template takes the one frame shape runs replay: each hypothesis
    closed with blank, or emitted one token after a hypothesis that closed
    with blank and holds that one's cached child. Frames built by hand at
    frame 5, from the start state and its cached children for tokens 1 and
    2; any other shape goes frame by frame."""

    FRAME = 5

    def states(self):
        """The model, the start hypothesis, and the cached children: the
        start state's for token 1, and that child's for token 2."""
        model = random_model(tiny_config(), 0)
        root = start_hypothesis(model)
        (one,) = transducer._step_cached([root.state], [(0, 1)], model)
        (one_two,) = transducer._step_cached([one], [(0, 2)], model)
        return model, root, one, one_two

    def test_one_token_after_a_closer(self):
        model, root, one, _ = self.states()
        hyps = [root, Hypothesis(Prefix(root.prefix, 1, self.FRAME), -1.0, one)]
        src, toks = transducer._template(hyps, self.FRAME, 2, model)[:2]
        assert list(src) == [0, 0] and toks == ((), (1,))

    @pytest.mark.parametrize("closer", [False, True])
    def test_two_tokens_go_frame_by_frame(self, closer):
        # with `closer`, a hypothesis that emitted 1 before the frame closed
        # in it: the two-token prefix extends it by one token, by tokens
        model, root, one, one_two = self.states()
        prefix = Prefix(Prefix(root.prefix, 1, self.FRAME), 2, self.FRAME)
        hyps = [root, Hypothesis(prefix, -2.0, one_two)]
        if closer:
            hyps.insert(1, Hypothesis(Prefix(root.prefix, 1, self.FRAME - 1), -1.0, one))
        assert transducer._template(hyps, self.FRAME, len(hyps), model) is None

    def test_token_after_an_emitter_goes_frame_by_frame(self):
        # "a" emitted before the frame, then 2 in it; its parent prefix
        # equals, by tokens, the hypothesis that emitted "a" in the frame
        model, root, one, one_two = self.states()
        hyps = [root, Hypothesis(Prefix(root.prefix, 1, self.FRAME), -1.0, one),
                Hypothesis(Prefix(Prefix(root.prefix, 1, self.FRAME - 1), 2, self.FRAME),
                           -2.0, one_two)]
        assert transducer._template(hyps, self.FRAME, 3, model) is None


def cache_models():
    """(model, frames) pairs for the child cache: tiny models from emitting
    to blank-heavy (with blank bias 3 or 4, SRS at t_sil 1 or 2 fires
    between reuses), the desk model, the desk model with the bench's blank
    bias 1.5, and the tied model of equivalence_models. Regimes that emit
    on every frame reuse nothing and get fewer frames."""
    models = []
    for seed, bias, T in ((1, 0.0, 8), (1, 4.0, 24), (3, 4.0, 24), (4, 3.0, 24)):
        model = random_model(tiny_config(), seed)
        model.joint.out_bias[model.config.vocab.blank_id] += bias
        models.append((model, T))
    desk, blank = (random_model(ModelConfig.desk_scale(), 7) for _ in range(2))
    blank.joint.out_bias[blank.config.vocab.blank_id] += 1.5
    return models + [(desk, 4), (blank, 12), (equivalence_models()[-1], 16)]


def live_children(hyps):
    """Cached children reachable from the states of `hyps`, through each
    state's cache and its cached children's, each state counted once."""
    seen, stack, n = set(), [h.state for h in hyps], 0
    while stack:
        state = stack.pop()
        if id(state) in seen:  # every state stays reachable from `hyps`
            continue
        seen.add(id(state))
        kids = state.children or {}
        n += len(kids)
        stack.extend(kids.values())
    return n


def prune_only_outputs():
    """The desk model with the bench's blank bias and its encoder output on
    random features: every frame keeps the all-blank prefix and three of
    its one-token children, and no round after the first grows."""
    from sparse_rnnt.attention import MaskPolicy
    from sparse_rnnt.encoder import encode
    from sparse_rnnt.frontend import FeatureMatrix

    model = random_model(ModelConfig.desk_scale(), 7)
    model.joint.out_bias[model.config.vocab.blank_id] += 1.5
    rng = np.random.default_rng(0)
    f = FeatureMatrix(rng.normal(size=(1200, model.config.feat_dim)), 0.01, 0.025)
    return model, encode(f, model, MaskPolicy.local())[0]


def tie_outputs():
    """A tiny model whose tokens 1 and 2 lead the non-blank children and
    tie exactly on some frames only, and its encoder output. The tokens'
    embeddings are equal and their joint.out columns differ in row 0
    alone, a joint input fed by encoder dim 0 alone. That dim is positive,
    so 2 beats 1, except on frames where it is 0: there the token tie-break
    decides, at the beam boundary or among the survivors."""
    model = random_model(tiny_config(), 0)
    jw = model.joint
    model.prediction.embedding[2] = model.prediction.embedding[1]
    jw.enc_proj[:, 0] = 0.0
    jw.enc_proj[0, 0] = 1.0
    jw.pred_proj[:, 0] = jw.bias[0] = 0.0
    jw.out[:, 2] = jw.out[:, 1]
    jw.out[0, 2] += 1.0
    jw.out_bias[1] = jw.out_bias[2] = jw.out_bias.max() + 1.0
    jw.out_bias[model.config.vocab.blank_id] = jw.out_bias.max() + 0.5
    h = np.random.default_rng(0).normal(size=(40, model.config.encoder.model_dim))
    h[:, 0] = np.abs(h[:, 0])
    h[[13, 14, 29, 39], 0] = 0.0
    return model, EncoderOutputs(h, 0.04)


class TestChildCache:
    """beam_search_step steps each (parent state, token) once, with the
    bits of the uncached search."""

    @pytest.mark.parametrize("t_sil", [None, 1, 2])
    def test_identical_to_uncached_search(self, t_sil, monkeypatch):
        # the eager step recomputes every child and row with the oracle
        # kernels; SRS resets fall between reuses of a state's children
        reuses = []
        real = transducer._step_cached

        def spy(states, kids, model):
            # a reuse: a (state, token) already in the parent's cache, or
            # repeated within the call
            pairs = [(states[a], k) for a, k in kids]
            reuses.append(any(k in (state.children or {}) or (state, k) in pairs[:j]
                              for j, (state, k) in enumerate(pairs)))
            return real(states, kids, model)

        monkeypatch.setattr(transducer, "_step_cached", spy)
        log = event_log(monkeypatch)
        beams = spy_rows(monkeypatch, "_best", lambda args: beam_of(args[0]))
        srs = None if t_sil is None else SrsParams(t_sil)
        resets = reused_after_reset = reset_runs = 0
        for seed, (model, T) in enumerate(cache_models()):
            out = enc_outputs(np.random.default_rng(seed), model, T)
            for beam in (2, 4, 8):
                eager, since = [start_hypothesis(model)], None

                def step(h_i, hyps, i):
                    want = eager_beam_search_step(h_i, eager, beam, model, i)
                    hyps = beam_search_step(h_i, hyps, beam, model, frame_idx=i)
                    assert_same_hyps(hyps, want, i)
                    eager[:] = [h for h, _ in want]
                    return hyps

                for _, hyps, fired in srs_frames(out, model, beam, srs, step):
                    if fired:
                        eager[:] = reset_prediction_states(eager, model)
                        resets, since = resets + 1, len(reuses)
                reused_after_reset += since is not None and any(reuses[since:])
                best = transducer._best(hyps)
                want = transducer.Transcript(best.tokens, best.frames, best.log_prob)
                del log[:]
                got = decode_with_srs(out, model, beam=beam, srs=srs)
                reset_runs += runs_ended_by_reset(log)
                assert same_transcript(got, want), (beam, srs)
                assert beams[-1] == beam_of(hyps)  # the whole beam, in rank order
                assert same_transcript(frame_by_frame_decode(out, model, beam, srs), want)
        assert any(reuses)
        if t_sil is not None:
            # the decode's runs at beam > 1 end where SRS fires
            assert resets >= 10 and reused_after_reset >= 3 and reset_runs > 0

    def test_mid_frame_children_reused_on_later_frames(self, monkeypatch):
        # Every round steps children through their parents' caches, so a
        # state stepped mid-frame keeps its children into later frames: on a
        # mixed beam-8 decode, a child stepped on frame f from a parent
        # stepped in round >= 2 of f is reused on a later frame
        at = {"frame": -1, "round": 0}
        born = {}  # (frame, round) of each stepped state
        real_round, real_predict = transducer._expand_round, transducer.predict_step
        real_step = transducer._step_cached

        def round_spy(*args, **kwargs):
            frame = args[5]
            at["round"] = at["round"] + 1 if frame == at["frame"] else 1
            at["frame"] = frame
            return real_round(*args, **kwargs)

        def predict_spy(*args):
            kids = real_predict(*args)
            born.update((kid, (at["frame"], at["round"])) for kid in kids)
            return kids

        reused = []

        def step_spy(states, kids, model):
            for a, k in kids:
                kid = (states[a].children or {}).get(k)
                if kid is not None:
                    (pf, pr), (kf, _) = born[states[a]], born[kid]
                    reused.append(pr >= 2 and pf == kf < at["frame"])
            return real_step(states, kids, model)

        monkeypatch.setattr(transducer, "_expand_round", round_spy)
        monkeypatch.setattr(transducer, "predict_step", predict_spy)
        monkeypatch.setattr(transducer, "_step_cached", step_spy)
        model = random_model(ModelConfig.desk_scale(), 7)
        model.joint.out_bias[model.config.vocab.blank_id] += 1.0
        out = enc_outputs(np.random.default_rng(0), model, 24)
        decode_with_srs(out, model, beam=8, srs=None)
        assert any(reused)

    def test_same_prefix_same_state(self, monkeypatch):
        # Without SRS a prefix's prediction state is a function of its
        # tokens. The merge keeps one state per prefix and the cache hands
        # back a child stepped on an earlier frame, so both rely on it.
        # Checked on every hypothesis entering or leaving a round, against
        # the first one seen with its tokens in the decode.
        seen = {}
        compared = [0]

        def check(*beams):
            # each beam is rows: (prefixes, states, costs)
            for prefixes, states, _ in beams:
                for prefix, state in zip(prefixes, states):
                    first_prefix, first = seen.setdefault(prefix.tokens(), (prefix, state))
                    compared[0] += first_prefix is not prefix
                    assert np.array_equal(first.hidden, state.hidden)
                    assert np.array_equal(first.cell, state.cell)
                    assert np.array_equal(first.proj, state.proj)

        real = transducer._expand_round

        def spy(frame_proj, finished, actives, *args, **kwargs):
            check(finished, actives)
            out = real(frame_proj, finished, actives, *args, **kwargs)
            check(*out)
            return out

        monkeypatch.setattr(transducer, "_expand_round", spy)
        rng = np.random.default_rng(31)
        for config, seed in ((tiny_config(), 5), (ModelConfig.desk_scale(), 7)):
            for bias in (0.0, 1.17, 1.5):
                model = random_model(config, seed)
                model.joint.out_bias[model.config.vocab.blank_id] += bias
                out = enc_outputs(rng, model, 12)
                for beam in (2, 4, 8):
                    seen.clear()
                    decode_with_srs(out, model, beam=beam, srs=None)
        assert compared[0] > 1000

    def test_prune_only_rows(self, monkeypatch):
        # Each frame re-expands the same carried states with the same
        # tokens: the LSTM steps each (state, token) pair once, counted by
        # value within a reset period. Frames 0 and 1 go alone (four joint
        # calls: frame 1's closing round scores its three carried states
        # again); every later frame is prune-only, so they go in runs of
        # 1, 2, 4, ... frames, one joint call each, scoring the 4 carried
        # states on each frame. Only a run cut short scores frames twice.
        # An emitter is re-made every frame, so SRS never fires, at t_sil 15
        # or 1; test_identical_to_uncached_search has resets at beam > 1.
        model, out = prune_only_outputs()
        period = [0]
        pairs = []
        real_step, real_reset = transducer.predict_step, transducer.reset_prediction_states

        def step(tokens, hidden, cell, model):
            pairs.extend((period[0], k, h.tobytes(), c.tobytes())
                         for k, h, c in zip(tokens, hidden, cell))
            return real_step(tokens, hidden, cell, model)

        def reset(hyps, model):
            period[0] += 1
            return real_reset(hyps, model)

        monkeypatch.setattr(transducer, "predict_step", step)
        monkeypatch.setattr(transducer, "reset_prediction_states", reset)
        joint_rows = spy_rows(monkeypatch, "joint", joint_rows_of)
        steps = spy_rows(monkeypatch, "beam_search_step", lambda args: 1)
        beams = spy_rows(monkeypatch, "_best", lambda args: beam_of(args[0]))
        for srs in (SrsParams(t_sil=15), SrsParams(t_sil=1), None):
            del pairs[:], joint_rows[:], steps[:]
            got = decode_with_srs(out, model, beam=4, srs=srs)
            assert got.token_ids == () and period[0] == 0
            assert len(pairs) == len(set(pairs)) == 4  # start symbol + 3 children
            assert len(joint_rows) <= 4 + math.ceil(math.log2(out.length))
            assert 4 * out.length <= sum(joint_rows) <= 4 * out.length + max(joint_rows)
            assert len(steps) < out.length / 20  # the runs took the rest
            got_beam = beams[-1]
            assert same_transcript(got, frame_by_frame_decode(out, model, 4, srs))
            assert got_beam == beams[-1]

    @pytest.mark.parametrize("t_sil", [None, 1, 2])
    def test_state_invariants(self, t_sil):
        # after every frame each state's projection is its hidden vector's;
        # right after a reset every hypothesis holds one new zero state,
        # with nothing cached on it
        srs = None if t_sil is None else SrsParams(t_sil)
        resets = 0
        for seed, (model, T) in enumerate(cache_models()):
            out = enc_outputs(np.random.default_rng(seed), model, T)
            W = model.joint.pred_proj
            for beam in (2, 4, 8):
                for _, hyps, fired in srs_frames(out, model, beam, srs):
                    if fired:
                        state = hyps[0].state
                        assert all(h.state is state for h in hyps)
                        assert state.children is None
                        assert not state.hidden.any() and not state.cell.any()
                        resets += 1
                    for h in hyps:
                        assert np.array_equal(h.state.proj, h.state.hidden @ W)
        assert resets >= 10 or t_sil is None

    def test_many_resets_keep_the_uncached_bits(self):
        # after a reset every hypothesis holds one zero state; a decode with
        # a reset every few frames keeps the uncached search's bits
        model = random_model(tiny_config(), 3)
        model.joint.out_bias[model.config.vocab.blank_id] += 4.0
        out = enc_outputs(np.random.default_rng(0), model, 200)
        srs, beam = SrsParams(t_sil=1), 4

        def eager(h_i, hyps, i):
            return [h for h, _ in eager_beam_search_step(h_i, hyps, beam, model, i)]

        resets = 0
        for _, hyps, fired in srs_frames(out, model, beam, srs, eager):
            resets += fired
        best = transducer._best(hyps)
        want = transducer.Transcript(best.tokens, best.frames, best.log_prob)
        got = decode_with_srs(out, model, beam=beam, srs=srs)
        assert resets > 40 and len(got.token_ids) > 0
        assert same_transcript(got, want)

    def test_cache_bounded(self):
        # a mixed regime with SRS off, so states live long and carried
        # states keep growing children: after every frame the cached
        # children reachable from the beam stay within beam * (V - 1)
        model = random_model(tiny_config(), 1)
        model.joint.out_bias[model.config.vocab.blank_id] += 1.5
        out = enc_outputs(np.random.default_rng(3), model, 2000)
        V, beam = len(model.config.vocab), 4
        live = [live_children(hyps) for _, hyps, _ in srs_frames(out, model, beam, None)]
        assert max(live) <= beam * (V - 1)
        assert max(live) > V - 1  # more than one state holds a cache


def planted_dense_outputs():
    """The planted model (tests/planted.py) and its `dense` encoder output
    on the one-burst 4 s clip: any token pushes blank up, so a hypothesis
    that emits in a frame meets the one carried on its prefix, and at beam 2
    and 4 the frame-by-frame search merges."""
    from planted import burst_wav, planted_model
    from sparse_rnnt.attention import MaskPolicy
    from sparse_rnnt.encoder import encode
    from sparse_rnnt.pipeline import parse_segmentation, prepare_input

    model = planted_model()
    ((_, f, _),) = prepare_input(model, burst_wav(4), parse_segmentation("none"))
    return model, encode(f, model, MaskPolicy.dense())[0]


def saturated_outputs():
    """A tiny 29-token model that emits the cap on every frame, and 12
    random frames."""
    model = random_model(tiny_config(vocab_size=29), 3)
    model.joint.out_bias[model.config.vocab.blank_id] -= 20.0
    return model, enc_outputs(np.random.default_rng(5), model, 12)


class TestPrefixDeterminesState:
    """With SRS off, a prefix's prediction state is a function of its
    tokens: after every frame each hypothesis holds the state the oracle
    LSTM reaches over its tokens from the start symbol, bit for bit. The
    merge keeps one state per prefix and the child cache hands back states
    stepped on earlier frames and rounds, so both rely on it."""

    @pytest.mark.parametrize("beam", [2, 4])
    @pytest.mark.parametrize("inputs", [saturated_outputs, planted_dense_outputs],
                             ids=["saturated", "merging"])
    def test_state_is_the_oracle_over_the_tokens(self, inputs, beam, monkeypatch):
        model, out = inputs()
        merges = spy_rows(monkeypatch, "_logsumexp", lambda args: 1)
        W = model.joint.pred_proj
        oracle = {(): oracle_predict_step(None, LstmState.zeros(model.config.pred_dim), model)}

        def oracle_of(tokens):
            if tokens not in oracle:
                _, state = oracle_of(tokens[:-1])
                oracle[tokens] = oracle_predict_step(tokens[-1], state, model)
            return oracle[tokens]

        for _, hyps, _ in srs_frames(out, model, beam, None):
            for h in hyps:
                g, want = oracle_of(h.tokens)
                assert h.state.hidden.tobytes() == want.hidden.tobytes()
                assert h.state.cell.tobytes() == want.cell.tobytes()
                assert h.state.proj.tobytes() == (g @ W).tobytes()
        if inputs is saturated_outputs:
            assert len(hyps[0].tokens) == transducer.MAX_SYMBOLS * out.length
        else:
            assert merges  # the input has the merges the rule is about

    @given(st.integers(0, 999), st.integers(1, 4), st.integers(5, 30),
           st.sampled_from([0.0, 1.0, 2.0]))
    def test_same_tokens_same_state_across_frames(self, seed, beam, T, blank_bias):
        # on tiny random models, from saturated to mostly blank: every
        # hypothesis returned on any frame holds the bits of every other
        # with its tokens, however and on whichever frame it was reached.
        # Under SRS a carried zero state is the exception (TestSrsMergeState)
        model = random_model(tiny_config(), seed)
        model.joint.out_bias[model.config.vocab.blank_id] += blank_bias
        out = enc_outputs(np.random.default_rng(seed), model, T)
        seen = {}
        for _, hyps, _ in srs_frames(out, model, beam, None):
            for h in hyps:
                bits = h.state.hidden.tobytes(), h.state.cell.tobytes()
                assert seen.setdefault(h.tokens, bits) == bits


class TestRanked:
    """`_ranked` against a full sort of every candidate on (-score, tokens),
    given the costs -score: the one rule that picks each round's survivors
    and the final hypothesis."""

    @given(st.lists(st.tuples(st.integers(-3, 0), st.lists(st.integers(0, 2), max_size=2)),
                    min_size=1, max_size=10),
           st.integers(1, 12), st.sets(st.integers(0, 9)))
    def test_equals_a_full_sort(self, cands, k, dropped):
        scores = np.array([float(s) for s, _ in cands])
        tokens = [tuple(t) for _, t in cands]
        costs = -scores
        order = np.argsort(costs, kind="stable")
        order = order[~np.isin(order, list(dropped))]  # merged candidates
        want = sorted(order.tolist(), key=lambda p: (-scores[p], tokens[p]))[:k]
        assert transducer._ranked(order, costs, k, tokens.__getitem__) == want

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_a_nan_loses_no_candidate(self, k):
        costs = -np.array([-1.0, np.nan, -1.0, np.nan])
        order = np.argsort(costs, kind="stable")
        got = transducer._ranked(order, costs, k, lambda p: ())
        assert len(got) == min(k, 4) and len(set(got)) == len(got)

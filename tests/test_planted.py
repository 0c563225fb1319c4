"""The paper's two mechanisms on the planted model (tests/planted.py).

The fixture stands in for a trained model: its weights are set by hand so
that a `dense` mask averages a burst indicator over the whole file while a
`local` band averages it over about 3 s, and so that any token pushes blank
up until the silence reset (SRS) zeroes the prediction state. These tests
pin what the decoder does with it, counted per burst and not per file,
since a token count cannot tell a deletion from an insertion. They are no
evidence about the paper's 27.6 % CER reduction.
"""

import pytest

from planted import burst_of, burst_wav, planted_model
from sparse_rnnt.attention import LOCAL_W, parse_policy
from sparse_rnnt.encoder import encode
from sparse_rnnt.pipeline import DecodeOptions, SegmentationSpec, decode_waveform, prepare_input
from sparse_rnnt.transducer import (SrsParams, _best, beam_search_step, check_blank_token,
                                    reset_prediction_states, start_hypothesis)

BURSTS = {4: 1, 10: 2, 30: 6}  # bursts in a file of this many seconds


@pytest.fixture(scope="module")
def model():
    return planted_model()


def decode(model, seconds, policy, beam=1, srs=True):
    opts = DecodeOptions(policy=parse_policy(policy, LOCAL_W), beam=beam,
                         srs=SrsParams() if srs else None)
    return decode_waveform(model, burst_wav(seconds), opts)


def bursts_with_a_token(times) -> set[int]:
    return {burst_of(t) for t in times} - {None}


@pytest.mark.parametrize("seconds", [10, 30])
def test_dense_deletes_every_burst_of_a_long_file(model, seconds):
    # dense averages the indicator over the whole file, where gaps outweigh
    # bursts 3 : 2, so no burst lifts the token above blank
    times = [t.time for t in decode(model, seconds, "dense").tokens]
    assert bursts_with_a_token(times) == set()


def test_dense_emits_on_a_one_burst_clip(model):
    # the deletions come from the file's length: a 4 s clip is half burst
    times = [t.time for t in decode(model, 4, "dense").tokens]
    assert bursts_with_a_token(times) == {0}


@pytest.mark.parametrize("seconds", [4, 10, 30])
def test_local_emits_in_every_burst(model, seconds):
    times = [t.time for t in decode(model, seconds, "local").tokens]
    assert bursts_with_a_token(times) == set(range(BURSTS[seconds]))


@pytest.mark.parametrize("seconds", [4, 10, 30])
def test_without_srs_a_file_emits_once(model, seconds):
    # the first token's state pushes blank up for the rest of the file
    assert len(decode(model, seconds, "local", srs=False).tokens) == 1


@pytest.mark.parametrize("beam", [1, 4])
def test_sgm3_equals_local(model, beam):
    # with w_q = 0 every score equals its row's mean, so the strict
    # above-mean set is empty and the global mask adds no key
    local = decode(model, 30, "local", beam)
    assert local.tokens and decode(model, 30, "local+sgm3", beam) == local


def best_emitted_nothing(hyps, i) -> bool:
    """The alternative trigger: the best hypothesis emitted nothing."""
    return _best(hyps).prefix.frame != i


def frame_by_frame(h, model, beam, silent, t_sil=SrsParams().t_sil):
    """One beam_search_step per frame; SRS fires after more than t_sil
    frames in a row that `silent` calls silent. With check_blank_token,
    the decoder's trigger (no hypothesis emitted), this is
    tests_oracles.frame_by_frame_decode."""
    hyps, run = [start_hypothesis(model)], 0
    for i in range(h.length):
        hyps = beam_search_step(h.h[i], hyps, beam, model, frame_idx=i)
        run = run + 1 if silent(hyps, i) else 0
        if run > t_sil:
            hyps = reset_prediction_states(hyps, model)
            run = 0
    return _best(hyps)


@pytest.fixture(scope="module")
def encoded_30s(model):
    """The planted 30 s file's encoder output and start time, per policy."""
    ((_, f, start),) = prepare_input(model, burst_wav(30), SegmentationSpec())
    return {policy: (encode(f, model, parse_policy(policy, LOCAL_W))[0], start)
            for policy in ("dense", "local")}


@pytest.mark.parametrize("trigger,beam,policy,want", [
    (check_blank_token, 4, "local", (5, 2, 5)),
    (check_blank_token, 4, "dense", (0, 1, 0)),
    (best_emitted_nothing, 4, "local", (23, 24, 6)),
    (best_emitted_nothing, 4, "dense", (23, 24, 6)),
    (check_blank_token, 1, "local", (13, 6, 6)),
    (best_emitted_nothing, 1, "local", (13, 6, 6)),
    (check_blank_token, 1, "dense", (0, 0, 0)),
    (best_emitted_nothing, 1, "dense", (0, 0, 0)),
], ids=["today-b4-local", "today-b4-dense", "best-b4-local", "best-b4-dense",
        "today-b1-local", "best-b1-local", "today-b1-dense", "best-b1-dense"])
def test_srs_trigger_verdict(model, encoded_30s, trigger, beam, policy, want):
    # (tokens in bursts, tokens in gaps, bursts with a token) of 6 bursts.
    # Today's trigger keeps dense's deletions visible and puts few tokens
    # in gaps. Firing when only the best hypothesis is silent resets about
    # once per token at beam 4, so half its tokens fall in gaps and every
    # burst gets one under dense too: it hides the deletion the paper is
    # about. At beam 1 the best hypothesis is the only one, and the two
    # triggers agree.
    h, start = encoded_30s[policy]
    best = frame_by_frame(h, model, beam, trigger)
    times = [start + frame * h.frame_rate for frame in best.frames]
    in_burst = sum(burst_of(t) is not None for t in times)
    assert (in_burst, len(times) - in_burst, len(bursts_with_a_token(times))) == want

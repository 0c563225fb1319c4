import numpy as np
import pytest

from sparse_rnnt import segmentation
from sparse_rnnt.errors import DataError, ParameterError
from sparse_rnnt.frontend import HOP, WINDOW, Waveform, frame_lengths, frame_start
from sparse_rnnt.pipeline import SegmentationSpec, parse_segmentation
from sparse_rnnt.segmentation import (
    Segment,
    TimedToken,
    VadConfig,
    _frame_energies_db,
    doi_merge,
    doi_split,
    epd_split,
)
from tests_oracles import oracle_epd_split, oracle_frame_energies_db


class TestDoiSplit:
    def test_short_utterance_single_window(self):
        segs = doi_split(10.0, 20.0, 2.0)
        assert len(segs) == 1
        s = segs[0]
        assert (s.start, s.end, s.core_start, s.core_end) == (0.0, 10.0, 0.0, 10.0)

    def test_worked_example(self):
        segs = doi_split(50.0, 20.0, 2.0)
        assert [(s.start, s.end) for s in segs] == [(0, 20), (16, 36), (32, 50)]
        assert [(s.core_start, s.core_end) for s in segs] == [
            (0, 18), (18, 34), (34, 50)]

    def test_zero_overlap_abutting(self):
        segs = doi_split(30.0, 10.0, 0.0)
        assert [(s.start, s.end) for s in segs] == [(0, 10), (10, 20), (20, 30)]
        for s in segs:
            assert s.core_start == s.start and s.core_end == s.end

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            doi_split(10.0, 4.0, 2.0)
        with pytest.raises(ParameterError):
            doi_split(0.0, 20.0, 2.0)
        with pytest.raises(ParameterError):
            doi_split(10.0, 20.0, -1.0)
        for length in (float("inf"), float("nan")):
            with pytest.raises(ParameterError, match="doi length must be finite"):
                doi_split(10.0, length, 2.0)

    @pytest.mark.parametrize("doi_length", [8, 18, 20, 28, 38, 48, 58])
    def test_cores_partition_random_durations(self, doi_length, rng):
        for _ in range(20):
            duration = float(rng.uniform(0.5, 200.0))
            segs = doi_split(duration, float(doi_length), 2.0)
            assert segs[0].core_start == 0.0
            assert segs[-1].core_end == duration
            for a, b in zip(segs, segs[1:]):
                assert a.core_end == pytest.approx(b.core_start, abs=1e-9)
            total = sum(s.core_end - s.core_start for s in segs)
            assert total == pytest.approx(duration, abs=1e-6)
            hop = doi_length - 4.0
            for a, b in zip(segs, segs[1:]):
                assert b.start - a.start == pytest.approx(hop)
            for s in segs:
                assert s.duration <= doi_length + 1e-9


class TestDoiMerge:
    def test_single_segment_passthrough(self):
        seg = Segment(0.0, 10.0, 0.0, 10.0)
        tokens = [TimedToken(1, 0.5), TimedToken(2, 9.9)]
        assert doi_merge([(seg, tokens)]) == tokens

    def test_boundary_token_owned_once(self):
        segs = doi_split(36.0, 20.0, 2.0)
        tok = TimedToken(5, 17.5)
        results = [(segs[0], [tok]), (segs[1], [TimedToken(5, 17.5)])]
        merged = doi_merge(results)
        assert len(merged) == 1
        assert merged[0].time == 17.5

    def test_identity_decoder_round_trip(self, rng):
        # synthetic decoder emitting one token per second; the merge must
        # reproduce the unsegmented stream with no boundary dups or losses
        for doi_length in (8, 18, 20, 28, 38, 48, 58):
            duration = float(rng.uniform(5.0, 150.0))
            times = np.arange(0.25, duration, 1.0)
            segs = doi_split(duration, float(doi_length), 2.0)
            results = []
            for seg in segs:
                inside = [TimedToken(int(t), float(t)) for t in times
                          if seg.start <= t < seg.end]
                results.append((seg, inside))
            merged = doi_merge(results)
            assert [m.time for m in merged] == list(times)

    def test_missing_segment_rejected(self):
        segs = doi_split(50.0, 20.0, 2.0)
        with pytest.raises(DataError):
            doi_merge([(segs[0], []), (segs[2], [])])

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            doi_merge([])


def tone(duration, sr=16000, freq=440.0, amp=0.3):
    t = np.arange(int(duration * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestEpdSplit:
    def test_pure_silence_empty(self):
        w = Waveform(np.zeros(16000), 16000)
        assert epd_split(w) == []

    def test_tone_silence_tone(self):
        sr = 16000
        sig = np.concatenate([tone(1.0, sr), np.zeros(sr), tone(1.0, sr)])
        segs = epd_split(Waveform(sig, sr), VadConfig(min_silence=0.5))
        assert len(segs) == 2
        assert segs[0].start == pytest.approx(0.0, abs=0.1)
        assert segs[0].end == pytest.approx(1.0, abs=0.1)
        assert segs[1].start == pytest.approx(2.0, abs=0.1)
        assert segs[1].end == pytest.approx(3.0, abs=0.1)

    def test_short_gap_not_split(self):
        sr = 16000
        sig = np.concatenate([tone(1.0, sr), np.zeros(sr // 10), tone(1.0, sr)])
        segs = epd_split(Waveform(sig, sr), VadConfig(min_silence=0.5))
        assert len(segs) == 1

    def test_forced_split_of_long_segment(self):
        sr = 16000
        cfg = VadConfig(max_segment=2.0)
        segs = epd_split(Waveform(tone(3.0, sr), sr), cfg)
        assert len(segs) == 2
        assert all(s.duration <= 2.0 + 1e-6 for s in segs)
        assert segs[0].end == pytest.approx(segs[1].start)

    def test_ordered_non_overlapping_within_bounds(self, rng):
        sr = 8000
        pieces = []
        for _ in range(4):
            pieces.append(tone(rng.uniform(0.3, 1.0), sr))
            pieces.append(np.zeros(int(rng.uniform(0.4, 1.0) * sr)))
        sig = np.concatenate(pieces)
        w = Waveform(sig, sr)
        segs = epd_split(w, VadConfig(min_silence=0.3))
        for s in segs:
            assert 0.0 <= s.start < s.end <= w.duration + 1e-9
        for a, b in zip(segs, segs[1:]):
            assert a.end <= b.start + 1e-9

    def test_cores_equal_segments(self):
        sr = 16000
        segs = epd_split(Waveform(tone(1.0, sr), sr))
        for s in segs:
            assert s.core_start == s.start and s.core_end == s.end

    def test_frame_must_be_shorter_than_gaps(self):
        # a frame that outlasts min_silence or max_segment would make
        # intervals or forced pieces overlap
        for fields in (dict(min_silence=WINDOW), dict(min_silence=0.01),
                       dict(min_segment=0.0, max_segment=WINDOW),
                       dict(min_segment=0.0, max_segment=0.02)):
            with pytest.raises(ParameterError, match="frame"):
                VadConfig(**fields)
        VadConfig(min_silence=0.0251)
        VadConfig(min_silence=0.0251, min_segment=0.0, max_segment=0.0251)

    @pytest.mark.parametrize("tight", [False, True])
    def test_identical_to_per_frame_oracle(self, tight, monkeypatch):
        # blocks of 7 frames, so every case's energies cross block edges
        monkeypatch.setattr(segmentation, "_ENERGY_BLOCK", 7)
        split = rejected = 0
        for seed in range(120):
            w, fields = bursty_case(np.random.default_rng([seed, tight]), tight)
            if WINDOW >= min(fields["min_silence"], fields["max_segment"]):
                with pytest.raises(ParameterError, match="frame"):
                    VadConfig(**fields)
                rejected += 1
                continue
            cfg = VadConfig(**fields)
            assert np.array_equal(_frame_energies_db(w), oracle_frame_energies_db(w))
            segs = epd_split(w, cfg)
            assert segs == oracle_epd_split(w, cfg)
            split += len(segs) > 1
            # the oracle sorts its segments; these come out in order, apart
            assert all(a.end <= b.start for a, b in zip(segs, segs[1:]))
        assert rejected == 0 if tight else rejected < 60
        assert split > 60

    def test_short_max_segment_fuzz(self):
        # accepted configs with max_segment and min_silence just over the
        # 25 ms frame, on audio that ends in a burst: forced pieces reach
        # the last frame, and frame times must follow the whole-sample hop
        for seed in range(300):
            rng = np.random.default_rng([seed, 17])
            sr = int(rng.choice([8000, 11025, 16000, 22050]))
            pieces = []
            while sum(map(len, pieces)) < rng.uniform(0.3, 1.5) * sr:
                pieces += [rng.normal(0.0, 10 ** rng.uniform(-3.0, -0.5),
                                      int(rng.uniform(0.005, 0.2) * sr)),
                           rng.normal(0.0, 10 ** rng.uniform(-6.0, -4.0),
                                      int(rng.uniform(0.005, 0.2) * sr))]
            w = Waveform(np.concatenate(pieces[:-1]), sr)
            max_segment = rng.uniform(1.01, 2.0) * WINDOW
            cfg = VadConfig(energy_threshold_db=rng.uniform(-55.0, -30.0),
                            min_silence=rng.uniform(1.01, 8.0) * WINDOW,
                            min_segment=rng.uniform(0.0, max_segment),
                            max_segment=max_segment)
            segs = epd_split(w, cfg)
            assert all(0.0 <= x.start < x.end <= w.duration for x in segs), seed
            assert all(a.end <= b.start for a, b in zip(segs, segs[1:])), seed

    def test_burst_at_the_end_of_a_22k_file_is_kept(self):
        # at 22.05 kHz the 10 ms hop is 220 samples, not 220.5; in 120 s the
        # nominal hop would put the last burst past the end of the audio
        bounds = {}
        for sr in (16000, 22050):
            sig = np.zeros(120 * sr)
            for a, b in ((10.0, 10.5), (119.75, 120.0)):
                sig[int(a * sr) : int(b * sr)] = 0.1 * np.random.default_rng(sr).normal(
                    size=int(b * sr) - int(a * sr))
            bounds[sr] = [(x.start, x.end) for x in epd_split(Waveform(sig, sr))]
        assert len(bounds[22050]) == len(bounds[16000]) == 2
        assert np.allclose(bounds[22050], bounds[16000], rtol=0, atol=HOP)
        assert 119.7 < bounds[22050][1][0] < bounds[22050][1][1] <= 120.0

    @pytest.mark.parametrize("sr", [8000, 11025, 16000, 22050])
    def test_starts_are_frame_starts(self, sr):
        # a segment starts where its first frame does, as the same float:
        # the frontend's frame t starts at t * hop / sr, which at 11.025
        # and 22.05 kHz is not t * 10 ms
        rng = np.random.default_rng(sr)
        sig = np.concatenate([np.zeros(sr // 2)] + [
            np.r_[0.1 * rng.normal(size=int(rng.uniform(0.3, 1.0) * sr)),
                  np.zeros(int(rng.uniform(0.4, 0.8) * sr))] for _ in range(6)])
        w = Waveform(sig, sr)
        win, hop = frame_lengths(sr)
        segs = epd_split(w)
        assert len(segs) == 6
        for x in segs:
            lo, hi = int(round(x.start * sr)), int(round(x.end * sr))
            assert lo % hop == 0 and x.start == frame_start(lo // hop, sr)
            # and ends where a frame does, or at the end of the audio
            assert (hi - win) % hop == 0 or x.end == w.duration

    @pytest.mark.parametrize("sr", [8000, 16000, 44100, 48000])
    def test_default_hop_is_whole_samples(self, sr):
        # so at these rates frame times are those of the nominal hop
        assert frame_start(1, sr) == HOP
        assert frame_start(12345, sr) == 12345 * HOP


def bursty_case(rng, tight):
    """Noise bursts and quiet gaps at random levels and lengths, then 0.4 s
    of silence, with the fields of a random VadConfig. With `tight`, gaps
    are short and min_silence just longer than the 25 ms frame, so speech
    runs' intervals nearly touch."""
    sr = int(rng.choice([8000, 11025, 16000]))
    longest_gap = 0.05 if tight else 0.4
    pieces = []
    while sum(map(len, pieces)) < rng.uniform(1.0, 4.0) * sr:
        pieces.append(rng.normal(0.0, 10 ** rng.uniform(-3.0, -0.5),
                                 int(rng.uniform(0.01, 0.25) * sr)))
        pieces.append(rng.normal(0.0, 10 ** rng.uniform(-6.0, -4.0),
                                 int(rng.uniform(0.01, longest_gap) * sr)))
    w = Waveform(np.concatenate(pieces + [np.zeros(int(0.4 * sr))]), sr)
    max_segment = rng.uniform(0.05, 1.0)
    fields = dict(energy_threshold_db=rng.uniform(-55.0, -30.0),
                  min_silence=rng.uniform(0.005, 0.2),
                  min_segment=rng.uniform(0.0, max_segment),
                  max_segment=max_segment)
    if tight:
        # on half the cases forced pieces are just longer than a frame too
        fields["min_silence"] = rng.uniform(1.0, 1.25) * WINDOW * (1 + 1e-9)
        if rng.random() < 0.5:
            fields["max_segment"] = rng.uniform(1.0, 1.25) * WINDOW * (1 + 1e-9)
            fields["min_segment"] = rng.uniform(0.0, fields["max_segment"])
    return w, fields


def test_segment_invariants_enforced():
    with pytest.raises(ParameterError):
        Segment(1.0, 2.0, 0.5, 1.5)


class TestSegmentationSpec:
    def test_bad_doi_length_is_parameter_error(self):
        for spec in ("doi:abc", "doi:", "doi:1e"):
            with pytest.raises(ParameterError):
                parse_segmentation(spec)

    @pytest.mark.parametrize("length, overlap", [
        (3.0, 2.0), (4.0, 2.0), (10.0, -0.5), (20.0, float("nan")),
        (float("nan"), 2.0)])
    def test_doi_window_must_exceed_both_overlaps(self, length, overlap):
        with pytest.raises(ParameterError):
            SegmentationSpec("doi", doi_length=length, overlap=overlap)

    def test_negative_overlap_rejected_for_every_kind(self):
        for kind in ("none", "epd"):
            with pytest.raises(ParameterError):
                SegmentationSpec(kind, overlap=-1.0)

    def test_valid_specs(self):
        assert parse_segmentation("doi:4.5", 2.0).doi_length == 4.5
        assert SegmentationSpec("doi", doi_length=1.0, overlap=0.0).overlap == 0.0

import numpy as np
import pytest

from sparse_rnnt import segmentation
from sparse_rnnt.errors import DataError, ParameterError
from sparse_rnnt.frontend import HOP, WINDOW, Waveform, frame_lengths, frame_start
from sparse_rnnt.pipeline import SegmentationSpec, parse_segmentation
from sparse_rnnt.segmentation import (
    MAX_SEGMENT,
    Segment,
    TimedToken,
    _frame_energies_db,
    doi_merge,
    doi_split,
    epd_split,
)
from tests_oracles import oracle_epd_split, oracle_frame_energies_db


class TestDoiSplit:
    def test_short_utterance_single_window(self):
        segs = doi_split(10.0, 20.0)
        assert len(segs) == 1
        s = segs[0]
        assert (s.start, s.end, s.core_start, s.core_end) == (0.0, 10.0, 0.0, 10.0)

    def test_worked_example(self):
        segs = doi_split(50.0, 20.0)
        assert [(s.start, s.end) for s in segs] == [(0, 20), (16, 36), (32, 50)]
        assert [(s.core_start, s.core_end) for s in segs] == [
            (0, 18), (18, 34), (34, 50)]

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            doi_split(10.0, 4.0)
        with pytest.raises(ParameterError):
            doi_split(0.0, 20.0)
        with pytest.raises(ParameterError, match="doi length must be finite"):
            doi_split(10.0, float("inf"))
        with pytest.raises(ParameterError, match="a length of at least 4.01 s"):
            doi_split(10.0, float("nan"))

    @pytest.mark.parametrize("doi_length", [8, 18, 20, 28, 38, 48, 58])
    def test_cores_partition_random_durations(self, doi_length, rng):
        for _ in range(20):
            duration = float(rng.uniform(0.5, 200.0))
            segs = doi_split(duration, float(doi_length))
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
        segs = doi_split(36.0, 20.0)
        tok = TimedToken(5, 17.5)
        results = [(segs[0], [tok]), (segs[1], [TimedToken(5, 17.5)])]
        merged = doi_merge(results)
        assert len(merged) == 1
        assert merged[0].time == 17.5

    def test_final_core_keeps_a_token_at_its_end(self):
        # cores are half-open, so a token at an inner core's end belongs
        # to the next core; the last core also keeps one at its end
        first, last = doi_split(36.0, 20.0)
        ends = [TimedToken(1, first.core_end), TimedToken(2, last.core_end)]
        assert doi_merge([(first, ends[:1]), (last, ends[1:])]) == ends[1:]

    def test_identity_decoder_round_trip(self, rng):
        # synthetic decoder emitting one token per second; the merge must
        # reproduce the unsegmented stream with no boundary dups or losses
        for doi_length in (8, 18, 20, 28, 38, 48, 58):
            duration = float(rng.uniform(5.0, 150.0))
            times = np.arange(0.25, duration, 1.0)
            segs = doi_split(duration, float(doi_length))
            results = []
            for seg in segs:
                inside = [TimedToken(int(t), float(t)) for t in times
                          if seg.start <= t < seg.end]
                results.append((seg, inside))
            merged = doi_merge(results)
            assert [m.time for m in merged] == list(times)

    def test_missing_segment_rejected(self):
        segs = doi_split(50.0, 20.0)
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
        segs = epd_split(Waveform(sig, sr))
        assert len(segs) == 2
        assert segs[0].start == pytest.approx(0.0, abs=0.1)
        assert segs[0].end == pytest.approx(1.0, abs=0.1)
        assert segs[1].start == pytest.approx(2.0, abs=0.1)
        assert segs[1].end == pytest.approx(3.0, abs=0.1)

    def test_short_gap_not_split(self):
        sr = 16000
        sig = np.concatenate([tone(1.0, sr), np.zeros(sr // 10), tone(1.0, sr)])
        segs = epd_split(Waveform(sig, sr))
        assert len(segs) == 1

    def test_forced_split_of_long_segment(self):
        # a 45 s run is cut once, at its quietest frame between 15 and 30 s:
        # up to 2 * MAX_SEGMENT the fewest-pieces window is the old one
        sr = 8000
        w = Waveform(0.1 * np.random.default_rng(45).normal(size=45 * sr), sr)
        assert [(x.start, x.end) for x in epd_split(w)] == [
            (0.0, frame_start(1881, sr)),
            (frame_start(1881, sr), frame_start(4497, sr) + WINDOW)]

    @pytest.mark.parametrize("seconds", [61, 100, 200])
    def test_over_long_run_is_cut_into_the_fewest_pieces(self, seconds):
        # ceil(d / MAX_SEGMENT) abutting pieces, none longer than
        # MAX_SEGMENT plus one hop (a cut at the midpoint once kept 30.5,
        # 50 and 100 s pieces here)
        sr = 8000
        rng = np.random.default_rng(seconds)
        w = Waveform(0.1 * rng.normal(size=seconds * sr), sr)
        segs = epd_split(w)
        assert len(segs) == int(np.ceil(seconds / MAX_SEGMENT))
        assert segs[0].start == 0.0
        assert segs[-1].end == frame_start(seconds * 100 - 3, sr) + WINDOW
        assert all(a.end == b.start for a, b in zip(segs, segs[1:]))
        assert all(x.duration <= MAX_SEGMENT + frame_start(1, sr) for x in segs)

    def test_ordered_non_overlapping_within_bounds(self, rng):
        sr = 8000
        pieces = []
        for _ in range(4):
            pieces.append(tone(rng.uniform(0.3, 1.0), sr))
            pieces.append(np.zeros(int(rng.uniform(0.4, 1.0) * sr)))
        sig = np.concatenate(pieces)
        w = Waveform(sig, sr)
        segs = epd_split(w)
        for s in segs:
            assert 0.0 <= s.start < s.end <= w.duration + 1e-9
        for a, b in zip(segs, segs[1:]):
            assert a.end <= b.start + 1e-9

    def test_cores_equal_segments(self):
        sr = 16000
        segs = epd_split(Waveform(tone(1.0, sr), sr))
        for s in segs:
            assert s.core_start == s.start and s.core_end == s.end

    def test_fixed_settings(self):
        # the oracle reads these too, so they are pinned here
        assert (segmentation.ENERGY_THRESHOLD_DB, segmentation.MIN_SILENCE,
                segmentation.MIN_SEGMENT, MAX_SEGMENT) == (-40.0, 0.3, 0.2, 30.0)

    @pytest.mark.parametrize("long_runs", [False, True])
    def test_identical_to_per_frame_oracle(self, long_runs, monkeypatch):
        # blocks of 7 frames, so every case's energies cross block edges
        monkeypatch.setattr(segmentation, "_ENERGY_BLOCK", 7)
        cases = 12 if long_runs else 150
        split = forced = 0
        for seed in range(cases):
            rng = np.random.default_rng([seed, long_runs])
            w = long_run_case(rng) if long_runs else bursty_case(rng)
            assert np.array_equal(_frame_energies_db(w), oracle_frame_energies_db(w))
            segs = epd_split(w)
            assert segs == oracle_epd_split(w), seed
            split += len(segs) > 1
            forced += sum(a.end == b.start for a, b in zip(segs, segs[1:]))
            # the oracle sorts its segments; these come out in order, apart
            assert all(a.end <= b.start for a, b in zip(segs, segs[1:]))
            hop = frame_start(1, w.sample_rate)
            assert all(x.duration <= MAX_SEGMENT + hop for x in segs)
        assert split > 0.6 * cases
        # only runs over MAX_SEGMENT are cut with no gap between pieces
        assert forced > 2 * cases if long_runs else forced == 0

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


def bursty_case(rng):
    """Noise bursts and quiet gaps around the 0.2 s MIN_SEGMENT and 0.3 s
    MIN_SILENCE, at levels either side of the threshold, then 0.4 s of
    silence, at one of six sample rates."""
    sr = int(rng.choice([8000, 11025, 16000, 22050, 44100, 48000]))
    pieces = []
    while sum(map(len, pieces)) < rng.uniform(1.0, 5.0) * sr:
        pieces.append(rng.normal(0.0, 10 ** rng.uniform(-2.5, -0.5),
                                 int(rng.uniform(0.02, 0.4) * sr)))
        pieces.append(rng.normal(0.0, 10 ** rng.uniform(-6.0, -2.5),
                                 int(rng.uniform(0.02, 0.5) * sr)))
    return Waveform(np.concatenate(pieces + [np.zeros(int(0.4 * sr))]), sr)


def long_run_case(rng):
    """One or two speech runs of 20 to 200 s at 8 kHz, whose level drifts
    so their quietest frames fall anywhere, each followed by 1 s of
    silence."""
    sr = 8000
    pieces = [np.zeros(int(rng.uniform(0.0, 1.0) * sr))]
    for _ in range(int(rng.integers(1, 3))):
        n = int(rng.uniform(20.0, 200.0) * sr)
        level = 10 ** np.interp(np.arange(n), np.linspace(0, n, 8),
                                rng.uniform(-1.5, -0.5, 8))
        pieces += [level * rng.normal(size=n), np.zeros(sr)]
    return Waveform(np.concatenate(pieces), sr)


def test_segment_invariants_enforced():
    with pytest.raises(ParameterError):
        Segment(1.0, 2.0, 0.5, 1.5)


class TestSegmentationSpec:
    def test_bad_doi_length_is_parameter_error(self):
        for spec in ("doi:abc", "doi:", "doi:1e"):
            with pytest.raises(ParameterError):
                parse_segmentation(spec)

    @pytest.mark.parametrize("length", [3.0, 4.0, 4.005, float("nan")])
    def test_doi_window_must_exceed_both_overlaps(self, length):
        # a window holds both DOI_OVERLAPs and at least one frame hop more
        with pytest.raises(ParameterError):
            SegmentationSpec("doi", doi_length=length)

    @pytest.mark.parametrize("length", [
        3.0, 4.0, float("nan"), float("inf"), None, 0.009, 4.005])
    def test_doi_split_checks_as_the_spec_does(self, length):
        # one check, so one message, before any input is read or when cut
        with pytest.raises(ParameterError) as spec:
            SegmentationSpec("doi", doi_length=length)
        with pytest.raises(ParameterError) as split:
            doi_split(10.0, length)
        assert str(split.value) == str(spec.value)

    def test_doi_length_rejected_unless_doi(self):
        for kind in ("none", "epd"):
            with pytest.raises(ParameterError, match="takes no doi length"):
                SegmentationSpec(kind, doi_length=5.0)

    def test_valid_specs(self):
        assert segmentation.DOI_OVERLAP == 2.0
        assert 2 * segmentation.DOI_OVERLAP + HOP == 4.01
        assert parse_segmentation("doi:4.5").doi_length == 4.5
        assert SegmentationSpec("doi", doi_length=4.01).doi_length == 4.01
        assert SegmentationSpec("epd").doi_length is None

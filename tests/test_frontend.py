import struct
import tracemalloc

import numpy as np
import pytest

from sparse_rnnt import frontend
from sparse_rnnt.errors import AudioFormatError, DataError, EmptyInputError, ShapeError
from sparse_rnnt.frontend import (
    HOP,
    FeatureMatrix,
    NormalizationStats,
    Waveform,
    atomic_output,
    compute_stats,
    frame_lengths,
    frame_start,
    frames_within,
    hz_to_mel,
    log_mel_spectrogram,
    mel_filterbank,
    mel_to_hz,
    normalize_global,
    read_feature_file,
    read_wav,
    write_feature_file,
    write_wav,
)
from tests_oracles import oracle_log_mel_spectrogram


class TestWavIo:
    def test_silence_file(self, tmp_path):
        path = tmp_path / "sil.wav"
        write_wav(path, Waveform(np.zeros(16000), 16000))
        w = read_wav(path)
        assert w.sample_rate == 16000
        assert len(w.samples) == 16000
        assert np.array_equal(w.samples, np.zeros(16000))

    def test_extreme_sample_scaling(self, tmp_path):
        path = tmp_path / "ext.wav"
        write_wav(path, Waveform(np.array([32767 / 32768, -1.0]), 8000))
        w = read_wav(path)
        assert np.array_equal(w.samples, [32767 / 32768, -1.0])

    def test_round_trip_random_buffer(self, tmp_path, rng):
        quantized = rng.integers(-32768, 32768, size=500) / 32768.0
        path = tmp_path / "rt.wav"
        write_wav(path, Waveform(quantized, 16000))
        assert np.array_equal(read_wav(path).samples, quantized)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioFormatError):
            read_wav(tmp_path / "nope.wav")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFFgarbage-not-a-wave-file")
        with pytest.raises(AudioFormatError):
            read_wav(path)

    def test_fmt_chunk_overrunning_data_header(self, tmp_path):
        # the fmt chunk declares 32 bytes, so the audio bytes are read as a
        # chunk header whose size sends wave's seek out of range
        header = bytes.fromhex(
            "52494646a43e000057415645666d74202000000001000100803e0000"
            "007d003c0200100064617461803e0000"
        )
        path = tmp_path / "bad.wav"
        path.write_bytes(header + b"\x01" * 200)
        with pytest.raises(AudioFormatError, match="malformed"):
            read_wav(path)

    @pytest.mark.parametrize("channels,present", [(1, 16001), (2, 16002)])
    def test_data_chunk_ending_inside_a_frame(self, tmp_path, channels, present):
        # the data chunk declares 32000 bytes per channel; fewer are present
        declared = 32000 * channels
        fmt = struct.pack("<IHHIIHH", 16, 1, channels, 16000, 32000 * channels,
                          2 * channels, 16)
        path = tmp_path / "short.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 36 + declared) + b"WAVEfmt "
                         + fmt + b"data" + struct.pack("<I", declared)
                         + bytes(present))
        with pytest.raises(AudioFormatError, match="truncated"):
            read_wav(path)

    def test_two_channels_read_as_the_first(self, tmp_path, rng):
        import wave

        pcm = rng.integers(-32768, 32768, size=(500, 2)).astype("<i2")
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(pcm.tobytes())
        w = read_wav(path)
        assert w.sample_rate == 16000
        assert np.array_equal(w.samples, pcm[:, 0] / 32768.0)

    def test_zero_length_payload(self, tmp_path):
        import wave

        path = tmp_path / "empty.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
        with pytest.raises(AudioFormatError):
            read_wav(path)


def test_read_wav_peak_is_one_float_copy(tmp_path, rng):
    # the PCM bytes (2 B per sample) and one float64 copy scaled in place
    # (8 B); a second, scaled copy would take the peak to 18 B per sample
    n = 60 * 16000
    path = tmp_path / "long.wav"
    write_wav(path, Waveform(rng.uniform(-0.5, 0.5, size=n), 16000))
    tracemalloc.start()
    try:
        w = read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w.samples) == n
    assert peak < 12 * n


class TestLogMel:
    def test_pure_tone_concentrates_energy(self):
        sr = 16000
        t = np.arange(sr) / sr
        tone = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
        feats = log_mel_spectrogram(Waveform(tone, sr), 40)
        argmax = np.argmax(feats.frames, axis=1)
        assert np.all(argmax == argmax[0])
        # locate the expected bin from the mel-scale formula
        edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2), 42))
        centers = edges[1:-1]
        expected = np.argmin(np.abs(centers - 1000.0))
        assert abs(int(argmax[0]) - expected) <= 1

    def test_digital_silence_hits_floor(self):
        feats = log_mel_spectrogram(Waveform(np.zeros(8000), 16000))
        assert np.allclose(feats.frames, np.log(1e-10))

    def test_amplitude_doubling_log_linearity(self, rng):
        sr = 16000
        x = rng.uniform(-0.2, 0.2, size=sr)
        f1 = log_mel_spectrogram(Waveform(x, sr), 30)
        f2 = log_mel_spectrogram(Waveform(2 * x, sr), 30)
        # keep away from the log floor
        keep = f1.frames > np.log(1e-10) + 2
        diff = (f2.frames - f1.frames)[keep]
        assert np.max(np.abs(diff - np.log(4.0))) < 1e-6

    def test_too_short_input(self):
        with pytest.raises(EmptyInputError):
            log_mel_spectrogram(Waveform(np.zeros(100), 16000))

    def test_frame_count_formula(self, rng):
        for sr in (51, 8000, 11025, 16000, 22050, 44100, 48000):
            win, hop = frame_lengths(sr)
            for _ in range(15):
                n = int(rng.integers(win, 3 * sr // 2 + win))
                feats = log_mel_spectrogram(Waveform(rng.normal(size=n) * 0.1, sr), 8)
                assert feats.num_frames == 1 + (n - win) // hop

    @pytest.mark.parametrize("sr", [8000, 11025, 16000, 22050, 44100, 48000])
    def test_stamped_with_the_frames_as_cut(self, rng, sr):
        # at 11.025 and 22.05 kHz the 10 ms hop rounds to whole samples that
        # are not 10 ms (the window, at 44.1 kHz too); the features say when
        # frames were cut, and frame t starts t hops of samples in
        win, hop = frame_lengths(sr)
        f = log_mel_spectrogram(Waveform(rng.normal(size=sr) * 0.1, sr), 8)
        assert (f.frame_shift, f.frame_length) == (hop / sr, win / sr)
        assert frame_start(250, sr) == 250 * hop / sr
        assert (f.frame_shift == HOP) == (sr not in (11025, 22050))

    @pytest.mark.parametrize("sr", [1, 20, 50])
    def test_rate_that_cannot_be_framed(self, sr):
        with pytest.raises(DataError, match=f"sample rate {sr} Hz cannot be framed"):
            log_mel_spectrogram(Waveform(np.zeros(1000), sr))

    def test_deterministic(self, rng):
        w = Waveform(rng.uniform(-0.5, 0.5, size=6000), 16000)
        a = log_mel_spectrogram(w)
        b = log_mel_spectrogram(w)
        assert np.array_equal(a.frames, b.frames)

    @pytest.mark.parametrize("num_mels", [16, 80])
    def test_blocks_match_per_frame_loop(self, rng, num_mels):
        # frame counts on both sides of the block edges, silence included
        B = frontend._FRAME_BLOCK
        for T in (1, 2, B - 1, B, B + 1, 2 * B, 2 * B + 1, 3 * B + 7):
            n = 400 + 160 * (T - 1) + int(rng.integers(0, 160))
            samples = rng.uniform(-0.5, 0.5, size=n)
            samples[: n // 3] = 0.0
            w = Waveform(samples, 16000)
            got = log_mel_spectrogram(w, num_mels)
            assert got.num_frames == T
            assert np.array_equal(got.frames, oracle_log_mel_spectrogram(w, num_mels, 512))

    @pytest.mark.parametrize("sr,n_fft", [(8000, 512), (16000, 512), (22050, 1024),
                                          (44100, 2048), (48000, 2048)])
    def test_fft_holds_the_window(self, rng, sr, n_fft):
        # the FFT is the least power of two that holds the 25 ms window, at
        # least 512: 8 and 16 kHz features keep the bits of a 512-point FFT
        w = Waveform(rng.uniform(-0.5, 0.5, size=sr // 2), sr)
        got = log_mel_spectrogram(w, 40)
        assert got.num_frames == 48
        assert np.array_equal(got.frames, oracle_log_mel_spectrogram(w, 40, n_fft))

    def test_memory_bounded_on_long_input(self, rng):
        # 80 s at 80 mels: the output is 5.1 MB, and one block's temporaries
        # add about 1 MB; framing and transforming all 7,998 frames at
        # once would hold about 75 MB
        w = Waveform(rng.uniform(-0.5, 0.5, size=80 * 16000), 16000)
        tracemalloc.start()
        try:
            feats = log_mel_spectrogram(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feats.num_frames == 7998
        assert peak < 8e6


class TestFramesWithin:
    """frames_within against a scan of every frame: t is kept when its
    samples [t * hop, t * hop + win) lie inside [round(start * sr),
    round(end * sr))."""

    @staticmethod
    def scan(start, end, sr):
        win, hop = frame_lengths(sr)
        lo, hi = round(start * sr), round(end * sr)
        return [t for t in range(max(hi, 0) // hop + 1)
                if t * hop >= lo and t * hop + win <= hi]

    @pytest.mark.parametrize("sr", [8000, 11025, 16000, 22050, 44100, 48000])
    def test_matches_scan(self, rng, sr):
        win, hop = frame_lengths(sr)
        spans = [(a, a + d) for a, d in rng.uniform(0.0, 3.0, size=(300, 2))]
        # bounds on a frame's first and last sample and one sample either
        # side; spans a sample short of a window, of no length, and reversed
        for t in (0, 1, 7, 250):
            for d in (-1, 0, 1):
                a = max(t * hop + d, 0) / sr
                spans += [(a, a + win / sr), (a, (t * hop + win + d) / sr),
                          (a, a + (win - 1) / sr), (a, a), (a, a - hop / sr)]
        kept = 0
        for start, end in spans:
            got = frames_within(start, end, sr)
            assert list(got) == self.scan(start, end, sr), (start, end)
            kept += len(got) > 0
        assert 0 < kept < len(spans)

    @pytest.mark.parametrize("sr", [8000, 11025, 22050, 48000])
    def test_whole_waveform_is_every_frame(self, rng, sr):
        n = int(rng.integers(sr, 2 * sr))
        f = log_mel_spectrogram(Waveform(rng.normal(size=n) * 0.1, sr), 8)
        assert frames_within(0.0, n / sr, sr) == range(f.num_frames)


class TestMelFilterbank:
    def test_nonnegative(self):
        fb = mel_filterbank(512, 16000, 40)
        assert np.all(fb >= 0.0)

    def test_no_dead_bins_inside_band(self):
        fb = mel_filterbank(512, 16000, 40)
        bin_freqs = np.arange(257) * 16000 / 512
        edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), 42))
        inside = (bin_freqs > edges[0]) & (bin_freqs < edges[-1])
        coverage = fb.sum(axis=0)
        assert np.all(coverage[inside] > 0.0)

    def test_mel_scale_round_trip(self):
        freqs = np.array([0.0, 440.0, 1000.0, 7999.0])
        assert np.allclose(mel_to_hz(hz_to_mel(freqs)), freqs)


class TestNormalization:
    def test_self_normalization(self, rng):
        f = FeatureMatrix(rng.normal(loc=3, scale=2, size=(50, 6)), 0.01, 0.025)
        out = normalize_global(f, compute_stats(f))
        assert np.max(np.abs(out.frames.mean(axis=0))) < 1e-9
        assert np.max(np.abs(out.frames.std(axis=0) - 1.0)) < 1e-6

    def test_identity_stats(self, rng):
        f = FeatureMatrix(rng.normal(size=(10, 4)), 0.01, 0.025)
        out = normalize_global(f, NormalizationStats(np.zeros(4), np.ones(4)))
        assert np.array_equal(out.frames, f.frames)

    def test_hand_case(self):
        f = FeatureMatrix(np.array([[1.0], [3.0]]), 0.01, 0.025)
        out = normalize_global(f, NormalizationStats([2.0], [1.0]))
        assert np.array_equal(out.frames, [[-1.0], [1.0]])

    def test_dim_mismatch(self, rng):
        f = FeatureMatrix(rng.normal(size=(10, 4)), 0.01, 0.025)
        with pytest.raises(ShapeError):
            normalize_global(f, NormalizationStats(np.zeros(5), np.ones(5)))

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ShapeError):
            NormalizationStats(np.zeros(2), np.array([1.0, 0.0]))


class TestFeatureFile:
    def test_round_trip(self, tmp_path, rng):
        f = FeatureMatrix(rng.normal(size=(7, 3)), 0.01, 0.025)
        path = tmp_path / "feats.txt"
        write_feature_file(path, f)
        g = read_feature_file(path)
        assert np.array_equal(g.frames, f.frames)
        assert g.frame_shift == f.frame_shift
        assert g.frame_length == f.frame_length

    def test_truncated_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 0.01 0.025\n1 2\n3 4\n")
        with pytest.raises(DataError):
            read_feature_file(path)

    def test_non_numeric_value_names_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 0.01 0.025\n1 2\n3 x\n")
        with pytest.raises(DataError, match="row 1"):
            read_feature_file(path)

    def test_non_numeric_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("two 2 0.01 0.025\n1 2\n3 4\n")
        with pytest.raises(DataError, match="bad feature header 'two 2"):
            read_feature_file(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_row(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"3 2 0.01 0.025\n1 2\n3 4\n{value} 5\n")
        with pytest.raises(DataError, match="row 2"):
            read_feature_file(path)

    @pytest.mark.parametrize("times", ["nan 0.025", "inf 0.025", "-0.01 0.025",
                                       "0.01 0", "0.01 -inf"])
    def test_bad_header_times_rejected(self, tmp_path, times):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 2 {times}\n1 2\n3 4\n")
        with pytest.raises(DataError, match="frame_shift and frame_length must be finite"):
            read_feature_file(path)

    @pytest.mark.parametrize("head", ["0 -1", "0 -3", "0 0", "-1 2"])
    def test_bad_header_counts_rejected(self, tmp_path, head):
        path = tmp_path / "bad.txt"
        path.write_text(f"{head} 0.01 0.025\n")
        with pytest.raises(DataError, match=f"feature header '{head} "):
            read_feature_file(path)

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 0.01 0.025\n1 2 3\n4 5\n")
        with pytest.raises(DataError, match="row 0"):
            read_feature_file(path)


class TestAtomicOutput:
    def test_moved_into_place_when_the_block_ends(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_output(path) as fh:
            fh.write("naïve\n")
            assert not path.exists()
            assert (tmp_path / "out.txt.tmp").exists()
        assert path.read_bytes() == "naïve\n".encode("utf-8")
        with atomic_output(str(path), "wb") as fh:
            fh.write(b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_an_error_keeps_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(KeyboardInterrupt):
            with atomic_output(path) as fh:
                fh.write("half a row")
                raise KeyboardInterrupt
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_a_failed_move_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out"
        path.mkdir()
        with pytest.raises(OSError):
            with atomic_output(path) as fh:
                fh.write("row\n")
        assert path.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

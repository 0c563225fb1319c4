"""The pipeline frames each WAV once: segments take the frames of the
whole file that lie wholly inside them, and token times lie on its grid."""

import json

import numpy as np
import pytest

from conftest import tiny_config
from sparse_rnnt import pipeline
from sparse_rnnt.attention import MaskPolicy
from sparse_rnnt.cli import EXIT_OK, build_parser, main
from sparse_rnnt.errors import ParameterError
from sparse_rnnt.frontend import (
    Waveform,
    compute_stats,
    frame_lengths,
    frame_start,
    log_mel_spectrogram,
    normalize_global,
    write_wav,
)
from sparse_rnnt.model_io import ModelConfig, random_model, save_model
from sparse_rnnt.pipeline import (
    DecodeOptions,
    decode_file,
    parse_policy,
    parse_segmentation,
    prepare_input,
)
from sparse_rnnt.transducer import SrsParams

SEGMENTATIONS = ["none", "doi:20", "epd"]


def bursty(sr, seconds, seed=0):
    """Noise bursts of 0.3-2 s between near-silent gaps of 0.4-1 s."""
    rng = np.random.default_rng([sr, seed])
    pieces = [np.zeros(sr // 4)]
    while sum(map(len, pieces)) < seconds * sr:
        pieces.append(0.1 * rng.normal(size=int(rng.uniform(0.3, 2.0) * sr)))
        pieces.append(1e-5 * rng.normal(size=int(rng.uniform(0.4, 1.0) * sr)))
    return Waveform(np.concatenate(pieces)[: int(seconds * sr)], sr)


@pytest.fixture(scope="module")
def model():
    return random_model(tiny_config(), 12345)


class TestFramedOnce:
    @pytest.mark.parametrize("seg", SEGMENTATIONS)
    def test_one_log_mel_call_per_wav(self, model, tmp_path, monkeypatch, seg):
        paths = []
        for sr in (16000, 22050):
            paths.append(tmp_path / f"u{sr}.wav")
            write_wav(paths[-1], bursty(sr, 45.0))
        spec = parse_segmentation(seg)
        segments = [len(pipeline._segments_for(pipeline.read_wav(p), spec)) for p in paths]
        assert min(segments) > 1 or seg == "none"
        calls = []

        def spy(*args, real=pipeline.log_mel_spectrogram):
            calls.append(args[0].sample_rate)
            return real(*args)

        monkeypatch.setattr(pipeline, "log_mel_spectrogram", spy)
        opts = DecodeOptions(policy=parse_policy("local"), beam=1, segmentation=spec)
        for path in paths:
            decode_file(model, path, opts)
        assert calls == [16000, 22050]

    @pytest.mark.parametrize("seg", ["doi:20", "doi:4.5"])
    def test_doi_windows_read_the_whole_file_frames(self, model, seg):
        # at 16 kHz every window starts on a frame; its features before
        # normalisation are those of framing its samples alone, bit for bit
        sr, F = 16000, model.config.feat_dim
        w = bursty(sr, 50.0)
        win, hop = frame_lengths(sr)
        whole = log_mel_spectrogram(w, F)
        prepared = prepare_input(model, w, parse_segmentation(seg))
        assert len(prepared) > 2
        for s, f, start in prepared:
            lo, hi = int(round(s.start * sr)), int(round(s.end * sr))
            alone = log_mel_spectrogram(Waveform(w.samples[lo:hi], sr), F)
            assert lo % hop == 0 and start == s.start
            first = lo // hop
            assert np.array_equal(alone.frames,
                                  whole.frames[first : first + alone.num_frames])
            want = normalize_global(alone, compute_stats(alone))
            assert np.array_equal(f.frames, want.frames)

    @pytest.mark.parametrize("sr", [11025, 22050])
    def test_doi_window_starts_at_the_next_frame(self, model, sr):
        # a window takes the frames wholly inside its samples [lo, hi): the
        # first starts at or after lo, within one hop
        w = bursty(sr, 50.0)
        win, hop = frame_lengths(sr)
        prepared = prepare_input(model, w, parse_segmentation("doi:20"))
        late = 0
        for s, f, start in prepared:
            lo, hi = int(round(s.start * sr)), int(round(s.end * sr))
            first = -(-lo // hop)
            assert start == frame_start(first, sr)
            assert 0 <= start - s.start < hop / sr
            assert f.num_frames == (hi - win) // hop - first + 1
            late += start > s.start
        assert late > 0

    @pytest.mark.parametrize("seg", SEGMENTATIONS)
    def test_wav_shorter_than_a_window_decodes_to_nothing(self, model, tmp_path, seg):
        model_path, wav = tmp_path / "tiny.model", tmp_path / "short.wav"
        save_model(model, model_path)
        write_wav(wav, Waveform(0.1 * np.ones(frame_lengths(16000)[0] - 1), 16000))
        out = tmp_path / "hyps.tsv"
        assert main(["decode", "--model", str(model_path), str(wav),
                     "--segmentation", seg, "--out", str(out)]) == EXIT_OK
        assert out.read_text() == "short\t\n"


class TestTimeBase:
    """Token times lie on the file's frame grid: each is a whole number of
    hops of samples, over the rate. (Not of 4 hops, an encoder frame: an
    epd segment may start on any frame.)"""

    @pytest.mark.parametrize("sr", [11025, 16000, 22050])
    @pytest.mark.parametrize("seg", SEGMENTATIONS)
    def test_token_times_on_the_frame_grid(self, model, tmp_path, sr, seg):
        wav = tmp_path / "u.wav"
        write_wav(wav, bursty(sr, 30.0, seed=1))
        opts = DecodeOptions(policy=parse_policy("local"), beam=1,
                             segmentation=parse_segmentation(seg))
        res = decode_file(model, wav, opts)
        units = np.array([t.time for t in res.tokens]) * sr / frame_lengths(sr)[1]
        assert len(units) > 100 and units.max() > 2400
        assert np.abs(units - np.round(units)).max() < 1e-6

    def test_detail_times_round_the_grid(self, model, tmp_path):
        # --detail rounds times to 1 us, 5e-5 of an 11.025 kHz frame; each
        # is that rounding of a grid time
        model_path, wav = tmp_path / "tiny.model", tmp_path / "u.wav"
        save_model(model, model_path)
        sr = 11025
        write_wav(wav, bursty(sr, 30.0, seed=1))
        detail = tmp_path / "d.jsonl"
        assert main(["decode", "--model", str(model_path), str(wav), "--mask", "local",
                     "--beam", "1", "--segmentation", "doi:20",
                     "--out", str(tmp_path / "h.tsv"), "--detail", str(detail)]) == EXIT_OK
        times = [t["time"] for t in json.loads(detail.read_text())["tokens"]]
        step = frame_lengths(sr)[1] / sr
        assert len(times) > 100
        assert all(t == round(round(t / step) * step, 6) for t in times)


class TestDecodeDefaults:
    """Bare `decode` is DecodeOptions(): each decode flag takes its default
    from it, so the library and the CLI decode alike."""

    def test_flag_defaults_are_decode_options(self):
        want = DecodeOptions()
        parse = build_parser().parse_args
        decode = parse(["decode", "--model", "m", "u.wav"])
        sweep = parse(["sweep", "--model", "m", "u.wav", "--refs", "r", "--out", "o"])
        heatmap = parse(["heatmap", "--model", "m", "u.wav", "--layer", "0",
                         "--head", "0", "--out", "o"])
        for args in (decode, sweep):
            assert args.w == want.policy.w and args.beam == want.beam
            assert SrsParams(args.t_sil, args.srs) == want.srs
            assert args.overlap == want.segmentation.overlap
        assert parse_policy(decode.mask, decode.w) == want.policy
        assert parse_segmentation(decode.segmentation, decode.overlap) == want.segmentation
        assert parse_policy(heatmap.mask, heatmap.w) == want.policy
        assert want.srs == SrsParams(enabled=False) and SrsParams() == SrsParams(15, True)

    def test_library_and_cli_decode_alike(self, tmp_path):
        # 8 s of noise, near silence in the second half of every 2 s, on a
        # desk model that emits in the noise: with SRS on it decodes to 16
        # tokens and without to 3, so the two agree only if their defaults do
        sr = 16000
        x = np.random.default_rng(4).normal(0.0, 0.1, 8 * sr)
        x[np.arange(x.size) / sr % 2.0 >= 1.0] *= 1e-3
        wav, model_path, hyps = tmp_path / "u.wav", tmp_path / "m.model", tmp_path / "h.tsv"
        write_wav(wav, Waveform(x, sr))
        desk = random_model(ModelConfig.desk_scale(), 4)
        desk.joint.out_bias[desk.config.vocab.blank_id] += 1.25
        save_model(desk, model_path)
        assert main(["decode", "--model", str(model_path), str(wav), "--beam", "1",
                     "--out", str(hyps)]) == EXIT_OK
        text = decode_file(desk, wav, DecodeOptions(beam=1)).text
        assert hyps.read_text() == f"u\t{text}\n" and text == "fff"


@pytest.mark.parametrize("make", [
    lambda: DecodeOptions(beam=2.5), lambda: DecodeOptions(beam=True),
    lambda: SrsParams(t_sil=1.5), lambda: SrsParams(t_sil=0),
    lambda: SrsParams(enabled="no"), lambda: MaskPolicy.local(2.5),
    lambda: MaskPolicy.local(True), lambda: MaskPolicy.local(-1),
], ids=["float-beam", "bool-beam", "float-t-sil", "zero-t-sil", "str-enabled",
        "float-w", "bool-w", "negative-w"])
def test_option_types_checked(make):
    # an int field takes an int (not a bool), a bool field a bool
    with pytest.raises(ParameterError):
        make()

import dataclasses
import json
import re
import shlex
import signal
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
from sparse_rnnt import attention, cli, encoder, metrics
from sparse_rnnt.attention import format_sparsity_report, mask_stats, score_blocks
from sparse_rnnt.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, build_parser, main
from sparse_rnnt.errors import DataError
from sparse_rnnt.frontend import Waveform, frames_within, read_wav, write_wav
from sparse_rnnt.model_io import load_model, model_tensors, random_model, save_model
from sparse_rnnt.pipeline import (
    DecodeOptions,
    decode_file,
    decode_waveform,
    parse_policy,
    parse_segmentation,
    prepare_input,
)
from tests_oracles import rowwise_sets


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "desk.model"
    assert main(["gen-model", "--seed", "7", "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def wav_path(tmp_path_factory):
    sr = 16000
    rng = np.random.default_rng(99)
    t = np.arange(3 * sr) / sr
    sig = 0.25 * np.sin(2 * np.pi * 300 * t) * (1 + 0.5 * np.sin(2 * np.pi * 2 * t))
    sig += 0.02 * rng.normal(size=sig.shape)
    path = tmp_path_factory.mktemp("audio") / "utt1.wav"
    write_wav(path, Waveform(sig, sr))
    return path


class TestGenModel:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        assert main(["gen-model", "--seed", "3", "--out", str(a)]) == EXIT_OK
        assert main(["gen-model", "--seed", "3", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_config_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"encoder": {"num_layers": 2}}))
        out = tmp_path / "m.model"
        assert main(["gen-model", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        from sparse_rnnt.model_io import load_model

        assert load_model(out).config.encoder.num_layers == 2

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"encoder": {"conv_kernel": 4}}))
        code = main(["gen-model", "--config", str(cfg),
                     "--out", str(tmp_path / "m.model")])
        assert code == EXIT_CONFIG


    @pytest.mark.parametrize("text", [
        '{"encoder": {"subsample_stride": 0}}', '{"encoder": {"num_layers": -1}}',
        '{"encoder": {"bogus": 1}}', '{"bogus": 1}', '["encoder"]', '{"feat_dim": ',
        '{"encoder": {"num_heads": true}}', '{"encoder": {"use_sinusoidal_pe": "no"}}',
    ])
    def test_bad_config_file_one_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["gen-model", "--config", str(cfg),
                     "--out", str(tmp_path / "m.model")])
        assert code == EXIT_CONFIG
        assert len(capsys.readouterr().err.splitlines()) == 1


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def edit(manifest):
        for key in keys:
            manifest = manifest[key]
        manifest[last] = value
    return edit


def _drop(*keys):
    *keys, last = keys

    def edit(manifest):
        for key in keys:
            manifest = manifest[key]
        del manifest[last]
    return edit


def _alias_all(shape):
    def edit(manifest):
        same = [t for t in manifest["tensors"] if t["shape"] == list(shape)]
        for t in same:
            t["offset"] = same[0]["offset"]
    return edit


class TestDecode:
    def test_rerun_byte_identical(self, model_path, wav_path, tmp_path):
        outs = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for out in outs:
            code = main(["decode", "--model", str(model_path), str(wav_path),
                         "--out", str(out)])
            assert code == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        first = outs[0].read_text()
        assert first.startswith("utt1\t")

    def test_dense_equals_wide_local(self, model_path, wav_path, tmp_path):
        dense, local = tmp_path / "d.txt", tmp_path / "l.txt"
        main(["decode", "--model", str(model_path), str(wav_path),
              "--out", str(dense)])
        # a half-window covering every frame makes the local mask dense
        main(["decode", "--model", str(model_path), str(wav_path),
              "--mask", "local", "--w", "100000", "--out", str(local)])
        assert dense.read_text() == local.read_text()

    def test_doi_matches_unsegmented_on_short_input(self, model_path, wav_path,
                                                    tmp_path):
        plain, doi = tmp_path / "p.txt", tmp_path / "s.txt"
        main(["decode", "--model", str(model_path), str(wav_path),
              "--out", str(plain)])
        # 3 s input fits in one 20 s window, so the result must be identical
        main(["decode", "--model", str(model_path), str(wav_path),
              "--segmentation", "doi:20", "--out", str(doi)])
        assert plain.read_text() == doi.read_text()

    def test_detail_and_stats_outputs(self, model_path, wav_path, tmp_path):
        detail = tmp_path / "detail.jsonl"
        stats = tmp_path / "stats.txt"
        code = main(["decode", "--model", str(model_path), str(wav_path),
                     "--mask", "local+sgm3", "--w", "5",
                     "--out", str(tmp_path / "o.txt"),
                     "--detail", str(detail), "--stats", str(stats)])
        assert code == EXIT_OK
        rows = [json.loads(l) for l in detail.read_text().splitlines()]
        assert rows and rows[0]["id"] == "utt1"
        for tok in rows[0]["tokens"]:
            assert set(tok) == {"token", "time"}
        body = stats.read_text()
        assert "layer" in body and "head" in body
        # a second input gets its own block, counted from its own decode
        again = tmp_path / "utt2.wav"
        again.write_bytes(wav_path.read_bytes())
        assert main(["decode", "--model", str(model_path), str(wav_path), str(again),
                     "--mask", "local+sgm3", "--w", "5", "--out", str(tmp_path / "o.txt"),
                     "--stats", str(stats)]) == EXIT_OK
        assert stats.read_text() == body + body.replace("# utt1 ", "# utt2 ")

    @pytest.mark.parametrize("mask", ["dense", "local", "local+sgm1", "local+sgm2",
                                      "local+sgm3"])
    def test_stats_are_the_oracle_set_sizes(self, model_path, tmp_path, monkeypatch,
                                            mask):
        # a doi decode of four segments whose layers each span many blocks
        # of score_blocks: the --stats file is the report of the rowwise
        # oracle's set sizes, derived again from each layer's input
        wav = tmp_path / "long.wav"
        write_wav(wav, Waveform(0.1 * np.random.default_rng(8).normal(size=8 * 16000),
                                16000))
        monkeypatch.setattr(attention, "_BLOCK_SCORES", 1 << 10)
        inputs = []  # every layer's attention input, in order

        def spy(*args, real=encoder.sparse_attend):
            inputs.append(args[0])
            return real(*args)

        monkeypatch.setattr(encoder, "sparse_attend", spy)
        argv = ["decode", "--model", str(model_path), str(wav), "--mask", mask,
                "--w", "3", "--segmentation", "doi:5"]
        hyps, stats = tmp_path / "hyps.tsv", tmp_path / "stats.txt"
        assert main(argv + ["--out", str(hyps), "--stats", str(stats)]) == EXIT_OK
        model, policy = load_model(model_path), parse_policy(mask, 3)
        L = len(model.blocks)
        assert len(inputs) == 4 * L
        want = []
        for si in range(0, len(inputs), L):
            counts, global_counts = [], []
            for z, block in zip(inputs[si : si + L], model.blocks):
                assert len(list(score_blocks(z, block.mh.heads, policy))) > 2
                _, attended, global_ = rowwise_sets(z, block.mh, policy,
                                                    library_scores=True)
                counts.append(np.array([[len(s) for s in head] for head in attended]))
                global_counts.append(None if global_ is None else
                                     np.array([[len(s) for s in h] for h in global_]))
            want.append(f"# long segment {si // L}\n"
                        + format_sparsity_report(mask_stats(counts, global_counts)))
        assert stats.read_text() == "".join(want)
        # and --stats changes no transcript
        plain = tmp_path / "plain.tsv"
        assert main(argv + ["--out", str(plain)]) == EXIT_OK
        assert plain.read_bytes() == hyps.read_bytes()

    def test_missing_input_exit_io(self, model_path, tmp_path):
        code = main(["decode", "--model", str(model_path),
                     str(tmp_path / "nope.wav")])
        assert code == EXIT_IO

    def test_missing_model_exit_io(self, wav_path, tmp_path):
        code = main(["decode", "--model", str(tmp_path / "nope.model"),
                     str(wav_path)])
        assert code == EXIT_IO

    def test_bad_mask_exit_config(self, model_path, wav_path):
        code = main(["decode", "--model", str(model_path), str(wav_path),
                     "--mask", "banana"])
        assert code == EXIT_CONFIG

    def test_corrupt_feature_file_exit_data(self, model_path, tmp_path):
        feats = tmp_path / "bad.feats"
        feats.write_text("not a header\n1 2 3\n")
        code = main(["decode", "--model", str(model_path), str(feats)])
        assert code == EXIT_DATA


    @pytest.mark.parametrize("name,content,code", [
        ("bad.wav", b"RIFX\x00\x00\x00\x00WAVE", EXIT_IO),
        ("missing.wav", None, EXIT_IO),
        ("missing.feats", None, EXIT_IO),
        ("bad.feats", "not a header\n1 2 3\n", EXIT_DATA),
        # two frames of the desk model's 16 features: too short for one
        # encoder frame
        ("short.feats", "2 16 0.01 0.025\n" + ("0 " * 16 + "\n") * 2, EXIT_DATA),
        ("non-utf8.feats", b"bad\xff\xfe header\n", EXIT_DATA),
        # feature files are not normalised: 1.7e308 leaves the subsampler as
        # NaN with no numpy flag set, and 1e200 overflows a layer norm's square
        ("nan.feats", "60 16 0.01 0.025\n" + ("1.7e308 " * 16 + "\n") * 60, EXIT_DATA),
        ("overflow.feats", "60 16 0.01 0.025\n" + ("1e200 " * 16 + "\n") * 60, EXIT_DATA),
        ("narrow.feats", "60 15 0.01 0.025\n" + ("0.5 " * 15 + "\n") * 60, EXIT_DATA),
    ], ids=["bad-wav-header", "missing-wav", "missing-feats", "bad-feats", "short-feats",
            "non-utf8-feats", "nan-output-feats", "overflow-feats", "wrong-feat-dim-feats"])
    def test_per_file_error_names_path_once(self, model_path, tmp_path, capsys,
                                            name, content, code):
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        assert main(["decode", "--model", str(model_path), str(path)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
        assert err[0].count(str(path)) == 1

    def test_stereo_decodes_as_its_first_channel(self, model_path, wav_path, tmp_path,
                                                 capsys):
        import wave

        first = np.round(read_wav(wav_path).samples * 32768).astype("<i2")
        pcm = np.stack([first, -first[::-1]], axis=1)
        stereo, mono = tmp_path / "stereo" / "utt1.wav", tmp_path / "mono" / "utt1.wav"
        stereo.parent.mkdir()
        with wave.open(str(stereo), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(pcm.tobytes())
        mono.parent.mkdir()
        write_wav(mono, Waveform(first / 32768.0, 16000))
        # the random model's transcripts are one repeated token; the detail's
        # log-prob tells the channels apart
        decodes = []
        for path in (stereo, mono):
            detail = path.with_suffix(".jsonl")
            assert main(["decode", "--model", str(model_path), str(path), "--beam", "2",
                         "--detail", str(detail)]) == EXIT_OK
            decodes.append((capsys.readouterr().out, detail.read_text()))
        assert decodes[0] == decodes[1] and decodes[0][0].startswith("utt1\t")

    def test_huge_subsample_stride_decodes_at_once(self, tmp_path, capsys):
        # the shortest usable input is found in closed form, not by search
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"encoder": {"subsample_stride": 10**12}}))
        model = tmp_path / "m.model"
        assert main(["gen-model", "--config", str(cfg), "--out", str(model)]) == EXIT_OK
        wav = tmp_path / "one.wav"
        write_wav(wav, Waveform(np.zeros(16000), 16000))
        capsys.readouterr()

        def too_slow(signum, frame):
            pytest.fail("decode did not finish in 10 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(10)
        try:
            code = main(["decode", "--model", str(model), str(wav)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == EXIT_OK
        assert capsys.readouterr().out == "one\t\n"

    @pytest.mark.parametrize("flags", [
        ["--segmentation", "doi:abc"],
        ["--segmentation", "doi:3"],
        ["--segmentation", "doi:4.005"],
        ["--segmentation", "doi:nan"],
    ])
    def test_bad_segmentation_one_config_error(self, model_path, tmp_path,
                                               capsys, flags):
        # the inputs do not exist: exit 2 shows that none was read
        inputs = [str(tmp_path / "a.wav"), str(tmp_path / "b.wav")]
        code = main(["decode", "--model", str(model_path), *inputs, *flags])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_infinite_doi_length_is_a_config_error(self, model_path, wav_path,
                                                   capsys):
        # past the check, an infinite window's first hop offset is 0 * inf,
        # nan, and the file would fail on nan segment bounds
        code = main(["decode", "--model", str(model_path), str(wav_path),
                     "--segmentation", "doi:inf"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: doi length must be finite, got inf\n")

    @pytest.mark.parametrize("flags", [["--beam", "0"], ["--beam", "-3"]])
    def test_bad_beam_one_config_error_before_model(self, tmp_path, capsys,
                                                    flags):
        # neither the model nor the inputs exist: exit 2 shows none was read
        inputs = [str(tmp_path / "a.wav"), str(tmp_path / "b.wav")]
        code = main(["decode", "--model", str(tmp_path / "nope.model"),
                     *inputs, *flags])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    @pytest.mark.parametrize("head", ["0 -1", "0 -3"])
    def test_feature_header_without_dimension_exit_data(self, model_path, tmp_path,
                                                        capsys, head):
        feats = tmp_path / "x.feat"
        feats.write_text(f"{head} 0.01 0.025\n")
        code = main(["decode", "--model", str(model_path), str(feats)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"feature header '{head} " in err and "Traceback" not in err

    def test_out_onto_a_directory_exit_io(self, model_path, wav_path, tmp_path):
        out = tmp_path / "D"
        out.mkdir()
        code = main(["decode", "--model", str(model_path), str(wav_path),
                     "--out", str(out)])
        assert code == EXIT_IO
        assert sorted(p.name for p in tmp_path.iterdir()) == ["D"]

    @pytest.mark.parametrize("row", ["0.5 abc", "nan 0.5"])
    def test_bad_feature_value_exit_data(self, model_path, tmp_path, capsys, row):
        from sparse_rnnt.model_io import load_model

        F = load_model(model_path).config.feat_dim
        feats = tmp_path / "bad.feats"
        rows = [" ".join(["0.5"] * F)] * 20
        rows[7] = row + " 0.5" * (F - 2)
        feats.write_text(f"20 {F} 0.01 0.025\n" + "\n".join(rows) + "\n")
        code = main(["decode", "--model", str(model_path), str(feats)])
        assert code == EXIT_DATA
        assert "row 7" in capsys.readouterr().err

    @pytest.mark.parametrize("shift, code", [("1e308", EXIT_DATA), ("1e307", EXIT_DATA),
                                             ("1.0", EXIT_OK)])
    def test_feature_file_times_must_be_finite(self, model_path, tmp_path, capsys,
                                               shift, code):
        # 60 frames of 1e307 s overflow a float; token times would be inf or
        # NaN, and --detail would write them as invalid JSON
        F = load_model(model_path).config.feat_dim
        rng = np.random.default_rng(3)
        feats = tmp_path / "utt1.feats"
        feats.write_text(f"60 {F} {shift} 0.025\n" + "".join(
            " ".join(map(repr, row)) + "\n" for row in rng.normal(size=(60, F)).tolist()))
        detail = tmp_path / "d.jsonl"
        assert main(["decode", "--model", str(model_path), str(feats), "--beam", "1",
                     "--out", str(tmp_path / "h.tsv"), "--detail", str(detail)]) == code
        if code == EXIT_DATA:
            assert capsys.readouterr().err.startswith(f"error: {feats}: feature header")
            return

        def no_constant(name):
            raise ValueError(f"{name} in --detail")

        times = [t["time"] for t in json.loads(detail.read_text(),
                                               parse_constant=no_constant)["tokens"]]
        assert times and max(times) > 1.0

    def test_feature_shift_times_subsampling_must_be_finite(self, tmp_path, capsys):
        # one frame of 1e308 s passes the header check; a kernel-1 model
        # encodes it, and its time step is that shift times stride ** 2
        cfg = tiny_config()
        cfg = dataclasses.replace(cfg, encoder=dataclasses.replace(cfg.encoder,
                                                                   subsample_kernel=1))
        model = tmp_path / "k1.model"
        save_model(random_model(cfg, 1), model)
        feats = tmp_path / "utt1.feats"
        feats.write_text(f"1 {cfg.feat_dim} 1e308 0.025\n" + "0.5 " * cfg.feat_dim + "\n")
        assert main(["decode", "--model", str(model), str(feats), "--beam", "1",
                     "--out", str(tmp_path / "h.tsv"),
                     "--detail", str(tmp_path / "d.jsonl")]) == EXIT_DATA
        assert "overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda m: [m],
        _drop("blob_bytes"),
        _drop("tensors", 0, "name"),
        _set("config", "encoder", "num_layers", "4"),
        _set("config", "encoder", "bogus", 1),
        _set("tensors", 0, "offset", -8),
        _set("config", "encoder", "subsample_stride", 0),
        _set("config", "vocab", "tokens", []),
        _alias_all((32,)),
        _set("config", "encoder", "num_heads", True),
        # every file saved while the encoder had a sinusoidal-PE switch
        _set("config", "encoder", "use_sinusoidal_pe", False),
    ], ids=["json-list", "no-blob-bytes", "tensor-without-name", "str-num-layers",
            "unknown-encoder-key", "negative-offset", "zero-stride", "empty-vocab",
            "aliased-offsets", "bool-num-heads", "sinusoidal-pe-switch"])
    def test_malformed_manifest_exit_io(self, model_path, wav_path, tmp_path,
                                        capsys, edit):
        raw = model_path.read_bytes()
        sep = raw.index(b"\x00")
        manifest = json.loads(raw[:sep])
        manifest = edit(manifest) or manifest
        bad = tmp_path / "bad.model"
        bad.write_bytes(json.dumps(manifest).encode() + raw[sep:])
        code = main(["decode", "--model", str(bad), str(wav_path)])
        assert code == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"i/o error: {bad}:")

    @pytest.mark.parametrize("name,value", [("joint.out", np.nan),
                                            ("blocks.0.heads.1.w_k", np.inf)])
    def test_non_finite_model_tensor_exit_data(self, model_path, wav_path,
                                               tmp_path, capsys, name, value):
        model = load_model(model_path)
        model_tensors(model)[name][0, 0] = value
        bad = tmp_path / "bad.model"
        save_model(model, bad)
        code = main(["decode", "--model", str(bad), str(wav_path)])
        assert code == EXIT_DATA
        assert f"tensor {name} " in capsys.readouterr().err


class TestHeatmap:
    def test_export_square_csv(self, model_path, wav_path, tmp_path):
        out = tmp_path / "h.csv"
        code = main(["heatmap", "--model", str(model_path), str(wav_path),
                     "--layer", "0", "--head", "1", "--out", str(out)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        T = len(rows)
        assert all(len(r) == T for r in rows)
        for r in rows:
            assert sum(map(float, r)) == pytest.approx(1.0, abs=1e-9)

    def test_layer_out_of_range(self, model_path, wav_path, tmp_path):
        code = main(["heatmap", "--model", str(model_path), str(wav_path),
                     "--layer", "99", "--head", "0",
                     "--out", str(tmp_path / "h.csv")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [["--layer", "99", "--head", "0"],
                                       ["--layer", "0", "--head", "99"]])
    def test_out_of_range_checked_before_input(self, model_path, tmp_path, flags):
        code = main(["heatmap", "--model", str(model_path),
                     str(tmp_path / "nope.wav"), *flags,
                     "--out", str(tmp_path / "h.csv")])
        assert code == EXIT_CONFIG

    def test_does_not_decode(self, model_path, wav_path, tmp_path, monkeypatch):
        from sparse_rnnt import pipeline

        def no_decode(*args, **kwargs):
            raise AssertionError("heatmap must not run the decoder")

        monkeypatch.setattr(pipeline, "decode_with_srs", no_decode)
        out = tmp_path / "h.csv"
        code = main(["heatmap", "--model", str(model_path), str(wav_path),
                     "--layer", "3", "--head", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().count("\n") > 1

    @pytest.mark.parametrize("sr", [16000, 22050])
    def test_featurised_as_decode_featurises(self, model_path, tmp_path,
                                             monkeypatch, sr):
        # the layer input heatmap exports is the one decode --segmentation
        # none hands its observer
        wav = tmp_path / "u.wav"
        write_wav(wav, Waveform(0.1 * np.random.default_rng(sr).normal(size=2 * sr), sr))
        exported = []
        monkeypatch.setattr(cli, "export_heatmap",
                            lambda z, head, path: exported.append(z))
        assert main(["heatmap", "--model", str(model_path), str(wav), "--layer", "2",
                     "--head", "1", "--mask", "local", "--w", "3",
                     "--out", str(tmp_path / "h.csv")]) == EXIT_OK
        seen = []
        opts = DecodeOptions(policy=parse_policy("local", 3), beam=1,
                             segmentation=parse_segmentation("none"))
        decode_file(load_model(model_path), wav, opts, lambda z, *_: seen.append(z))
        assert len(exported) == 1 and len(seen) == len(load_model(model_path).blocks)
        assert np.array_equal(exported[0], seen[2])

    @pytest.mark.parametrize("name,content", [
        ("window.wav", Waveform(0.1 * np.ones(300), 16000)),
        # six frames: the desk model's subsampler needs seven
        ("frames.wav", Waveform(0.1 * np.ones(400 + 5 * 160), 16000)),
        ("frames.feats", "2 16 0.01 0.025\n" + ("0 " * 16 + "\n") * 2),
    ], ids=["shorter-than-a-window", "too-few-frames", "feature-file"])
    def test_too_short_to_encode_names_the_file(self, model_path, tmp_path, capsys,
                                                name, content):
        path, out = tmp_path / name, tmp_path / "h.csv"
        if isinstance(content, Waveform):
            write_wav(path, content)
        else:
            path.write_text(content)
        assert main(["heatmap", "--model", str(model_path), str(path), "--layer", "0",
                     "--head", "0", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {path}: ")
        assert err[0].count(str(path)) == 1
        assert not out.exists()

    def test_values_that_overflow_the_encoder_exit_data(self, model_path, tmp_path,
                                                        capsys):
        path, out = tmp_path / "huge.feats", tmp_path / "h.csv"
        path.write_text("60 16 0.01 0.025\n" + ("1.7e308 " * 16 + "\n") * 60)
        assert main(["heatmap", "--model", str(model_path), str(path), "--layer", "1",
                     "--head", "0", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {path}: ")
        assert not out.exists()

    def test_wrong_feature_dim_names_the_file(self, model_path, tmp_path, capsys):
        # the desk model reads 16 features; the encoder's ShapeError names
        # the input, as decode's and sweep's do
        path, out = tmp_path / "bad.feats", tmp_path / "h.csv"
        path.write_text("60 20 0.01 0.025\n" + ("0.1 " * 20 + "\n") * 60)
        assert main(["heatmap", "--model", str(model_path), str(path), "--layer", "0",
                     "--head", "0", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert err == [f"data error: {path}: feature dim 20 != model feat_dim 16"]
        assert not out.exists()


class TestEval:
    def test_summary_and_jsonl(self, tmp_path, capsys):
        refs = tmp_path / "refs.tsv"
        hyps = tmp_path / "hyps.tsv"
        refs.write_text("u1\thello\nu2\tworld\n")
        hyps.write_text("u1\thello\nu2\twormd\n")
        out = tmp_path / "per_utt.jsonl"
        code = main(["eval", "--refs", str(refs), "--hyps", str(hyps),
                     "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "cer=0.100000" in printed
        assert "sub=1" in printed
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == ["u1", "u2"]

    def test_aligns_each_utterance_once(self, tmp_path, capsys, monkeypatch):
        # the JSONL breakdowns and the summary come from one alignment each
        refs, hyps, out = (tmp_path / f for f in ("refs.tsv", "hyps.tsv", "o.jsonl"))
        refs.write_text("u1\thello\nu2\tworld\nu3\t\n")
        hyps.write_text("u1\thello\nu2\twormd\nu3\tx\n")
        calls = []

        def spy(ref, hyp, real=metrics.edit_alignment):
            calls.append((ref, hyp))
            return real(ref, hyp)

        monkeypatch.setattr(cli, "edit_alignment", spy)
        monkeypatch.setattr(metrics, "edit_alignment", spy)
        assert main(["eval", "--refs", str(refs), "--hyps", str(hyps),
                     "--out", str(out)]) == EXIT_OK
        assert calls == [("hello", "hello"), ("world", "wormd"), ("", "x")]
        assert capsys.readouterr().out == "cer=0.200000 del=0 ins=1 sub=1 ref_len=10\n"

    def test_missing_hypothesis_exit_data(self, tmp_path):
        refs = tmp_path / "refs.tsv"
        hyps = tmp_path / "hyps.tsv"
        refs.write_text("u1\thello\n")
        hyps.write_text("zz\thello\n")
        assert main(["eval", "--refs", str(refs), "--hyps", str(hyps)]) == EXIT_DATA


    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_no_references_exit_data(self, tmp_path, capsys, text):
        refs = tmp_path / "refs.tsv"
        hyps = tmp_path / "hyps.tsv"
        refs.write_text(text)
        hyps.write_text("u1\thello\n")
        out = tmp_path / "per_utt.jsonl"
        code = main(["eval", "--refs", str(refs), "--hyps", str(hyps),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {refs}: no references\n"
        assert not out.exists()


class TestRepeatedTsvId:
    """A TSV id on two lines is a data error naming the file and the id,
    never a silent overwrite by the later line."""

    def check(self, capsys, argv, path):
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: repeated id 'u1'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("which", ["refs", "hyps"])
    def test_eval(self, tmp_path, capsys, which):
        files = {name: tmp_path / f"{name}.tsv" for name in ("refs", "hyps")}
        files["refs"].write_text("u1\tabc\nu1\txyz\n" if which == "refs"
                                 else "u1\txyz\n")
        files["hyps"].write_text("u1\txyz\nu2\tq\nu1\tabc\n" if which == "hyps"
                                 else "u1\txyz\n")
        out = tmp_path / "per_utt.jsonl"
        self.check(capsys, ["eval", "--refs", str(files["refs"]),
                            "--hyps", str(files["hyps"]), "--out", str(out)],
                   files[which])
        assert not out.exists()

    def test_sweep_reference(self, model_path, wav_path, tmp_path, capsys):
        refs = tmp_path / "refs.tsv"
        refs.write_text("u1\tabc\nutt1\thello\nu1\tabc\n")
        out = tmp_path / "s.csv"
        self.check(capsys, ["sweep", "--model", str(model_path), str(wav_path),
                            "--refs", str(refs), "--out", str(out)], refs)
        assert not out.exists()


class TestRepeatedInputId:
    """Inputs whose ids (file stems) repeat are a config error naming the
    id, found before the model is read: the model path does not exist."""

    @pytest.mark.parametrize("command", ["decode", "sweep"])
    def test_rejected_before_model(self, tmp_path, capsys, command):
        paths = [tmp_path / d / "x.wav" for d in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            write_wav(path, Waveform(np.zeros(16000), 16000))
        out = tmp_path / "out.tsv"
        argv = [command, "--model", str(tmp_path / "nope.model"), *map(str, paths),
                "--out", str(out)]
        if command == "sweep":
            argv += ["--refs", str(tmp_path / "nope.tsv")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'x'" in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestUnframeableRate:
    """A WAV whose rate the frontend cannot frame (the 10 ms hop rounds to
    0 samples below 51 Hz) is a data error naming the file and the rate,
    never an empty transcript."""

    @pytest.fixture(params=[1, 40])
    def wav(self, request, tmp_path):
        rate = request.param
        path = tmp_path / "odd.wav"
        write_wav(path, Waveform(0.1 * np.ones(600 * rate), rate))
        return path, rate

    def test_decode(self, model_path, wav, tmp_path, capsys):
        path, rate = wav
        out = tmp_path / "hyps.tsv"
        assert main(["decode", "--model", str(model_path), str(path),
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: sample rate {rate} Hz cannot be framed")
        assert out.read_text() == ""

    def test_sweep(self, model_path, wav, tmp_path, capsys):
        path, rate = wav
        refs = tmp_path / "refs.tsv"
        refs.write_text("odd\tabc\n")
        assert main(["sweep", "--model", str(model_path), str(path), "--refs",
                     str(refs), "--out", str(tmp_path / "s.csv")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: sample rate {rate} Hz ")

    def test_decode_waveform(self, tiny_model, wav):
        # the pipeline refuses such audio too, wherever it was read from
        path, rate = wav
        with pytest.raises(DataError, match=f"^sample rate {rate} Hz cannot be framed"):
            decode_waveform(tiny_model, read_wav(path), DecodeOptions())

    def test_short_epd_piece_still_decodes_to_nothing(self, model_path, tmp_path):
        # a lone 30 ms burst in 2 s of silence is one epd segment of 5
        # frames, too few for the desk model's subsampler: it adds no tokens
        sr = 16000
        x = np.zeros(2 * sr)
        x[sr : sr + 480] = 0.1 * np.random.default_rng(3).normal(size=480)
        wav = tmp_path / "blip.wav"
        write_wav(wav, Waveform(x, sr))
        model = load_model(model_path)
        ((seg, f, _),) = prepare_input(model, read_wav(wav), parse_segmentation("epd"))
        assert f is None and len(frames_within(seg.start, seg.end, sr)) == 5
        out = tmp_path / "h.tsv"
        assert main(["decode", "--model", str(model_path), str(wav),
                     "--segmentation", "epd", "--out", str(out)]) == EXIT_OK
        assert out.read_text() == "blip\t\n"


class TestCommonRates:
    """22.05, 44.1 and 48 kHz WAVs, whose 25 ms window outgrows a 512-point
    FFT, are framed with the next power of two and decode."""

    @pytest.fixture(params=[22050, 44100, 48000])
    def wav(self, request, tmp_path):
        rate = request.param
        path = tmp_path / "hifi.wav"
        noise = np.random.default_rng(rate).normal(size=rate)
        write_wav(path, Waveform(0.1 * noise, rate))
        return path

    def test_decode(self, model_path, wav, tmp_path, capsys):
        out = tmp_path / "hyps.tsv"
        assert main(["decode", "--model", str(model_path), str(wav),
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert out.read_text().startswith("hifi\t")

    def test_sweep(self, model_path, wav, tmp_path):
        refs = tmp_path / "refs.tsv"
        refs.write_text("hifi\tabc\n")
        assert main(["sweep", "--model", str(model_path), str(wav), "--refs",
                     str(refs), "--out", str(tmp_path / "s.csv")]) == EXIT_OK

    def test_decode_waveform(self, tiny_model, wav, monkeypatch):
        # 1 s gives the encoder as many frames as at 16 kHz
        from sparse_rnnt import pipeline

        frames = []

        def spy(*args, real=pipeline.decode_with_srs):
            frames.append(args[0].length)
            return real(*args)

        monkeypatch.setattr(pipeline, "decode_with_srs", spy)
        at_16k = Waveform(np.zeros(16000), 16000)
        for x in (read_wav(wav), at_16k):
            decode_waveform(tiny_model, x, DecodeOptions())
        assert len(frames) == 2 and frames[0] == frames[1] > 0


class TestNonUtf8Text:
    """Text inputs whose bytes are not UTF-8 map to documented exit codes,
    with one message that names the file."""

    def check(self, capsys, argv, code, path, kind):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{kind} error: {path}: not UTF-8 text")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("which", ["refs", "hyps"])
    def test_eval_tsv(self, tmp_path, capsys, which):
        files = {name: tmp_path / f"{name}.tsv" for name in ("refs", "hyps")}
        for name, path in files.items():
            path.write_bytes(b"u1\thel\xfflo\n" if name == which else b"u1\thello\n")
        self.check(capsys, ["eval", "--refs", str(files["refs"]),
                            "--hyps", str(files["hyps"])],
                   EXIT_DATA, files[which], "data")

    def test_sweep_reference(self, model_path, wav_path, tmp_path, capsys):
        refs = tmp_path / "refs.tsv"
        refs.write_bytes(b"utt1\thel\xfflo\n")
        self.check(capsys, ["sweep", "--model", str(model_path), str(wav_path),
                            "--refs", str(refs), "--out", str(tmp_path / "s.csv")],
                   EXIT_DATA, refs, "data")

    def test_sweep_feature_file(self, model_path, tmp_path, capsys):
        feats = tmp_path / "utt1.feats"
        feats.write_bytes(b"bad\xff\xfe header\n")
        refs = tmp_path / "refs.tsv"
        refs.write_text("utt1\thello\n")
        self.check(capsys, ["sweep", "--model", str(model_path), str(feats),
                            "--refs", str(refs), "--out", str(tmp_path / "s.csv")],
                   EXIT_DATA, feats, "data")

    def test_gen_model_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"feat_dim": "\xff"}')
        self.check(capsys, ["gen-model", "--config", str(cfg),
                            "--out", str(tmp_path / "m.model")],
                   EXIT_CONFIG, cfg, "config")


class TestSweep:
    def test_grid_rows(self, model_path, wav_path, tmp_path):
        refs = tmp_path / "refs.tsv"
        refs.write_text("utt1\thello world\n")
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", str(model_path), str(wav_path),
                     "--refs", str(refs), "--masks", "dense,local",
                     "--segmentations", "none,doi:20", "--w", "8",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "policy,segmentation,doi_length,cer,del,ins,sub"
        assert len(lines) == 5

    def test_reads_and_featurises_each_input_once(self, model_path, wav_path,
                                                   tmp_path, monkeypatch):
        from sparse_rnnt import pipeline

        calls = {"read_wav": 0, "log_mel_spectrogram": 0, "encode": 0}
        for name in calls:
            def spy(*args, real=getattr(pipeline, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(pipeline, name, spy)
        refs = tmp_path / "refs.tsv"
        refs.write_text("utt1\thello world\n")
        code = main(["sweep", "--model", str(model_path), str(wav_path),
                     "--refs", str(refs), "--masks", "dense,local,local+sgm3",
                     "--segmentations", "none,doi:20", "--w", "8",
                     "--out", str(tmp_path / "sweep.csv")])
        assert code == EXIT_OK
        # the 3 s input is one segment under both segmentations
        assert calls == {"read_wav": 1, "log_mel_spectrogram": 2, "encode": 6}

    @pytest.mark.parametrize("flags", [["--masks", "dense,banana"],
                                       ["--segmentations", "none,doi:abc"],
                                       ["--beam", "0"]])
    def test_bad_grid_exit_config_before_model(self, wav_path, tmp_path, flags):
        # model and references are missing: exit 2 shows neither was read
        code = main(["sweep", "--model", str(tmp_path / "nope.model"),
                     str(wav_path), "--refs", str(tmp_path / "nope.tsv"),
                     *flags, "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flags, first, second", [
        (["--masks", "dense,dense"], "dense/doi:20", "dense/doi:20"),
        (["--masks", "dense,DENSE"], "dense/doi:20", "DENSE/doi:20"),
        (["--masks", "dense", "--segmentations", "doi:10,doi:10.0"],
         "dense/doi:10", "dense/doi:10.0")],
        ids=["same-mask", "mask-case", "doi-spelling"])
    def test_repeated_grid_point_exit_config_before_model(self, wav_path, tmp_path,
                                                          capsys, flags, first, second):
        # one grid point would be decoded twice or written as two rows
        code = main(["sweep", "--model", str(tmp_path / "nope.model"),
                     str(wav_path), "--refs", str(tmp_path / "nope.tsv"),
                     *flags, "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: grid points {first} and {second} are the same\n")

    def test_infinite_doi_length_is_a_config_error(self, wav_path, tmp_path,
                                                   capsys):
        # model and references are missing: the length is refused first
        code = main(["sweep", "--model", str(tmp_path / "nope.model"),
                     str(wav_path), "--refs", str(tmp_path / "nope.tsv"),
                     "--segmentations", "none,doi:inf",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: doi length must be finite, got inf\n")

    def test_rejects_decode_mask_flag(self, wav_path, tmp_path):
        # sweep reads --masks; a --mask it would ignore is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--model", str(tmp_path / "nope.model"),
                  str(wav_path), "--refs", str(tmp_path / "nope.tsv"),
                  "--mask", "local", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == EXIT_CONFIG

    def test_failed_decode_names_the_input(self, model_path, tmp_path, capsys):
        # as decode and heatmap do: 1.7e308 features leave the encoder's
        # output not finite
        path, refs = tmp_path / "huge.feats", tmp_path / "r.tsv"
        path.write_text("60 16 0.01 0.025\n" + ("1.7e308 " * 16 + "\n") * 60)
        refs.write_text("huge\tabc\n")
        assert main(["sweep", "--model", str(model_path), str(path), "--refs",
                     str(refs), "--out", str(tmp_path / "s.csv")]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {path}: feature values overflow the encoder "
            f"(its output is not finite)\n")

    @pytest.mark.parametrize("argv", [
        ["decode", "--model", "m", "u.wav"],
        ["sweep", "--model", "m", "u.wav", "--refs", "r", "--out", "o"],
    ], ids=["decode", "sweep"])
    def test_overlap_flag_is_gone(self, argv):
        # the DOI overlap is segmentation.DOI_OVERLAP, not a setting
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--overlap", "2"])
        assert exc.value.code == EXIT_CONFIG

    def test_missing_reference_exit_data(self, model_path, wav_path, tmp_path):
        refs = tmp_path / "refs.tsv"
        refs.write_text("other\thello\n")
        code = main(["sweep", "--model", str(model_path), str(wav_path),
                     "--refs", str(refs), "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_DATA


class TestRejectedFiles:
    """Malformed WAVs, model files, model configs and reference TSVs, model
    weights that overflow the decoder, and an unknown segmentation: the
    exit code, one stderr line naming the fault (so no traceback), and no
    `.tmp` file left behind."""

    def check(self, capsys, tmp_path, argv, code, message):
        assert main(argv) == code
        assert capsys.readouterr().err == message
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("edit,message", [
        (lambda wav: b"", "truncated WAV"),
        (lambda wav: b"RIFF", "truncated WAV"),
        (lambda wav: wav[:28], "truncated WAV"),  # 8 of the fmt chunk's 16 bytes
        (lambda wav: wav[:20] + (3).to_bytes(2, "little") + wav[22:],  # IEEE float
         "malformed WAV (unknown format: 3)"),
        (lambda wav: wav[:24] + bytes(4) + wav[28:], "invalid sample rate 0"),
    ], ids=["empty", "riff-only", "short-fmt-chunk", "ieee-float", "zero-rate"])
    def test_bad_wav_exit_io(self, model_path, wav_path, tmp_path, capsys, edit, message):
        bad, out = tmp_path / "bad.wav", tmp_path / "hyps.tsv"
        bad.write_bytes(edit(wav_path.read_bytes()))
        self.check(capsys, tmp_path, ["decode", "--model", str(model_path), str(bad),
                                      "--out", str(out)], EXIT_IO, f"error: {bad}: {message}\n")
        # once its options, ids and model are valid, decode writes --out with
        # the lines of the inputs that decoded: here none (README, CLI)
        assert out.read_text() == ""

    @pytest.mark.parametrize("edit,message", [
        (None, "missing manifest separator"),  # the manifest alone
        (_set("magic", "sparse-rnnt-model-v2"), "not a sparse-rnnt-model-v1 file"),
        (lambda m: m["tensors"].append({"name": "extra", "shape": [1], "offset": 0}),
         "unexpected tensor 'extra'"),
        (_set("config", "vocab", "tokens", 1, 1),
         "malformed manifest (ParameterError('vocabulary tokens must be strings'))"),
    ], ids=["no-separator", "other-magic", "extra-tensor", "int-token"])
    def test_bad_model_exit_io(self, model_path, wav_path, tmp_path, capsys, edit, message):
        head, blob = model_path.read_bytes().split(b"\x00", 1)
        manifest = json.loads(head)
        if edit is not None:
            edit(manifest)
        bad, out = tmp_path / "bad.model", tmp_path / "hyps.tsv"
        bad.write_bytes(json.dumps(manifest).encode() + (b"\x00" + blob if edit else b""))
        self.check(capsys, tmp_path, ["decode", "--model", str(bad), str(wav_path),
                                      "--out", str(out)], EXIT_IO, f"i/o error: {bad}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("name,index,value,op", [
        ("joint.out", (0, 0), 1e308, "subtract"),
        ("joint.out_bias", (0,), -1e308, "subtract"),
        ("joint.enc_proj", (0, 0), 1e308, "matmul"),
    ])
    def test_decoder_overflow_exit_data(self, model_path, wav_path, tmp_path, capsys,
                                        name, index, value, op):
        # finite weights, so the model loads, that overflow the decoder's
        # scores: the decode fails as an encoder overflow does, never exit 0
        # with a non-finite log_prob
        model = load_model(model_path)
        model_tensors(model)[name][index] = value
        bad, out, detail = (tmp_path / f for f in ("bad.model", "hyps.tsv", "d.jsonl"))
        save_model(model, bad)
        self.check(capsys, tmp_path, ["decode", "--model", str(bad), str(wav_path),
                                      "--beam", "2", "--out", str(out),
                                      "--detail", str(detail)], EXIT_DATA,
                   f"error: {wav_path}: scores overflow the decoder "
                   f"(overflow encountered in {op})\n")
        assert out.read_text() == detail.read_text() == ""

    def test_non_string_vocabulary_config_exit_config(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "m.model"
        cfg.write_text(json.dumps({"vocab": {"tokens": [1, 2, 3]}}))
        self.check(capsys, tmp_path, ["gen-model", "--config", str(cfg), "--out", str(out)],
                   EXIT_CONFIG, f"config error: {cfg}: bad model config "
                                "(vocabulary tokens must be strings)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_reference_without_tab_exit_data(self, model_path, wav_path, tmp_path, capsys,
                                             command):
        refs, hyps, out = (tmp_path / name for name in ("refs.tsv", "hyps.tsv", "out"))
        refs.write_text("utt1 hello\n")
        hyps.write_text("utt1\thello\n")
        argv = (["eval", "--hyps", str(hyps)] if command == "eval"
                else ["sweep", "--model", str(model_path), str(wav_path)])
        self.check(capsys, tmp_path, argv + ["--refs", str(refs), "--out", str(out)], EXIT_DATA,
                   f"data error: {refs}: line without tab separator: 'utt1 hello'\n")
        assert not out.exists()

    def test_unknown_segmentation_exit_config(self, model_path, wav_path, tmp_path, capsys):
        out = tmp_path / "hyps.tsv"
        self.check(capsys, tmp_path, ["decode", "--model", str(model_path), str(wav_path),
                                      "--segmentation", "foo", "--out", str(out)],
                   EXIT_CONFIG, "config error: unknown segmentation 'foo'\n")
        assert not out.exists()


def readme_commands():
    """The argument lists of the `sparse-rnnt` lines in README.md's sh
    blocks, with backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("sparse-rnnt ")]


def test_readme_commands_parse():
    # a renamed or removed flag leaves the README's commands unrunnable
    commands = readme_commands()
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: sparse-rnnt {shlex.join(argv)}")

"""The benchmark tracer's call sites exist in the program and still trace.

`bench/tracer.py` wraps module attributes by name and refuses to install
when one is missing, and its notes read the traced calls' arguments and
results, so a rename or a change of a traced call's shape would otherwise
surface only in a traced bench run. The tracer file is imported read-only.
"""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
from sparse_rnnt import cli
from sparse_rnnt.attention import MaskPolicy
from sparse_rnnt.encoder import encode
from sparse_rnnt.frontend import Waveform, log_mel_spectrogram, read_wav, write_wav
from sparse_rnnt.model_io import load_model, random_model, save_model

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def trace_targets():
    return [(module, attr) for module, attr, _, _ in load_tracer().TARGETS]


@pytest.mark.parametrize("module,attr", trace_targets())
def test_trace_target_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr} is gone; bench/tracer.py would fail to install"


def test_traced_decode_reports_every_layer_metric(tmp_path):
    model = tmp_path / "tiny.model"
    save_model(random_model(tiny_config(), 3), model)
    wav = tmp_path / "utt1.wav"
    write_wav(wav, Waveform(0.1 * np.random.default_rng(5).normal(size=16000), 16000))
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["decode", "--model", str(model), str(wav), "--beam", "2",
                         "--srs", "--t-sil", "1", "--out", str(tmp_path / "hyps.tsv")])
    finally:
        assert t.uninstall()
    assert code == cli.EXIT_OK
    metrics = tracer.layer_metrics(t.to_json())
    # the per-layer metrics the bench reads from a trace; cli.* and trace.*
    # come from the traced process itself
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
             ["per_layer"] if not m["name"].startswith(("cli.", "trace."))]
    assert set(names) <= set(metrics)
    assert all(math.isfinite(metrics[n]) for n in names)
    assert metrics["encoder.frames"] > 0
    assert metrics["transducer.beam_steps"] == metrics["encoder.frames"]
    # a decode keeps no diagnostics: without an observer, encode's second
    # value is empty
    assert metrics["encoder.diag_mb"] == 0
    feats = log_mel_spectrogram(read_wav(wav), tiny_config().feat_dim)
    assert encode(feats, load_model(model), MaskPolicy.local_global())[1] == []


def test_trace_of_many_inputs_and_segments(tmp_path):
    # The bench's regime guards read one cli.decode_file span per input and
    # one pipeline.decode_with_srs span per encoded segment, whose frames
    # add up to encoder.frames. A change that decoded a call's inputs or
    # segments in one batch would break that without failing the other tests.
    model = tmp_path / "tiny.model"
    save_model(random_model(tiny_config(), 3), model)
    wavs = []
    for i, seconds in enumerate((9, 12)):
        wavs.append(str(tmp_path / f"utt{i}.wav"))
        write_wav(wavs[-1], Waveform(0.1 * np.random.default_rng(i).normal(
            size=16000 * seconds), 16000))
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["decode", "--model", str(model), *wavs, "--beam", "2",
                         "--segmentation", "doi:5", "--out", str(tmp_path / "hyps.tsv")])
    finally:
        assert t.uninstall()
    assert code == cli.EXIT_OK
    trace = t.to_json()
    spans = trace["spans"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def file_of(span):
        while span["name"] != "cli.decode_file":
            span = spans[span["parent"]]
        return span["id"]

    files = named("cli.decode_file")
    decodes = named("pipeline.decode_with_srs")
    assert len(files) == len(wavs)
    per_file = [sum(s["segments"] for s in named("pipeline._segments_for")
                    if file_of(s) == f["id"]) for f in files]
    assert min(per_file) > 1
    assert [sum(file_of(s) == f["id"] for s in decodes) for f in files] == per_file
    assert len(named("pipeline.encode")) == len(decodes)
    metrics = tracer.layer_metrics(trace)
    assert metrics["segmentation.segments"] == len(decodes)
    assert sum(s["frames"] for s in decodes) == metrics["encoder.frames"] > 0


def test_beam_one_blank_decode_goes_through_the_traced_attributes(tmp_path,
                                                                   monkeypatch):
    # The long80s regime guard counts transducer.reset_prediction_states
    # spans against the frames of pipeline.decode_with_srs spans. A beam-1
    # decode that bypassed either attribute would leave both counts at 0,
    # and the guard would pass without checking anything.
    from sparse_rnnt import pipeline, transducer
    from sparse_rnnt.pipeline import DecodeOptions
    from sparse_rnnt.transducer import SrsParams

    model = random_model(tiny_config(), 3)
    model.joint.out_bias[model.config.vocab.blank_id] += 50.0
    wav = tmp_path / "utt1.wav"
    write_wav(wav, Waveform(0.1 * np.random.default_rng(5).normal(size=32000), 16000))
    frames, resets = [], []
    for module, attr, record in ((pipeline, "decode_with_srs",
                                  lambda args: frames.append(args[0].length)),
                                 (transducer, "reset_prediction_states",
                                  lambda args: resets.append(1))):
        def spy(*args, real=getattr(module, attr), record=record):
            record(args)
            return real(*args)
        monkeypatch.setattr(module, attr, spy)
    t_sil = 2
    result = pipeline.decode_file(model, wav,
                                  DecodeOptions(beam=1, srs=SrsParams(t_sil=t_sil)))
    assert result.tokens == []
    assert len(frames) == 1 and frames[0] > 3 * (t_sil + 1)
    assert len(resets) == frames[0] // (t_sil + 1)

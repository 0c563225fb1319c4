"""The benchmark's own checks. Run from the root of a checkout:

    python3 -m pytest -q bench/selfcheck.py

The last test decodes every workload, traced and untraced, at two seeds
(about two minutes).
"""

from __future__ import annotations

import importlib
import json
import re
import sys

import pytest

import run
import tracer

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units():
    e2e = [n for n, *_ in run.END_TO_END]
    layer = [n for n, _ in run.PER_LAYER]
    assert len(e2e) <= 16 and len(layer) <= 128
    assert len(set(e2e + layer)) == len(e2e + layer)
    for name in e2e + layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for _, unit, *_ in run.END_TO_END + run.PER_LAYER:
        assert UNIT.fullmatch(unit), unit
    assert ("setup_s", "s", "lower") == run.END_TO_END[2][:3]
    assert all(0 < bound <= 0.25 for *_, bound in run.END_TO_END)


def test_benchmark_json_matches_tables():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == run.spec()


def test_traced_metrics_match_layer_metrics():
    empty = {"spans": [], "root_leaf": {}}
    assert list(tracer.layer_metrics(empty)) == run.TRACED_METRICS


def test_same_seed_same_bytes(tmp_path):
    wl = run.WORKLOADS["doi60s-sgm3-blank"]
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d, seed in zip(dirs, (3, 3, 4)):
        d.mkdir()
        run.build_inputs(wl, seed, d)
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == ["blank.model", "bursts.wav", "sat.model"]
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert (dirs[0] / "bursts.wav").read_bytes() != (dirs[2] / "bursts.wav").read_bytes()


def _targets():
    return [(importlib.import_module(m), a) for m, a, _, _ in tracer.TARGETS]


def test_tracer_restores_every_wrapped_attribute():
    originals = [getattr(m, a) for m, a in _targets()]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [getattr(m, a) for m, a in _targets()]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        assert t.uninstall()
    assert all(getattr(m, a) is o for (m, a), o in zip(_targets(), originals))


def test_untraced_runs_install_no_wrapper(tmp_path):
    wl = run.WORKLOADS["clips5s-dense-sat"]
    inputs = run.build_inputs(wl, 0, tmp_path)
    argv = run.decode_argv(wl, inputs, tmp_path / "hyps.tsv")
    assert argv[:3] == [sys.executable, "-m", "sparse_rnnt.cli"]
    assert not any("tracer" in arg for arg in argv)
    assert not any(hasattr(getattr(m, a), "__wrapped__") for m, a in _targets())


def test_mismatch_and_exit_code_count_as_failed(tmp_path):
    wl = run.WORKLOADS["long80s-local-blank"]
    ref = run.expected_sha(wl, 0, {})
    out = tmp_path / "hyps.tsv"
    ok = run.Proc(0, 1.0, 1.0, 1.0, 1.0, "")
    out.write_text("long\t\n", encoding="utf-8")
    assert run.check_decode(wl, ok, out, ref) == ([], ref)
    assert run.check_decode(wl, run.Proc(4, 1.0, 1.0, 1.0, 1.0, "x"), out, ref)[0] == ["long"]
    out.write_text("long\ta\n", encoding="utf-8")
    assert run.check_decode(wl, ok, out, ref)[0] == ["long"]
    sat = run.WORKLOADS["clips5s-dense-sat"]
    out.write_text("".join(f"{u}\t{'x' * sat.chars_per_utt}\n" for u in sat.utterances[:3])
                   + "clip3\tx\n", encoding="utf-8")
    assert run.check_decode(sat, ok, out, None)[0] == ["clip3"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_matches_untraced_and_regime_holds(name, seed):
    lines = []
    result = run.run_workload(run.WORKLOADS[name], seed, 0.0, True, lines.append)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 2
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {n for n, _ in run.PER_LAYER}
    if run.WORKLOADS[name].chars_per_utt:
        assert m["transducer.tokens_per_frame"] == run.MAX_SYMBOLS
    else:
        assert m["transducer.tokens"] == 0

"""Fuzz `decode` over malformed inputs: every run must end in a documented
exit code (0/2/3/4), never an escaped exception.

Each input starts from a valid file and is mutated, so the examples reach
past the first format check. The examples are drawn deterministically (see
the profile in conftest.py).
"""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import tiny_config
from sparse_rnnt.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, main
from sparse_rnnt.frontend import FeatureMatrix, Waveform, write_feature_file, write_wav
from sparse_rnnt.model_io import random_model, save_model

DOCUMENTED_EXITS = {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DATA}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=4,
)
FEATURE_TOKENS = st.one_of(
    st.integers(-2, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "x", "1e999", "0x10", "1_0"]),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    cfg = tiny_config()
    save_model(random_model(cfg, 7), d / "m.model")
    rng = np.random.default_rng(3)
    write_wav(d / "ok.wav", Waveform(0.1 * rng.normal(size=4800), 16000))
    write_feature_file(d / "ok.feats",
                       FeatureMatrix(rng.normal(size=(24, cfg.feat_dim)), 0.01, 0.025))
    return d


def decode(model, path) -> None:
    assert main(["decode", "--model", str(model), str(path), "--beam", "2"]) \
        in DOCUMENTED_EXITS


@given(edits=st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)), max_size=6),
       cut=st.integers(0, 200))
def test_wav_header_bytes(files, edits, cut):
    raw = bytearray((files / "ok.wav").read_bytes())
    for pos, byte in edits:
        raw[pos] = byte
    path = files / "in.wav"
    path.write_bytes(bytes(raw[: len(raw) - cut]))
    decode(files / "m.model", path)


@given(source=st.text(max_size=60)
       | st.binary(max_size=60)
       | st.lists(st.tuples(st.integers(0, 24), st.integers(0, 7), FEATURE_TOKENS),
                  max_size=4),
       drop=st.integers(0, 3))
def test_feature_file_text(files, source, drop):
    """`source` is the whole file as text or as raw bytes, or (row, column,
    token) edits of a valid file (row 0 is the header), which then loses
    `drop` rows."""
    raw = source.encode("utf-8") if isinstance(source, str) else source
    if isinstance(source, list):
        rows = [line.split() for line in (files / "ok.feats").read_text().splitlines()]
        for i, j, token in source:
            rows[i][j % len(rows[i])] = token
        raw = ("\n".join(" ".join(row) for row in rows[: len(rows) - drop])
               + "\n").encode("utf-8")
    path = files / "in.feats"
    path.write_bytes(raw)
    decode(files / "m.model", path)


def _nodes(obj, path=()):
    """The key path of every value under a JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from _nodes(child, path + (key,))


@given(data=st.data())
def test_model_manifest_json(files, data):
    raw = (files / "m.model").read_bytes()
    sep = raw.index(b"\x00")
    manifest = json.loads(raw[:sep])
    paths = list(_nodes(manifest))
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, key = data.draw(st.sampled_from(paths))
        node = manifest
        for k in parents:
            node = node[k]
        action = data.draw(st.sampled_from(["set", "delete", "add"]))
        if action == "set":
            node[key] = data.draw(JSON_VALUES)
        elif action == "delete" and isinstance(node, dict):
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(st.text(max_size=3))] = data.draw(JSON_VALUES)
        paths = list(_nodes(manifest))
        if not paths:
            break
    path = files / "in.model"
    path.write_bytes(json.dumps(manifest).encode() + raw[sep:])
    decode(path, files / "ok.feats")

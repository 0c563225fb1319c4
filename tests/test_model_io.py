import dataclasses
import hashlib
import json
import math
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import tiny_config
from sparse_rnnt.encoder import ConformerBlockWeights
from sparse_rnnt.errors import ModelFormatError, ParameterError
from sparse_rnnt.model_io import (
    ModelConfig,
    SplitMix64,
    Vocabulary,
    _fan_in,
    _layout,
    load_model,
    model_tensors,
    random_model,
    save_model,
)


class TestSplitMix64:
    def test_reference_sequence(self):
        # published reference outputs for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_float_range(self):
        rng = SplitMix64(123)
        vals = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_seed_determinism(self):
        a = SplitMix64(42).uniform_array((3, 4), 0.5)
        b = SplitMix64(42).uniform_array((3, 4), 0.5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_arrays_continue_the_scalar_stream(self, seed):
        # odd sizes, and a seed whose counter wraps at once
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        for shape in [(1,), (3,), (2, 5), (7, 3, 1), (0,), (13,)]:
            got = rng.uniform_array(shape, 0.25)
            n = int(np.prod(shape))
            want = [(2.0 * ref.next_float() - 1.0) * 0.25 for _ in range(n)]
            assert got.shape == shape
            assert np.array_equal(got.ravel(), np.array(want, dtype=np.float64))
            assert rng.state == ref.state
        assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize("config,digest,tensors", [
    (ModelConfig.desk_scale,
     "4d165f532470abf7d0fa4e60e3635caf722d42b71922255748ff93b06d945a07",
     "cd52ced3f141d74491c6c0019b3a1d74533e689f03545c920b63b223bd87c634"),
    (tiny_config,
     "c6bb0d9ae3b0a5c9e16c2c4464bf4a6046138ffe97879be2ae4721f77de3c7bb",
     "84f84f692a50be76898b15088f7321bd2d206c6b4b993cd88ec21cef011a10f9"),
], ids=["desk", "tiny"])
def test_model_bytes_pinned(tmp_path, config, digest, tensors):
    # a seed means the same model file on every build; the tensor bytes
    # after the manifest are pinned apart, as a config field can come or go
    path = tmp_path / "m.model"
    save_model(random_model(config(), 7), path)
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == digest
    assert hashlib.sha256(raw[raw.index(b"\x00") + 1 :]).hexdigest() == tensors


class TestRandomModel:
    def test_same_seed_identical(self, tmp_path):
        cfg = tiny_config()
        m1 = random_model(cfg, 7)
        m2 = random_model(cfg, 7)
        save_model(m1, tmp_path / "a.model")
        save_model(m2, tmp_path / "b.model")
        assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        m1 = random_model(cfg, 1)
        m2 = random_model(cfg, 2)
        assert not np.array_equal(m1.joint.out, m2.joint.out)

    def test_fan_in_bound(self):
        cfg = tiny_config()
        m = random_model(cfg, 3)
        for name, arr in model_tensors(m).items():
            if name.endswith(("norm_gain", "norm_bias")):
                continue
            bound = 1.0 / np.sqrt(_fan_in(arr.shape))
            assert np.max(np.abs(arr)) <= bound

    def test_norm_parameters_initialized_neutral(self):
        m = random_model(tiny_config(), 3)
        assert np.array_equal(m.blocks[0].ffn1.norm_gain, np.ones(8))
        assert np.array_equal(m.blocks[0].final_norm_bias, np.zeros(8))


class TestSerialization:
    def test_round_trip_equality(self, tmp_path):
        m = random_model(tiny_config(), 99)
        path = tmp_path / "m.model"
        save_model(m, path)
        loaded = load_model(path)
        for name, arr in model_tensors(m).items():
            assert np.array_equal(model_tensors(loaded)[name], arr), name
        assert loaded.config.to_dict() == m.config.to_dict()

    def test_resave_byte_identical(self, tmp_path):
        m = random_model(tiny_config(), 5)
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(m, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_blob(self, tmp_path):
        m = random_model(tiny_config(), 5)
        path = tmp_path / "m.model"
        save_model(m, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(ModelFormatError, match="truncat"):
            load_model(path)

    def test_corrupt_blob_checksum(self, tmp_path):
        m = random_model(tiny_config(), 5)
        path = tmp_path / "m.model"
        save_model(m, path)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_manifest_shape_mismatch_names_tensor(self, tmp_path):
        m = random_model(tiny_config(), 5)
        path = tmp_path / "m.model"
        save_model(m, path)
        raw = path.read_bytes()
        sep = raw.index(b"\x00")
        manifest = json.loads(raw[:sep])
        manifest["tensors"][0]["shape"][0] += 1
        name = manifest["tensors"][0]["name"]
        path.write_bytes(json.dumps(manifest, sort_keys=True,
                                    separators=(",", ":")).encode() + raw[sep:])
        with pytest.raises(ModelFormatError, match=name.replace(".", r"\.")):
            load_model(path)

    def test_bytes_after_last_tensor_rejected(self, tmp_path):
        # a consistent manifest (size and checksum) over a blob with 8
        # bytes no tensor owns
        m = random_model(tiny_config(), 5)
        path = tmp_path / "m.model"
        save_model(m, path)
        raw = path.read_bytes()
        sep = raw.index(b"\x00")
        manifest = json.loads(raw[:sep])
        blob = raw[sep + 1:] + bytes(8)
        manifest["blob_bytes"] = len(blob)
        manifest["blob_crc32"] = zlib.crc32(blob)
        path.write_bytes(json.dumps(manifest).encode() + b"\x00" + blob)
        with pytest.raises(ModelFormatError, match="tensors end at byte"):
            load_model(path)

    @pytest.mark.parametrize("place", ["appended", "first-and-bogus"])
    def test_tensor_listed_twice_rejected(self, tmp_path, place):
        # save_model lists each tensor once; a repeat, even one identical to
        # the real entry, is not a file it writes
        m = random_model(tiny_config(), 5)
        path = tmp_path / "m.model"
        save_model(m, path)
        raw = path.read_bytes()
        sep = raw.index(b"\x00")
        manifest = json.loads(raw[:sep])
        first = manifest["tensors"][0]
        assert first["name"] == "subsample.w1"
        if place == "appended":
            manifest["tensors"].append(dict(first))
        else:
            manifest["tensors"].insert(0, {**first, "shape": [1], "offset": 999999})
        path.write_bytes(json.dumps(manifest).encode() + raw[sep:])
        with pytest.raises(ModelFormatError, match=r"subsample\.w1.*listed twice"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello\x00world")
        with pytest.raises(ModelFormatError, match="malformed manifest"):
            load_model(path)


class TestVocabulary:
    def test_blank_excluded_from_rendering(self):
        v = Vocabulary(["<b>", "a", "b"], blank_id=0)
        assert v.render([1, 0, 2, 0, 1]) == "aba"

    def test_invalid_blank_id(self):
        with pytest.raises(ParameterError):
            Vocabulary(["a"], blank_id=5)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ParameterError):
            Vocabulary(["a", "a"])


class TestLoadAtFileSize:
    """load_model reads the file once: every tensor is an aligned, writeable
    float64 view of one buffer, whatever the blob's offset in the file."""

    @pytest.fixture(scope="class")
    def desk_model(self):
        return random_model(ModelConfig.desk_scale(), 7)

    def padded(self, path, model, pad):
        # an extra manifest key of `pad` bytes moves the blob in the file
        save_model(model, path)
        raw = path.read_bytes()
        sep = raw.index(b"\x00")
        manifest = json.loads(raw[:sep])
        manifest["pad"] = "x" * pad
        path.write_bytes(json.dumps(manifest).encode() + raw[sep:])
        return path.read_bytes()

    @pytest.mark.parametrize("pad", range(8))
    def test_tensors_are_aligned_views_of_the_file(self, tmp_path, desk_model, pad):
        raw = self.padded(tmp_path / "m.model", desk_model, pad)
        blob_start = raw.index(b"\x00") + 1
        loaded = model_tensors(load_model(tmp_path / "m.model"))
        entries = json.loads(raw[: blob_start - 1])["tensors"]
        assert list(loaded) == [entry["name"] for entry in entries]
        for entry, (name, arr) in zip(entries, loaded.items(), strict=True):
            shape = tuple(entry["shape"])
            stored = np.frombuffer(raw, "<f8", math.prod(shape),
                                   blob_start + entry["offset"]).reshape(shape)
            assert np.array_equal(arr, stored), name
            assert arr.dtype == np.float64 and arr.shape == shape
            assert arr.flags.writeable and arr.flags.aligned, name

    def test_no_two_tensors_share_memory(self, tmp_path, desk_model):
        save_model(desk_model, tmp_path / "m.model")
        arrays = list(model_tensors(load_model(tmp_path / "m.model")).values())
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_peak_memory_near_file_size(self, tmp_path, desk_model):
        path = tmp_path / "m.model"
        save_model(desk_model, path)
        load_model(path)  # imports and caches first
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * path.stat().st_size


def _resolve(model, name: str):
    """The array a tensor name points at, read as a dotted path; a block's
    attention weights are named at the block level but sit under its mh."""
    node = model
    for key in name.split("."):
        if isinstance(node, list):
            node = node[int(key)]
        elif isinstance(node, ConformerBlockWeights) and key in ("heads", "w_p"):
            node = getattr(node.mh, key)
        else:
            node = getattr(node, key)
    return node


def _arrays(node):
    """Every array field under node, lists and nested weight groups included."""
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, list):
        for item in node:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _arrays(getattr(node, f.name))


@pytest.mark.parametrize("config", [tiny_config, ModelConfig.desk_scale],
                         ids=["tiny", "desk"])
def test_layout_names_each_tensor_where_it_sits(config):
    # a layout that put one group's tensors under another's names would
    # still save byte-identical files; here each name must point at its array
    m = random_model(config(), 0)
    names = []
    _layout(m.config, lambda name, shape: names.append(name))
    assert len(names) == len(set(names))
    tensors = model_tensors(m)
    assert list(tensors) == names
    for name, arr in tensors.items():
        assert _resolve(m, name) is arr, name
    named = {id(arr) for arr in tensors.values()}
    assert all(id(arr) in named for arr in _arrays(m))


def test_full_scale_layout_pinned():
    # the 21.6 M-parameter, 12-layer layout, pinned by name and shape
    # without drawing a weight
    specs = []
    _layout(ModelConfig(), lambda name, shape: specs.append([name, list(shape)]))
    assert len(specs) == 459
    assert sum(math.prod(shape) for _, shape in specs) == 21_633_181
    assert (hashlib.sha256(json.dumps(specs).encode()).hexdigest()
            == "c592556926d8c2c5c4714731126377db1c2fa4b56ac30aa138e2ab5971038e2b")

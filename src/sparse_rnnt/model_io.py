"""Model container, seeded random initialization, and file serialization.

File layout: a JSON manifest (config, tensor index with name/shape/offset,
blob CRC32), a single NUL byte, then all tensors concatenated as
little-endian float64 in manifest order. The PRNG behind random_model is
SplitMix64, pinned by its update equations (see README) so a seed means
the same weights everywhere.
"""

from __future__ import annotations

import functools
import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Iterator, get_args, get_origin, get_type_hints

import numpy as np

from .encoder import (ConformerBlockWeights, EncoderConfig, SubsampleWeights,
                      check_fields)
from .errors import DataError, ModelFormatError, ParameterError
from .frontend import atomic_output
from .numerics import LstmWeights

__all__ = [
    "Vocabulary",
    "ModelConfig",
    "PredictionWeights",
    "JointWeights",
    "Model",
    "SplitMix64",
    "random_model",
    "save_model",
    "load_model",
    "default_vocabulary",
]

_MAGIC = "sparse-rnnt-model-v1"


@dataclass
class Vocabulary:
    tokens: list[str]
    blank_id: int = 0

    def __post_init__(self):
        if not all(isinstance(t, str) for t in self.tokens):
            raise ParameterError("vocabulary tokens must be strings")
        if type(self.blank_id) is not int or not 0 <= self.blank_id < len(self.tokens):
            raise ParameterError(
                f"blank_id {self.blank_id} outside vocabulary of "
                f"{len(self.tokens)} tokens"
            )
        if len(set(self.tokens)) != len(self.tokens):
            raise ParameterError("vocabulary tokens must be unique")

    def __len__(self) -> int:
        return len(self.tokens)

    def render(self, token_ids) -> str:
        """Token ids to text; the blank symbol never appears in output."""
        return "".join(self.tokens[t] for t in token_ids if t != self.blank_id)


def default_vocabulary() -> Vocabulary:
    tokens = ["<blank>"] + list("abcdefghijklmnopqrstuvwxyz '")
    return Vocabulary(tokens, blank_id=0)


@dataclass
class ModelConfig:
    feat_dim: int = 80
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    embed_dim: int = 640
    pred_dim: int = 640  # LSTM cell size
    joint_dim: int = 640
    vocab: Vocabulary = field(default_factory=default_vocabulary)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def desk_scale(cls) -> "ModelConfig":
        return cls(feat_dim=16, encoder=EncoderConfig.desk_scale(),
                   embed_dim=16, pred_dim=16, joint_dim=16)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{**d, "encoder": EncoderConfig(**d["encoder"]),
                      "vocab": Vocabulary(**d["vocab"])})


@dataclass
class PredictionWeights:
    embedding: np.ndarray  # (|V|, embed_dim)
    lstm: LstmWeights

    @functools.cached_property
    def input_gates(self) -> np.ndarray:
        """(|V| + 1, 4*pred_dim): row k is embedding[k] @ lstm.w_x, the last
        row the start symbol's, whose embedding is zero.

        One gemv per row, so each row has the bits of the product formed on
        its own. Built on first use, which makes `embedding` and `lstm.w_x`
        read-only: an in-place edit afterwards raises instead of leaving the
        table stale.
        """
        self.embedding.setflags(write=False)
        self.lstm.w_x.setflags(write=False)
        rows = [*self.embedding, np.zeros(self.embedding.shape[1])]
        return np.array([x @ self.lstm.w_x for x in rows])


@dataclass
class JointWeights:
    enc_proj: np.ndarray  # (model_dim, joint_dim)
    pred_proj: np.ndarray  # (pred_dim, joint_dim)
    bias: np.ndarray  # (joint_dim,)
    out: np.ndarray  # (joint_dim, |V|)
    out_bias: np.ndarray  # (|V|,)


@dataclass
class Model:
    config: ModelConfig
    subsample: SubsampleWeights
    blocks: list[ConformerBlockWeights]
    prediction: PredictionWeights
    joint: JointWeights


def _tensor_specs(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Flat, ordered (name, shape) pairs; the single source of model layout.

    Names are dotted weight-field paths (see _build). The order is both the
    file order and the seeded draw order of random_model.
    """
    enc = cfg.encoder
    D, H, d = enc.model_dim, enc.num_heads, enc.head_dim
    C, k = enc.subsample_channels, enc.subsample_kernel
    V = len(cfg.vocab)
    yield from [
        ("subsample.w1", (k, cfg.feat_dim, C)),
        ("subsample.b1", (C,)),
        ("subsample.w2", (k, C, C)),
        ("subsample.b2", (C,)),
        ("subsample.proj", (C, D)),
        ("subsample.proj_b", (D,)),
    ]
    for li in range(enc.num_layers):
        p = f"blocks.{li}"
        for ff in ("ffn1", "ffn2"):
            yield from [
                (f"{p}.{ff}.norm_gain", (D,)),
                (f"{p}.{ff}.norm_bias", (D,)),
                (f"{p}.{ff}.w1", (D, enc.ff_dim)),
                (f"{p}.{ff}.b1", (enc.ff_dim,)),
                (f"{p}.{ff}.w2", (enc.ff_dim, D)),
                (f"{p}.{ff}.b2", (D,)),
            ]
        yield from [(f"{p}.attn_norm_gain", (D,)), (f"{p}.attn_norm_bias", (D,))]
        for hi in range(H):
            for proj in ("w_q", "w_k", "w_v"):
                yield f"{p}.heads.{hi}.{proj}", (D, d)
        yield f"{p}.w_p", (H * d, D)
        yield from [
            (f"{p}.conv.norm_gain", (D,)),
            (f"{p}.conv.norm_bias", (D,)),
            (f"{p}.conv.pw1", (D, D)),
            (f"{p}.conv.pb1", (D,)),
            (f"{p}.conv.dw", (enc.conv_kernel, D)),
            (f"{p}.conv.db", (D,)),
            (f"{p}.conv.pw2", (D, D)),
            (f"{p}.conv.pb2", (D,)),
        ]
        yield from [(f"{p}.final_norm_gain", (D,)), (f"{p}.final_norm_bias", (D,))]
    yield from [
        ("prediction.embedding", (V, cfg.embed_dim)),
        ("prediction.lstm.w_x", (cfg.embed_dim, 4 * cfg.pred_dim)),
        ("prediction.lstm.w_h", (cfg.pred_dim, 4 * cfg.pred_dim)),
        ("prediction.lstm.bias", (4 * cfg.pred_dim,)),
        ("joint.enc_proj", (D, cfg.joint_dim)),
        ("joint.pred_proj", (cfg.pred_dim, cfg.joint_dim)),
        ("joint.bias", (cfg.joint_dim,)),
        ("joint.out", (cfg.joint_dim, V)),
        ("joint.out_bias", (V,)),
    ]


def _assemble(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> Model:
    """Build the weight tree from the flat spec names (see _build)."""
    tree: dict = {"config": cfg}
    for name, _ in _tensor_specs(cfg):
        *path, leaf = name.split(".")
        node = tree
        for key in path:
            node = node.setdefault(key, {})
        node[leaf] = tensors[name]
    return _build(Model, tree)


_field_types = functools.cache(get_type_hints)


def _build(hint, node):
    """Instantiate type `hint` from a nested dict of spec-name parts.

    List items are read by integer key. A nested weight group with no key
    of its own (a block's `mh`) is read from the enclosing level.
    """
    if not isinstance(node, dict):
        return node
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return [_build(item, node[str(i)]) for i in range(len(node))]
    hints = _field_types(hint)
    return hint(**{f.name: _build(hints[f.name], node.get(f.name, node))
                   for f in fields(hint)})


def _flatten(obj, prefix: str, out: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every array under obj by dotted path, the inverse of _build: a nested
    group is listed under its own key and again at the enclosing level."""
    if isinstance(obj, np.ndarray):
        out[prefix[:-1]] = obj
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(item, f"{prefix}{i}.", out)
    elif is_dataclass(obj):
        for f in fields(obj):
            child = getattr(obj, f.name)
            _flatten(child, f"{prefix}{f.name}.", out)
            if is_dataclass(child):
                _flatten(child, prefix, out)
    return out


def model_tensors(m: Model) -> dict[str, np.ndarray]:
    """Flat name -> array view of every tensor, in canonical layout order."""
    flat = _flatten(m, "", {})
    return {name: flat[name] for name, _ in _tensor_specs(m.config)}


class SplitMix64:
    """SplitMix64 generator; update equations documented in the README."""

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        """The next draw; the scalar reference for uniform_array."""
        self.state = (self.state + self._GAMMA) & self._MASK
        return self._mix(self.state)

    @staticmethod
    def _mix(z):
        """The output function, on a Python int or a uint64 array alike."""
        mask = SplitMix64._MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform_array(self, shape: tuple[int, ...], scale: float) -> np.ndarray:
        """The next prod(shape) draws as next_float gives them, mapped to
        [-scale, scale). The stream is counter-based (draw i reads state
        seed + i * gamma mod 2^64), so all draws are formed at once."""
        n = int(np.prod(shape))
        i = np.arange(1, n + 1, dtype=np.uint64)
        # uint64 arithmetic wraps mod 2^64
        states = np.uint64(self.state) + i * np.uint64(self._GAMMA)
        self.state = (self.state + n * self._GAMMA) & self._MASK
        vals = (self._mix(states) >> np.uint64(11)) * (2.0 ** -53)
        return ((2.0 * vals - 1.0) * scale).reshape(shape)


def _fan_in(shape: tuple[int, ...]) -> int:
    if len(shape) < 2:
        return 1
    return int(np.prod(shape[:-1]))


def random_model(cfg: ModelConfig, seed: int) -> Model:
    """Seeded model: every tensor uniform(-s, s) with s = 1/sqrt(fan_in)."""
    rng = SplitMix64(seed)
    tensors = {}
    for name, shape in _tensor_specs(cfg):
        tensors[name] = rng.uniform_array(shape, 1.0 / np.sqrt(_fan_in(shape)))
        # norms start neutral so an untrained model is well-scaled
        if name.endswith("norm_gain"):
            tensors[name] = np.ones(shape)
        elif name.endswith("norm_bias"):
            tensors[name] = np.zeros(shape)
    return _assemble(cfg, tensors)


def save_model(m: Model, path) -> None:
    tensors = model_tensors(m)
    blob_parts = []
    index = []
    offset = 0
    for name, shape in _tensor_specs(m.config):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        if arr.shape != shape:
            raise ModelFormatError(
                f"tensor {name} has shape {arr.shape}, config implies {shape}"
            )
        index.append({"name": name, "shape": list(shape), "offset": offset})
        blob_parts.append(arr.tobytes())
        offset += arr.nbytes
    blob = b"".join(blob_parts)
    manifest = {
        "magic": _MAGIC,
        "config": m.config.to_dict(),
        "tensors": index,
        "blob_bytes": len(blob),
        "blob_crc32": zlib.crc32(blob),
    }
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    with atomic_output(path, "wb") as fh:
        fh.write(payload.encode("utf-8"))
        fh.write(b"\x00")
        fh.write(blob)


# bytes read at a time while looking for the end of the manifest
_HEAD_CHUNK = 1 << 14


def _read_file(path) -> tuple[bytes, np.ndarray]:
    """The manifest bytes before the NUL separator, and the blob after it,
    read once into uint8 storage that starts on an 8-byte boundary: a
    tensor at a multiple of 8 bytes into it is then an aligned float64
    view, which numpy need not copy before a matmul."""
    with open(path, "rb") as fh:
        head = b""
        while (sep := head.find(b"\x00")) < 0:
            chunk = fh.read(_HEAD_CHUNK)
            if not chunk:
                raise ModelFormatError(f"{path}: missing manifest separator")
            head += chunk
        head = head[:sep]
        fh.seek(sep + 1)
        size = os.fstat(fh.fileno()).st_size - (sep + 1)
        # float64 storage is aligned to 8 bytes
        blob = np.empty(-(-size // 8), dtype="<f8").view(np.uint8)[:size]
        return head, blob[: fh.readinto(blob)]


def load_model(path) -> Model:
    """The model in a file, its tensors views of one buffer read once."""
    head, blob = _read_file(path)
    try:
        cfg, tensors = _read_tensors(path, head, blob)
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        # a config the classes reject (ParameterError) is a fault of the file
        raise ModelFormatError(f"{path}: malformed manifest ({exc!r})") from exc
    for name, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: tensor {name} holds non-finite values")
    return _assemble(cfg, tensors)


def _read_tensors(path, head: bytes, blob: np.ndarray):
    """The config and every tensor, a view of the uint8 blob, with the
    manifest checked against the blob."""
    manifest = json.loads(head.decode("utf-8"))
    if manifest.get("magic") != _MAGIC:
        raise ModelFormatError(f"{path}: not a {_MAGIC} file")
    if len(blob) != manifest["blob_bytes"]:
        raise ModelFormatError(
            f"{path}: blob truncated ({len(blob)} of {manifest['blob_bytes']!r} bytes)"
        )
    if zlib.crc32(blob) != manifest["blob_crc32"]:
        raise ModelFormatError(f"{path}: blob checksum mismatch")
    cfg = ModelConfig.from_dict(manifest["config"])
    entries = {entry["name"]: entry for entry in manifest["tensors"]}
    tensors = {}
    # the spec is lazy: a config naming more tensors than the file holds
    # stops at the first missing one
    start = 0
    for name, shape in _tensor_specs(cfg):
        if name not in entries:
            raise ModelFormatError(f"{path}: missing tensor {name}")
        found, offset = tuple(entries[name]["shape"]), entries[name]["offset"]
        end = start + 8 * math.prod(shape)
        if found != shape:
            raise ModelFormatError(
                f"{path}: tensor {name} has shape {found}, config implies {shape}"
            )
        # the layout save_model writes: back to back, in spec order, so no
        # two tensors can share bytes
        if type(offset) is not int or offset != start or end > len(blob):
            raise ModelFormatError(
                f"{path}: tensor {name} at offset {offset!r}, expected {start} "
                f"with {8 * math.prod(shape)} bytes in a blob of {len(blob)}"
            )
        tensors[name] = blob[start:end].view("<f8").reshape(shape)
        start = end
    extra = set(entries).difference(tensors)
    if extra:
        raise ModelFormatError(f"{path}: unexpected tensor {sorted(map(str, extra))[0]!r}")
    if start != len(blob):
        raise ModelFormatError(
            f"{path}: tensors end at byte {start}, the blob at {len(blob)}"
        )
    return cfg, tensors

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
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any

import numpy as np

from .attention import AttentionHeadWeights, MultiHeadWeights
from .encoder import (ConformerBlockWeights, ConvModuleWeights, EncoderConfig,
                      FeedForwardWeights, SubsampleWeights, check_fields)
from .errors import DataError, ModelFormatError, ParameterError
from .frontend import atomic_output
from .numerics import LstmWeights, row_matmul

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

        Each row has the bits of its lone product (row_matmul). Built on
        first use, which makes `embedding` and `lstm.w_x` read-only: an
        in-place edit afterwards raises instead of leaving the table stale.
        """
        self.embedding.setflags(write=False)
        self.lstm.w_x.setflags(write=False)
        return row_matmul(np.pad(self.embedding, ((0, 1), (0, 0))), self.lstm.w_x)


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


def _layout(cfg: ModelConfig, take: Callable[[str, tuple[int, ...]], Any]) -> Model:
    """The model whose every tensor is take(name, shape), called once per
    tensor in the one model layout: the order of the tensors in a file and
    of a seed's draws in random_model.

    Names are the dotted paths of the weight fields; a block's attention
    weights are named at the block level (blocks.3.heads.1.w_k, blocks.3.w_p).
    """
    enc = cfg.encoder
    D, H, d, F = enc.model_dim, enc.num_heads, enc.head_dim, enc.ff_dim
    C, k = enc.subsample_channels, enc.subsample_kernel
    V, E, P, J = len(cfg.vocab), cfg.embed_dim, cfg.pred_dim, cfg.joint_dim

    def group(cls, prefix: str, **shapes):
        return cls(**{key: take(prefix + key, shape) for key, shape in shapes.items()})

    def block(p: str) -> ConformerBlockWeights:
        ffn1, ffn2 = (group(FeedForwardWeights, f"{p}{ff}.", norm_gain=(D,),
                            norm_bias=(D,), w1=(D, F), b1=(F,), w2=(F, D), b2=(D,))
                      for ff in ("ffn1", "ffn2"))
        attn_norm = group(dict, p, attn_norm_gain=(D,), attn_norm_bias=(D,))
        heads = [group(AttentionHeadWeights, f"{p}heads.{h}.",
                       w_q=(D, d), w_k=(D, d), w_v=(D, d)) for h in range(H)]
        mh = MultiHeadWeights(heads=heads, w_p=take(f"{p}w_p", (H * d, D)))
        conv = group(ConvModuleWeights, f"{p}conv.", norm_gain=(D,), norm_bias=(D,),
                     pw1=(D, D), pb1=(D,), dw=(enc.conv_kernel, D), db=(D,),
                     pw2=(D, D), pb2=(D,))
        final_norm = group(dict, p, final_norm_gain=(D,), final_norm_bias=(D,))
        return ConformerBlockWeights(ffn1=ffn1, **attn_norm, mh=mh, conv=conv,
                                     ffn2=ffn2, **final_norm)

    # keyword arguments are evaluated in the order written, which is the layout
    return Model(
        config=cfg,
        subsample=group(SubsampleWeights, "subsample.", w1=(k, cfg.feat_dim, C),
                        b1=(C,), w2=(k, C, C), b2=(C,), proj=(C, D), proj_b=(D,)),
        blocks=[block(f"blocks.{li}.") for li in range(enc.num_layers)],
        prediction=PredictionWeights(
            embedding=take("prediction.embedding", (V, E)),
            lstm=group(LstmWeights, "prediction.lstm.", w_x=(E, 4 * P),
                       w_h=(P, 4 * P), bias=(4 * P,))),
        joint=group(JointWeights, "joint.", enc_proj=(D, J), pred_proj=(P, J),
                    bias=(J,), out=(J, V), out_bias=(V,)),
    )


def _pair(names, node, out: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every array under node, keyed by the leaf at its place in names, a
    tree that _layout built with names for tensors."""
    if isinstance(node, np.ndarray):
        out[names] = node
    elif isinstance(node, list):
        for item_names, item in zip(names, node, strict=True):
            _pair(item_names, item, out)
    elif is_dataclass(node):
        for f in fields(node):
            _pair(getattr(names, f.name), getattr(node, f.name), out)
    return out


def model_tensors(m: Model) -> dict[str, np.ndarray]:
    """Flat name -> array view of every tensor, in layout order."""
    order = []
    names = _layout(m.config, lambda name, shape: order.append(name) or name)
    return _pair(names, m, dict.fromkeys(order))


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

    def draw(name: str, shape: tuple[int, ...]) -> np.ndarray:
        arr = rng.uniform_array(shape, 1.0 / np.sqrt(_fan_in(shape)))
        # norms start neutral so an untrained model is well-scaled
        if name.endswith("norm_gain"):
            return np.ones(shape)
        if name.endswith("norm_bias"):
            return np.zeros(shape)
        return arr

    return _layout(cfg, draw)


def save_model(m: Model, path) -> None:
    tensors = model_tensors(m)
    index = []
    blob = bytearray()

    def write(name: str, shape: tuple[int, ...]) -> None:
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        if arr.shape != shape:
            raise ModelFormatError(
                f"tensor {name} has shape {arr.shape}, config implies {shape}"
            )
        index.append({"name": name, "shape": list(shape), "offset": len(blob)})
        blob.extend(arr.tobytes())

    _layout(m.config, write)
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
        model, tensors = _read_tensors(path, head, blob)
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        # a config the classes reject (ParameterError) is a fault of the file
        raise ModelFormatError(f"{path}: malformed manifest ({exc!r})") from exc
    for name, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: tensor {name} holds non-finite values")
    return model


def _read_tensors(path, head: bytes, blob: np.ndarray):
    """The model and every tensor by name, a view of the uint8 blob, with
    the manifest checked against the blob."""
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
    entries = {}
    for entry in manifest["tensors"]:
        if entry["name"] in entries:
            raise ModelFormatError(f"{path}: tensor {entry['name']!r} listed twice")
        entries[entry["name"]] = entry
    tensors = {}
    start = 0

    def read(name: str, shape: tuple[int, ...]) -> np.ndarray:
        nonlocal start
        if name not in entries:
            raise ModelFormatError(f"{path}: missing tensor {name}")
        found, offset = tuple(entries[name]["shape"]), entries[name]["offset"]
        end = start + 8 * math.prod(shape)
        if found != shape:
            raise ModelFormatError(
                f"{path}: tensor {name} has shape {found}, config implies {shape}"
            )
        # the layout save_model writes: back to back, in layout order, so no
        # two tensors can share bytes
        if type(offset) is not int or offset != start or end > len(blob):
            raise ModelFormatError(
                f"{path}: tensor {name} at offset {offset!r}, expected {start} "
                f"with {8 * math.prod(shape)} bytes in a blob of {len(blob)}"
            )
        tensors[name] = blob[start:end].view("<f8").reshape(shape)
        start = end
        return tensors[name]

    # a config naming more tensors than the file holds stops at the first
    # missing one
    model = _layout(cfg, read)
    extra = set(entries).difference(tensors)
    if extra:
        raise ModelFormatError(f"{path}: unexpected tensor {sorted(map(str, extra))[0]!r}")
    if start != len(blob):
        raise ModelFormatError(
            f"{path}: tensors end at byte {start}, the blob at {len(blob)}"
        )
    return model, tensors

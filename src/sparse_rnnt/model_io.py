"""Model container, seeded random initialization, and file serialization.

File layout: a JSON manifest (config, tensor index with name/shape/offset,
blob CRC32), a single NUL byte, then all tensors concatenated as
little-endian float64 in manifest order. The PRNG behind random_model is
SplitMix64, pinned by its update equations (see README) so a seed means
the same weights everywhere.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import (
    ConformerBlockWeights,
    ConvModuleWeights,
    EncoderConfig,
    FeedForwardWeights,
    SubsampleWeights,
)
from .attention import AttentionHeadWeights, MultiHeadWeights
from .errors import DataError, ModelFormatError, ParameterError
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
        if not 0 <= self.blank_id < len(self.tokens):
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

    @classmethod
    def desk_scale(cls) -> "ModelConfig":
        return cls(feat_dim=16, encoder=EncoderConfig.desk_scale(),
                   embed_dim=16, pred_dim=16, joint_dim=16)

    def to_dict(self) -> dict:
        enc = self.encoder
        return {
            "feat_dim": self.feat_dim,
            "encoder": {
                "num_layers": enc.num_layers,
                "model_dim": enc.model_dim,
                "num_heads": enc.num_heads,
                "head_dim": enc.head_dim,
                "ff_dim": enc.ff_dim,
                "conv_kernel": enc.conv_kernel,
                "subsample_channels": enc.subsample_channels,
                "subsample_stride": enc.subsample_stride,
                "subsample_kernel": enc.subsample_kernel,
                "use_sinusoidal_pe": enc.use_sinusoidal_pe,
            },
            "embed_dim": self.embed_dim,
            "pred_dim": self.pred_dim,
            "joint_dim": self.joint_dim,
            "vocab": {"tokens": self.vocab.tokens, "blank_id": self.vocab.blank_id},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            feat_dim=d["feat_dim"],
            encoder=EncoderConfig(**d["encoder"]),
            embed_dim=d["embed_dim"],
            pred_dim=d["pred_dim"],
            joint_dim=d["joint_dim"],
            vocab=Vocabulary(d["vocab"]["tokens"], d["vocab"]["blank_id"]),
        )


@dataclass
class PredictionWeights:
    embedding: np.ndarray  # (|V|, embed_dim)
    lstm: LstmWeights


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


def _tensor_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Flat, ordered (name, shape) list; the single source of model layout."""
    enc = cfg.encoder
    D, H, d = enc.model_dim, enc.num_heads, enc.head_dim
    C, k = enc.subsample_channels, enc.subsample_kernel
    V = len(cfg.vocab)
    specs: list[tuple[str, tuple[int, ...]]] = [
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
            specs += [
                (f"{p}.{ff}.norm_gain", (D,)),
                (f"{p}.{ff}.norm_bias", (D,)),
                (f"{p}.{ff}.w1", (D, enc.ff_dim)),
                (f"{p}.{ff}.b1", (enc.ff_dim,)),
                (f"{p}.{ff}.w2", (enc.ff_dim, D)),
                (f"{p}.{ff}.b2", (D,)),
            ]
        specs += [(f"{p}.attn_norm_gain", (D,)), (f"{p}.attn_norm_bias", (D,))]
        for hi in range(H):
            for proj in ("w_q", "w_k", "w_v"):
                specs.append((f"{p}.heads.{hi}.{proj}", (D, d)))
        specs.append((f"{p}.w_p", (H * d, D)))
        specs += [
            (f"{p}.conv.norm_gain", (D,)),
            (f"{p}.conv.norm_bias", (D,)),
            (f"{p}.conv.pw1", (D, D)),
            (f"{p}.conv.pb1", (D,)),
            (f"{p}.conv.dw", (enc.conv_kernel, D)),
            (f"{p}.conv.db", (D,)),
            (f"{p}.conv.pw2", (D, D)),
            (f"{p}.conv.pb2", (D,)),
        ]
        specs += [(f"{p}.final_norm_gain", (D,)), (f"{p}.final_norm_bias", (D,))]
    specs += [
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
    return specs


def _assemble(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> Model:
    enc = cfg.encoder

    def ff(p):
        return FeedForwardWeights(
            tensors[f"{p}.norm_gain"], tensors[f"{p}.norm_bias"],
            tensors[f"{p}.w1"], tensors[f"{p}.b1"],
            tensors[f"{p}.w2"], tensors[f"{p}.b2"],
        )

    blocks = []
    for li in range(enc.num_layers):
        p = f"blocks.{li}"
        heads = [
            AttentionHeadWeights(
                tensors[f"{p}.heads.{hi}.w_q"],
                tensors[f"{p}.heads.{hi}.w_k"],
                tensors[f"{p}.heads.{hi}.w_v"],
            )
            for hi in range(enc.num_heads)
        ]
        blocks.append(
            ConformerBlockWeights(
                ffn1=ff(f"{p}.ffn1"),
                attn_norm_gain=tensors[f"{p}.attn_norm_gain"],
                attn_norm_bias=tensors[f"{p}.attn_norm_bias"],
                mh=MultiHeadWeights(heads, tensors[f"{p}.w_p"]),
                conv=ConvModuleWeights(
                    tensors[f"{p}.conv.norm_gain"], tensors[f"{p}.conv.norm_bias"],
                    tensors[f"{p}.conv.pw1"], tensors[f"{p}.conv.pb1"],
                    tensors[f"{p}.conv.dw"], tensors[f"{p}.conv.db"],
                    tensors[f"{p}.conv.pw2"], tensors[f"{p}.conv.pb2"],
                ),
                ffn2=ff(f"{p}.ffn2"),
                final_norm_gain=tensors[f"{p}.final_norm_gain"],
                final_norm_bias=tensors[f"{p}.final_norm_bias"],
            )
        )
    return Model(
        config=cfg,
        subsample=SubsampleWeights(
            tensors["subsample.w1"], tensors["subsample.b1"],
            tensors["subsample.w2"], tensors["subsample.b2"],
            tensors["subsample.proj"], tensors["subsample.proj_b"],
        ),
        blocks=blocks,
        prediction=PredictionWeights(
            tensors["prediction.embedding"],
            LstmWeights(
                tensors["prediction.lstm.w_x"],
                tensors["prediction.lstm.w_h"],
                tensors["prediction.lstm.bias"],
            ),
        ),
        joint=JointWeights(
            tensors["joint.enc_proj"], tensors["joint.pred_proj"],
            tensors["joint.bias"], tensors["joint.out"], tensors["joint.out_bias"],
        ),
    )


def model_tensors(m: Model) -> dict[str, np.ndarray]:
    """Flat name -> array view of every tensor, in canonical layout order."""
    enc = m.config.encoder
    out: dict[str, np.ndarray] = {
        "subsample.w1": m.subsample.w1, "subsample.b1": m.subsample.b1,
        "subsample.w2": m.subsample.w2, "subsample.b2": m.subsample.b2,
        "subsample.proj": m.subsample.proj, "subsample.proj_b": m.subsample.proj_b,
    }
    for li, block in enumerate(m.blocks):
        p = f"blocks.{li}"
        for name, ffw in (("ffn1", block.ffn1), ("ffn2", block.ffn2)):
            out[f"{p}.{name}.norm_gain"] = ffw.norm_gain
            out[f"{p}.{name}.norm_bias"] = ffw.norm_bias
            out[f"{p}.{name}.w1"] = ffw.w1
            out[f"{p}.{name}.b1"] = ffw.b1
            out[f"{p}.{name}.w2"] = ffw.w2
            out[f"{p}.{name}.b2"] = ffw.b2
        out[f"{p}.attn_norm_gain"] = block.attn_norm_gain
        out[f"{p}.attn_norm_bias"] = block.attn_norm_bias
        for hi, head in enumerate(block.mh.heads):
            out[f"{p}.heads.{hi}.w_q"] = head.w_q
            out[f"{p}.heads.{hi}.w_k"] = head.w_k
            out[f"{p}.heads.{hi}.w_v"] = head.w_v
        out[f"{p}.w_p"] = block.mh.w_p
        cv = block.conv
        out[f"{p}.conv.norm_gain"] = cv.norm_gain
        out[f"{p}.conv.norm_bias"] = cv.norm_bias
        out[f"{p}.conv.pw1"] = cv.pw1
        out[f"{p}.conv.pb1"] = cv.pb1
        out[f"{p}.conv.dw"] = cv.dw
        out[f"{p}.conv.db"] = cv.db
        out[f"{p}.conv.pw2"] = cv.pw2
        out[f"{p}.conv.pb2"] = cv.pb2
        out[f"{p}.final_norm_gain"] = block.final_norm_gain
        out[f"{p}.final_norm_bias"] = block.final_norm_bias
    out["prediction.embedding"] = m.prediction.embedding
    out["prediction.lstm.w_x"] = m.prediction.lstm.w_x
    out["prediction.lstm.w_h"] = m.prediction.lstm.w_h
    out["prediction.lstm.bias"] = m.prediction.lstm.bias
    out["joint.enc_proj"] = m.joint.enc_proj
    out["joint.pred_proj"] = m.joint.pred_proj
    out["joint.bias"] = m.joint.bias
    out["joint.out"] = m.joint.out
    out["joint.out_bias"] = m.joint.out_bias
    return out


class SplitMix64:
    """SplitMix64 generator; update equations documented in the README."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform_array(self, shape: tuple[int, ...], scale: float) -> np.ndarray:
        n = int(np.prod(shape))
        vals = np.array([self.next_float() for _ in range(n)])
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
    # norm gains start at 1 so an untrained model is well-scaled
    for name in list(tensors):
        if name.endswith("norm_gain"):
            tensors[name] = np.ones_like(tensors[name])
        elif name.endswith("norm_bias"):
            tensors[name] = np.zeros_like(tensors[name])
    return _assemble(cfg, tensors)


def save_model(m: Model, path) -> None:
    specs = _tensor_specs(m.config)
    tensors = model_tensors(m)
    blob_parts = []
    index = []
    offset = 0
    for name, shape in specs:
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        if arr.shape != shape:
            raise ModelFormatError(
                f"tensor {name} has shape {arr.shape}, config implies {shape}"
            )
        raw = arr.tobytes()
        index.append({"name": name, "shape": list(shape), "offset": offset})
        blob_parts.append(raw)
        offset += len(raw)
    blob = b"".join(blob_parts)
    manifest = {
        "magic": _MAGIC,
        "config": m.config.to_dict(),
        "tensors": index,
        "blob_bytes": len(blob),
        "blob_crc32": zlib.crc32(blob),
    }
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload.encode("utf-8"))
        fh.write(b"\x00")
        fh.write(blob)
    os.replace(tmp, path)


def load_model(path) -> Model:
    raw = Path(path).read_bytes()
    sep = raw.find(b"\x00")
    if sep < 0:
        raise ModelFormatError(f"{path}: missing manifest separator")
    try:
        manifest = json.loads(raw[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: unreadable manifest ({exc})") from exc
    if manifest.get("magic") != _MAGIC:
        raise ModelFormatError(f"{path}: not a {_MAGIC} file")
    blob = raw[sep + 1 :]
    if len(blob) != manifest["blob_bytes"]:
        raise ModelFormatError(
            f"{path}: blob truncated ({len(blob)} of {manifest['blob_bytes']} bytes)"
        )
    if zlib.crc32(blob) != manifest["blob_crc32"]:
        raise ModelFormatError(f"{path}: blob checksum mismatch")
    cfg = ModelConfig.from_dict(manifest["config"])
    specs = dict(_tensor_specs(cfg))
    tensors = {}
    for entry in manifest["tensors"]:
        name = entry["name"]
        shape = tuple(entry["shape"])
        if name not in specs:
            raise ModelFormatError(f"{path}: unexpected tensor {name}")
        if shape != specs[name]:
            raise ModelFormatError(
                f"{path}: tensor {name} has shape {shape}, config implies "
                f"{specs[name]}"
            )
        count = int(np.prod(shape))
        start = entry["offset"]
        end = start + count * 8
        if end > len(blob):
            raise ModelFormatError(f"{path}: tensor {name} extends past blob end")
        tensors[name] = np.frombuffer(blob[start:end], dtype="<f8").reshape(shape).copy()
        if not np.isfinite(tensors[name]).all():
            raise DataError(f"{path}: tensor {name} holds non-finite values")
    missing = set(specs) - set(tensors)
    if missing:
        raise ModelFormatError(f"{path}: missing tensor {sorted(missing)[0]}")
    return _assemble(cfg, tensors)

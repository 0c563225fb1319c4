"""Conformer-style encoder: conv subsampling then macaron blocks.

Block layout per layer (pre-norm residuals):
half-step FFN -> masked multi-head self-attention -> depthwise conv
sublayer -> half-step FFN -> final layer norm.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .attention import MaskPolicy, MultiHeadWeights, sparse_attend
from .errors import DataError, EmptyInputError, ParameterError, ShapeError
from .frontend import FeatureMatrix
from .numerics import layer_norm, matmul, sigmoid

__all__ = [
    "EncoderConfig",
    "EncoderOutputs",
    "SubsampleWeights",
    "FeedForwardWeights",
    "ConvModuleWeights",
    "ConformerBlockWeights",
    "conv_subsample",
    "conformer_block_forward",
    "encode",
    "subsampled_length",
    "receptive_field",
    "check_int_and_bool_fields",
]


def check_int_and_bool_fields(cfg) -> None:
    """Raise ParameterError unless every int field of the dataclass is an
    int > 0 and every bool field a bool (neither takes the other)."""
    hints = get_type_hints(type(cfg))
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if hints[f.name] is int and (type(value) is not int or value <= 0):
            raise ParameterError(f"{f.name} must be a positive integer, got {value!r}")
        if hints[f.name] is bool and type(value) is not bool:
            raise ParameterError(f"{f.name} must be true or false, got {value!r}")


@dataclass
class EncoderConfig:
    """Architecture constants; defaults describe the full-scale model."""

    num_layers: int = 12
    model_dim: int = 256
    num_heads: int = 4
    head_dim: int = 64
    ff_dim: int = 1024
    conv_kernel: int = 15
    subsample_channels: int = 256
    subsample_stride: int = 2
    subsample_kernel: int = 3
    use_sinusoidal_pe: bool = False

    def __post_init__(self):
        check_int_and_bool_fields(self)  # sizes, kernels, strides and switches
        if self.model_dim != self.num_heads * self.head_dim:
            raise ParameterError(
                f"model_dim {self.model_dim} != num_heads {self.num_heads} "
                f"* head_dim {self.head_dim}"
            )
        if self.conv_kernel % 2 != 1:
            raise ParameterError(f"conv_kernel must be odd, got {self.conv_kernel}")

    @classmethod
    def desk_scale(cls) -> "EncoderConfig":
        """Small configuration sized for tests and quick experiments."""
        return cls(num_layers=4, model_dim=32, num_heads=4, head_dim=8,
                   ff_dim=64, conv_kernel=7, subsample_channels=8)


@dataclass
class EncoderOutputs:
    h: np.ndarray  # (T', model_dim)
    frame_rate: float  # seconds per output frame

    @property
    def length(self) -> int:
        return self.h.shape[0]


@dataclass
class SubsampleWeights:
    w1: np.ndarray  # (kernel, feat_dim, channels)
    b1: np.ndarray
    w2: np.ndarray  # (kernel, channels, channels)
    b2: np.ndarray
    proj: np.ndarray  # (channels, model_dim)
    proj_b: np.ndarray


@dataclass
class FeedForwardWeights:
    norm_gain: np.ndarray
    norm_bias: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class ConvModuleWeights:
    norm_gain: np.ndarray
    norm_bias: np.ndarray
    pw1: np.ndarray  # (model_dim, model_dim)
    pb1: np.ndarray
    dw: np.ndarray  # (kernel, model_dim), depthwise
    db: np.ndarray
    pw2: np.ndarray
    pb2: np.ndarray


@dataclass
class ConformerBlockWeights:
    ffn1: FeedForwardWeights
    attn_norm_gain: np.ndarray
    attn_norm_bias: np.ndarray
    mh: MultiHeadWeights
    conv: ConvModuleWeights
    ffn2: FeedForwardWeights
    final_norm_gain: np.ndarray
    final_norm_bias: np.ndarray


def _swish(x):
    return x * sigmoid(x)


def _conv1d_valid(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int):
    """Valid (unpadded) strided 1-D convolution along time; x (T, Cin)."""
    k = w.shape[0]
    T = x.shape[0]
    if T < k:
        raise EmptyInputError(f"input of {T} frames shorter than kernel {k}")
    T_out = (T - k) // stride + 1
    idx = np.arange(T_out)[:, None] * stride + np.arange(k)[None, :]
    windows = x[idx]  # (T_out, k, Cin)
    return np.einsum("tkc,kcd->td", windows, w) + b


def _stage_out(T: int, kernel: int, stride: int) -> int:
    return (T - kernel) // stride + 1


def subsampled_length(T: int, cfg: EncoderConfig) -> int:
    """Output length of the two-stage valid convolution subsampler."""
    if T < cfg.subsample_kernel:
        return 0
    t1 = _stage_out(T, cfg.subsample_kernel, cfg.subsample_stride)
    if t1 < cfg.subsample_kernel:
        return 0
    return _stage_out(t1, cfg.subsample_kernel, cfg.subsample_stride)


def conv_subsample(
    f: FeatureMatrix, weights: SubsampleWeights, cfg: EncoderConfig
) -> np.ndarray:
    """Two conv+ReLU stages with the configured stride, then linear projection."""
    if subsampled_length(f.num_frames, cfg) < 1:
        raise EmptyInputError(
            f"{f.num_frames} frames too short for two stages of "
            f"kernel {cfg.subsample_kernel}, stride {cfg.subsample_stride}"
        )
    x = _conv1d_valid(f.frames, weights.w1, weights.b1, cfg.subsample_stride)
    x = np.maximum(x, 0.0)
    x = _conv1d_valid(x, weights.w2, weights.b2, cfg.subsample_stride)
    x = np.maximum(x, 0.0)
    return matmul(x, weights.proj) + weights.proj_b


def _feed_forward(x: np.ndarray, w: FeedForwardWeights) -> np.ndarray:
    y = layer_norm(x, w.norm_gain, w.norm_bias)
    y = _swish(matmul(y, w.w1) + w.b1)
    return matmul(y, w.w2) + w.b2


def _depthwise_conv(x: np.ndarray, dw: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Length-preserving per-channel convolution with symmetric zero padding."""
    k = dw.shape[0]
    half = k // 2
    padded = np.pad(x, ((half, half), (0, 0)))
    T = x.shape[0]
    idx = np.arange(T)[:, None] + np.arange(k)[None, :]
    return np.einsum("tkd,kd->td", padded[idx], dw) + db


def _conv_module(x: np.ndarray, w: ConvModuleWeights) -> np.ndarray:
    y = layer_norm(x, w.norm_gain, w.norm_bias)
    y = matmul(y, w.pw1) + w.pb1
    y = _depthwise_conv(y, w.dw, w.db)
    y = _swish(y)
    return matmul(y, w.pw2) + w.pb2


def conformer_block_forward(x: np.ndarray, block: ConformerBlockWeights,
                            policy: MaskPolicy, observe: Callable | None = None
                            ) -> tuple[np.ndarray, object]:
    """One macaron block; returns its output and what observe returned on
    its attention pass (attention.sparse_attend), None without it."""
    x = x + 0.5 * _feed_forward(x, block.ffn1)
    attn_in = layer_norm(x, block.attn_norm_gain, block.attn_norm_bias)
    attn = sparse_attend(attn_in, block.mh, policy, observe)
    x = x + attn.output
    x = x + _conv_module(x, block.conv)
    x = x + 0.5 * _feed_forward(x, block.ffn2)
    x = layer_norm(x, block.final_norm_gain, block.final_norm_bias)
    return x, attn.observed


def _sinusoidal_pe(T: int, dim: int) -> np.ndarray:
    pos = np.arange(T)[:, None]
    i = np.arange(dim // 2)[None, :]
    angles = pos / (10000.0 ** (2 * i / dim))
    pe = np.zeros((T, dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def encode(f: FeatureMatrix, model, policy: MaskPolicy,
           observe: Callable | None = None) -> tuple[EncoderOutputs, list]:
    """Full encoder pass: subsample, optional PE, N conformer blocks.

    Also returns what observe returned on each layer's attention pass
    (conformer_block_forward), an empty list without it.
    """
    cfg = model.config.encoder
    if f.dim != model.config.feat_dim:
        raise ShapeError(
            f"feature dim {f.dim} != model feat_dim {model.config.feat_dim}"
        )
    # token times are output frame indices times frame_rate
    frame_rate = f.frame_shift * cfg.subsample_stride ** 2
    if not np.isfinite(frame_rate):
        raise DataError(f"frame_shift {f.frame_shift:g} s times the subsampling "
                        f"{cfg.subsample_stride ** 2} overflows a float")
    x = conv_subsample(f, model.subsample, cfg)
    if cfg.use_sinusoidal_pe:
        x = x + _sinusoidal_pe(x.shape[0], cfg.model_dim)
    observed = []
    for block in model.blocks:
        x, seen = conformer_block_forward(x, block, policy, observe)
        if observe is not None:
            observed.append(seen)
    return EncoderOutputs(x, frame_rate), observed


def receptive_field(cfg: EncoderConfig, policy: MaskPolicy, i: int, T_out: int,
                    T_in: int) -> tuple[int, int]:
    """Closed-form input-frame range that can influence output frame i.

    Only meaningful for the local-only policy (finite attention reach).
    Returns an inclusive (lo, hi) range of input frame indices.
    """
    if policy.variant != "local":
        raise ParameterError("receptive_field requires a local-only policy")
    per_block = policy.w + cfg.conv_kernel // 2
    reach = cfg.num_layers * per_block
    lo_sub = max(0, i - reach)
    hi_sub = min(T_out - 1, i + reach)
    s, k = cfg.subsample_stride, cfg.subsample_kernel
    lo_in = lo_sub * s * s
    hi_in = hi_sub * s * s + (k - 1) * s + (k - 1)
    return lo_in, min(hi_in, T_in - 1)

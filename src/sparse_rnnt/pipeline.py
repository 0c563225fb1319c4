"""End-to-end decoding pipeline: frontend -> segmentation -> encode -> decode."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import MaskPolicy
from .encoder import encode
from .errors import DataError, ParameterError
from .frontend import (
    FeatureMatrix,
    FrontendConfig,
    Waveform,
    compute_stats,
    frame_lengths,
    log_mel_spectrogram,
    normalize_global,
    read_feature_file,
    read_wav,
)
from .segmentation import Segment, TimedToken, doi_merge, doi_split, epd_split
from .transducer import SrsParams, decode_with_srs

__all__ = ["SegmentationSpec", "DecodeOptions", "DecodeResult", "decode_waveform",
           "decode_file", "encode_file", "parse_policy", "parse_segmentation",
           "read_input", "prepare_input", "decode_prepared"]


@dataclass
class SegmentationSpec:
    kind: str = "none"  # none | doi | epd
    doi_length: float | None = None
    overlap: float = 2.0

    def __post_init__(self):
        if self.kind not in ("none", "doi", "epd"):
            raise ParameterError(f"unknown segmentation {self.kind!r}")
        if not self.overlap >= 0:
            raise ParameterError(f"overlap must be >= 0, got {self.overlap}")
        if self.kind != "doi":
            return
        if self.doi_length is None or not self.doi_length > 2 * self.overlap:
            raise ParameterError(
                f"doi segmentation needs a length greater than twice the "
                f"overlap, got {self.doi_length} / {self.overlap}"
            )
        if not np.isfinite(self.doi_length):
            raise ParameterError(f"doi length must be finite, got {self.doi_length}")


@dataclass
class DecodeOptions:
    policy: MaskPolicy = field(default_factory=MaskPolicy.dense)
    beam: int = 4
    srs: SrsParams = field(default_factory=SrsParams)
    segmentation: SegmentationSpec = field(default_factory=SegmentationSpec)

    def __post_init__(self):
        if not self.beam >= 1:
            raise ParameterError(f"beam must be >= 1, got {self.beam}")


@dataclass
class DecodeResult:
    text: str
    tokens: list[TimedToken]
    attn_in: list  # per segment, each layer's attention input (T', model_dim)
    log_prob: float


def parse_policy(spec: str, w: int = 40) -> MaskPolicy:
    """Parse 'dense', 'local', or 'local+sgm{1,2,3}' into a mask policy."""
    spec = spec.strip().lower()
    if spec == "dense":
        return MaskPolicy.dense()
    if spec == "local":
        return MaskPolicy.local(w)
    if spec.startswith("local+sgm"):
        fusion = {"1": "sgm1_or", "2": "sgm2_per_head", "3": "sgm3_and"}.get(spec[-1])
        if fusion is None or spec not in ("local+sgm1", "local+sgm2", "local+sgm3"):
            raise ParameterError(f"unknown mask policy {spec!r}")
        return MaskPolicy.local_global(w, fusion)
    raise ParameterError(f"unknown mask policy {spec!r}")


def parse_segmentation(spec: str, overlap: float = 2.0) -> SegmentationSpec:
    """Parse 'none', 'epd', or 'doi:<seconds>'."""
    spec = spec.strip().lower()
    if spec == "none":
        return SegmentationSpec("none")
    if spec == "epd":
        return SegmentationSpec("epd")
    if spec.startswith("doi:"):
        try:
            length = float(spec[4:])
        except ValueError:
            raise ParameterError(f"bad doi length in segmentation {spec!r}") from None
        return SegmentationSpec("doi", doi_length=length, overlap=overlap)
    raise ParameterError(f"unknown segmentation {spec!r}")


def _segments_for(w: Waveform, spec: SegmentationSpec) -> list[Segment]:
    dur = w.duration
    if spec.kind == "none":
        return [Segment(0.0, dur, 0.0, dur)]
    if spec.kind == "doi":
        return doi_split(dur, spec.doi_length, spec.overlap)
    return epd_split(w)


def _features(w: Waveform, feat_dim: int) -> FeatureMatrix:
    # the filterbank size must match the model's input dimension
    f = log_mel_spectrogram(w, FrontendConfig(num_mels=feat_dim))
    return normalize_global(f, compute_stats(f))


def _decode_segment(model, f: FeatureMatrix, offset: float, opts: DecodeOptions):
    enc_out, attn_in = encode(f, model, opts.policy)
    transcript = decode_with_srs(enc_out, model, opts.beam, opts.srs)
    tokens = [
        TimedToken(tok, offset + frame * enc_out.frame_rate)
        for tok, frame in zip(transcript.token_ids, transcript.frames)
    ]
    return tokens, attn_in, transcript.log_prob


def decode_waveform(model, w: Waveform, opts: DecodeOptions) -> DecodeResult:
    """Segment, decode each piece, and merge tokens by core ownership."""
    return decode_prepared(model, prepare_input(model, w, opts.segmentation), opts)


def _min_input_frames(enc_cfg, sample_rate: int) -> int:
    """Smallest sample count yielding at least one encoder output frame."""
    win, hop = frame_lengths(FrontendConfig(), sample_rate)
    # the second stage needs k frames, the first stage k + (k - 1) * s for them
    k, s = enc_cfg.subsample_kernel, enc_cfg.subsample_stride
    t = k + (k - 1) * s
    return win + (t - 1) * hop


def read_input(path) -> Waveform | FeatureMatrix:
    """A .wav file as audio, any other file as a feature text file.

    A WAV whose sample rate the frontend cannot frame is a DataError
    naming the file.
    """
    path = Path(path)
    if path.suffix.lower() != ".wav":
        return read_feature_file(path)
    w = read_wav(path)
    try:
        frame_lengths(FrontendConfig(), w.sample_rate)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return w


def prepare_input(model, x: Waveform | FeatureMatrix, spec: SegmentationSpec):
    """Everything a decode reads before the encoder: (segment, features)
    pairs in time order. A feature matrix is one whole segment, as is
    (never segmented); a waveform gives each segment with its normalised
    features, None where the piece is too short to encode."""
    if isinstance(x, FeatureMatrix):
        d = x.num_frames * x.frame_shift
        return [(Segment(0.0, d, 0.0, d), x)]
    pieces = []
    min_frames = _min_input_frames(model.config.encoder, x.sample_rate)
    for seg in _segments_for(x, spec):
        lo = int(round(seg.start * x.sample_rate))
        hi = int(round(seg.end * x.sample_rate))
        piece = Waveform(x.samples[lo:hi], x.sample_rate)
        f = None
        if len(piece.samples) >= min_frames:
            f = _features(piece, model.config.feat_dim)
        pieces.append((seg, f))
    return pieces


def decode_prepared(model, prepared, opts: DecodeOptions) -> DecodeResult:
    """Encode and decode the output of prepare_input; under doi
    segmentation, tokens are merged by core ownership."""
    results = []
    all_attn_in = []
    total_lp = 0.0
    for seg, f in prepared:
        tokens = []
        if f is not None:
            tokens, attn_in, lp = _decode_segment(model, f, seg.start, opts)
            all_attn_in.append(attn_in)
            total_lp += lp
        results.append((seg, tokens))
    if opts.segmentation.kind == "doi" and results:
        merged = doi_merge(results)
    else:
        merged = [t for _, toks in results for t in toks]
    text = model.config.vocab.render([t.token_id for t in merged])
    return DecodeResult(text, merged, all_attn_in, total_lp)


def decode_file(model, path, opts: DecodeOptions) -> DecodeResult:
    """Decode a .wav (with segmentation) or a feature text file (as is)."""
    x = prepare_input(model, read_input(path), opts.segmentation)
    return decode_prepared(model, x, opts)


def encode_file(model, path, opts: DecodeOptions):
    """Encode a whole .wav or feature file, unsegmented, without decoding."""
    x = read_input(path)
    if isinstance(x, Waveform):
        x = _features(x, model.config.feat_dim)
    return encode(x, model, opts.policy)

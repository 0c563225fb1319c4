"""End-to-end decoding pipeline: frontend -> segmentation -> encode -> decode."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .attention import MaskPolicy, parse_policy
from .encoder import check_fields, encode, subsampled_length
from .errors import DataError, ParameterError
from .frontend import (
    FeatureMatrix,
    Waveform,
    compute_stats,
    frame_lengths,
    frame_start,
    frames_within,
    log_mel_spectrogram,
    normalize_global,
    read_feature_file,
    read_wav,
)
from .segmentation import Segment, TimedToken, check_doi, doi_merge, doi_split, epd_split
from .transducer import SrsParams, decode_with_srs

__all__ = ["SegmentationSpec", "DecodeOptions", "DecodeResult", "decode_waveform",
           "decode_file", "parse_policy", "parse_segmentation", "read_input",
           "prepare_input", "decode_prepared"]


@dataclass
class SegmentationSpec:
    kind: str = "none"  # none | doi | epd
    doi_length: float | None = None  # doi's window length, and only doi's

    def __post_init__(self):
        if self.kind not in ("none", "doi", "epd"):
            raise ParameterError(f"unknown segmentation {self.kind!r}")
        if self.kind == "doi":
            check_doi(self.doi_length)
        elif self.doi_length is not None:
            raise ParameterError(f"{self.kind} segmentation takes no doi length, "
                                 f"got {self.doi_length}")


@dataclass
class DecodeOptions:
    """What a decode does; the defaults are the bare `decode` command's."""

    policy: MaskPolicy = field(default_factory=MaskPolicy.dense)
    beam: int = 4
    srs: SrsParams | None = None  # None: the silence reset is off
    segmentation: SegmentationSpec = field(default_factory=SegmentationSpec)

    def __post_init__(self):
        check_fields(self)


@dataclass
class DecodeResult:
    text: str
    tokens: list[TimedToken]
    log_prob: float


def parse_segmentation(spec: str) -> SegmentationSpec:
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
        return SegmentationSpec("doi", doi_length=length)
    raise ParameterError(f"unknown segmentation {spec!r}")


def _segments_for(w: Waveform, spec: SegmentationSpec) -> list[Segment]:
    dur = w.duration
    if spec.kind == "none":
        return [Segment(0.0, dur, 0.0, dur)]
    if spec.kind == "doi":
        return doi_split(dur, spec.doi_length)
    return epd_split(w)


def decode_waveform(model, w: Waveform, opts: DecodeOptions) -> DecodeResult:
    """Segment, decode each piece, and merge tokens by core ownership."""
    return decode_prepared(model, prepare_input(model, w, opts.segmentation), opts)


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
        frame_lengths(w.sample_rate)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return w


def prepare_input(model, x: Waveform | FeatureMatrix, spec: SegmentationSpec):
    """Everything a decode reads before the encoder: (segment, features,
    start) triples in time order, start being the time of the features'
    first frame. A feature matrix is one whole segment, as is (never
    segmented). A waveform is framed once; each segment takes the frames
    that lie wholly inside it, normalised, or None where they are too few
    to encode."""
    if isinstance(x, FeatureMatrix):
        d = x.num_frames * x.frame_shift
        return [(Segment(0.0, d, 0.0, d), x, 0.0)]
    whole = None
    pieces = []
    for seg in _segments_for(x, spec):
        frames = frames_within(seg.start, seg.end, x.sample_rate)
        f = None
        if subsampled_length(len(frames), model.config.encoder) >= 1:
            if whole is None:
                # the filterbank size must match the model's input dimension
                whole = log_mel_spectrogram(x, model.config.feat_dim)
            f = FeatureMatrix(whole.frames[frames.start : frames.stop],
                              whole.frame_shift, whole.frame_length)
            f = normalize_global(f, compute_stats(f))
        pieces.append((seg, f, frame_start(frames.start, x.sample_rate)))
    return pieces


def decode_prepared(model, prepared, opts: DecodeOptions, observe=None) -> DecodeResult:
    """Encode and decode the output of prepare_input; under doi
    segmentation, tokens are merged by core ownership. observe, if given,
    sees every layer's attention pass of each segment encoded, in order
    (encoder.encode)."""
    results = []
    total_lp = 0.0
    for seg, f, start in prepared:
        tokens = []
        if f is not None:
            enc_out, _ = encode(f, model, opts.policy, observe)
            transcript = decode_with_srs(enc_out, model, opts.beam, opts.srs)
            tokens = [TimedToken(tok, start + frame * enc_out.frame_rate)
                      for tok, frame in zip(transcript.token_ids, transcript.frames)]
            total_lp += transcript.log_prob
        results.append((seg, tokens))
    if opts.segmentation.kind == "doi" and results:
        merged = doi_merge(results)
    else:
        merged = [t for _, toks in results for t in toks]
    text = model.config.vocab.render([t.token_id for t in merged])
    return DecodeResult(text, merged, total_lp)


def decode_file(model, path, opts: DecodeOptions, observe=None) -> DecodeResult:
    """Decode a .wav (with segmentation) or a feature text file (as is)."""
    x = prepare_input(model, read_input(path), opts.segmentation)
    return decode_prepared(model, x, opts, observe)

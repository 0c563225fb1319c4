"""Acoustic frontend: WAV I/O, log-mel features, global normalization."""

from __future__ import annotations

import wave
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AudioFormatError, DataError, EmptyInputError, ShapeError
from .numerics import row_matmul

__all__ = [
    "Waveform",
    "FeatureMatrix",
    "NormalizationStats",
    "WINDOW",
    "HOP",
    "read_wav",
    "write_wav",
    "frame_lengths",
    "frame_start",
    "frames_within",
    "strided_frames",
    "log_mel_spectrogram",
    "mel_filterbank",
    "hz_to_mel",
    "mel_to_hz",
    "compute_stats",
    "normalize_global",
    "read_feature_file",
    "write_feature_file",
    "read_text",
    "atomic_output",
]


@dataclass
class Waveform:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise AudioFormatError(f"invalid sample rate {self.sample_rate}")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class FeatureMatrix:
    frames: np.ndarray  # (T, F)
    frame_shift: float  # seconds
    frame_length: float  # seconds

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ShapeError(f"feature frames must be 2-D, got {self.frames.shape}")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


WINDOW = 0.025  # seconds of audio per frame
HOP = 0.010  # seconds between frame starts, before rounding to whole samples
_LOG_FLOOR = 1e-10  # mel energies are floored here before the log
_STD_FLOOR = 1e-10  # compute_stats floors each dimension's std here
# frames per batched FFT: bounds the frontend's temporaries (windowed
# frames, complex spectra) to a few MB whatever the input's length
_FRAME_BLOCK = 64


@dataclass
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape:
            raise ShapeError("mean/std length mismatch")
        if np.any(self.std <= 0):
            raise ShapeError("std entries must be positive")


def read_wav(path) -> Waveform:
    """Read a PCM16 RIFF/WAVE file, scaling samples by 1/32768; a file of
    several channels reads as its first."""
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getsampwidth() != 2:
                raise AudioFormatError(
                    f"{path}: only PCM16 supported, got sample width "
                    f"{wf.getsampwidth()}"
                )
            if wf.getcomptype() != "NONE":
                raise AudioFormatError(f"{path}: compressed WAV not supported")
            n = wf.getnframes()
            if n == 0:
                raise AudioFormatError(f"{path}: zero-length payload")
            raw = wf.readframes(n)
            rate = wf.getframerate()
            channels = wf.getnchannels()
    except FileNotFoundError as exc:
        raise AudioFormatError(f"{path}: no such file") from exc
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: malformed WAV ({exc})") from exc
    except RuntimeError as exc:  # wave's chunk reader, on a seek out of its chunk
        raise AudioFormatError(f"{path}: malformed WAV (chunk size out of range)") from exc
    except EOFError as exc:
        raise AudioFormatError(f"{path}: truncated WAV") from exc
    if len(raw) % (2 * channels):
        raise AudioFormatError(f"{path}: truncated WAV (data ends inside a frame)")
    # one float64 copy of the first channel, scaled in place: both steps
    # are exact, so the samples have the bits of a scaled copy
    data = np.frombuffer(raw, dtype="<i2")[::channels].astype(np.float64)
    data /= 32768.0
    return Waveform(data, rate)


def write_wav(path, w: Waveform) -> None:
    """Write mono PCM16 (test harness / synthetic-input helper)."""
    samples = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(w.sample_rate)
        wf.writeframes(samples.tobytes())


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(fft_size: int, sample_rate: int, num_mels: int) -> np.ndarray:
    """Triangular mel filterbank (HTK scale) from 0 Hz to Nyquist, shape
    (num_mels, fft_size//2 + 1)."""
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0),
                                     num_mels + 2))
    bin_freqs = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    fb = np.zeros((num_mels, bin_freqs.size))
    for m in range(num_mels):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def frame_lengths(sample_rate: int) -> tuple[int, int]:
    """Window and hop in whole samples at this rate; a DataError if they
    cannot frame it (the hop rounds to 0 or outgrows the window)."""
    win = int(round(WINDOW * sample_rate))
    hop = int(round(HOP * sample_rate))
    if hop <= 0 or win < hop:
        raise DataError(
            f"sample rate {sample_rate} Hz cannot be framed: the {WINDOW:g} s "
            f"window and {HOP:g} s hop are {win} and {hop} samples "
            f"(framing needs 1 <= hop <= window)")
    return win, hop


def frame_start(t, sample_rate: int) -> float:
    """Seconds at which frame t starts: t hops of whole samples, which is
    not t * HOP at every rate."""
    return t * frame_lengths(sample_rate)[1] / sample_rate


def frames_within(start: float, end: float, sample_rate: int) -> range:
    """The frames that lie wholly inside [start, end) seconds, each bound
    rounded to a whole sample; frame t spans samples [t * hop, t * hop + win)."""
    win, hop = frame_lengths(sample_rate)
    first = -(-int(round(start * sample_rate)) // hop)
    return range(first, (int(round(end * sample_rate)) - win) // hop + 1)


def strided_frames(w: Waveform) -> np.ndarray:
    """The (T, win) frames of w as a view of its samples: frame t is
    samples [t * hop, t * hop + win); none if w is shorter than a window."""
    win, hop = frame_lengths(w.sample_rate)
    if len(w.samples) < win:
        return np.empty((0, win))
    return np.lib.stride_tricks.sliding_window_view(w.samples, win)[::hop]


def log_mel_spectrogram(w: Waveform, num_mels: int = 80) -> FeatureMatrix:
    """Log mel-filterbank energies: Hann window, power spectrum, natural
    log; stamped with the hop and window as cut, in seconds."""
    if num_mels < 1:
        raise EmptyInputError(f"num_mels must be >= 1, got {num_mels}")
    framed = strided_frames(w)
    T, win = framed.shape
    if T == 0:
        raise EmptyInputError(
            f"utterance of {len(w.samples)} samples shorter than one "
            f"{win}-sample window"
        )
    # the least power of two that holds the window, at least 512 (the
    # length at 8 and 16 kHz)
    n_fft = max(512, 1 << (win - 1).bit_length())
    window_fn = np.hanning(win)
    fb = mel_filterbank(n_fft, w.sample_rate, num_mels)
    frames = np.empty((T, num_mels))
    for t in range(0, T, _FRAME_BLOCK):
        spectrum = np.abs(np.fft.rfft(framed[t : t + _FRAME_BLOCK] * window_fn,
                                      n=n_fft)) ** 2
        # fb.T as a view: a frame has the bits of its lone product (row_matmul)
        energies = row_matmul(spectrum, fb.T)
        frames[t : t + _FRAME_BLOCK] = np.log(np.maximum(energies, _LOG_FLOOR))
    return FeatureMatrix(frames, frame_start(1, w.sample_rate), win / w.sample_rate)


def compute_stats(f: FeatureMatrix) -> NormalizationStats:
    """Per-dimension mean/std over all frames; std floored to stay positive."""
    mean = f.frames.mean(axis=0)
    std = f.frames.std(axis=0)
    return NormalizationStats(mean, np.maximum(std, _STD_FLOOR))


def normalize_global(f: FeatureMatrix, stats: NormalizationStats) -> FeatureMatrix:
    if stats.mean.shape[0] != f.dim:
        raise ShapeError(
            f"stats dim {stats.mean.shape[0]} != feature dim {f.dim}"
        )
    return FeatureMatrix((f.frames - stats.mean) / stats.std, f.frame_shift,
                         f.frame_length)


def write_feature_file(path, f: FeatureMatrix) -> None:
    """Text format: header `T F frame_shift frame_length`, then T rows of F reals."""
    lines = [f"{f.num_frames} {f.dim} {f.frame_shift!r} {f.frame_length!r}"]
    for row in f.frames:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_text(path, error: type[Exception] = DataError) -> str:
    """A UTF-8 text file's contents; bytes that do not decode raise `error`
    naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text (byte {exc.start}: {exc.reason})"
        raise error(f"{path}: {reason}") from None


@contextmanager
def atomic_output(path, mode: str = "w"):
    """A file to write, opened as `<path>.tmp` (UTF-8 in text mode) and
    moved onto path when the block ends; on an error it is removed."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_feature_file(path) -> FeatureMatrix:
    text = read_text(path).strip().splitlines()
    if not text:
        raise EmptyInputError(f"{path}: empty feature file")
    head = text[0].split()
    if len(head) != 4:
        raise DataError(f"{path}: bad feature header {text[0]!r}")
    try:
        T, F = int(head[0]), int(head[1])
        shift, length = float(head[2]), float(head[3])
    except ValueError:
        raise DataError(f"{path}: bad feature header {text[0]!r}") from None
    if T < 0 or F < 1:
        raise DataError(f"{path}: feature header {text[0]!r}: needs T >= 0, F >= 1")
    if not (0 < shift < np.inf and 0 < length < np.inf):  # False for NaN
        raise DataError(f"{path}: feature header {text[0]!r}: frame_shift and "
                        f"frame_length must be finite and > 0")
    if len(text) - 1 != T:
        raise DataError(f"{path}: expected {T} rows, found {len(text) - 1}")
    # token times are frame indices times the shift: T of them must be finite
    if not np.isfinite(T * shift):
        raise DataError(f"{path}: feature header {text[0]!r}: {T} frames of "
                        f"{shift:g} s overflow a float")
    rows = []
    for i, line in enumerate(text[1:]):
        try:
            row = [float(v) for v in line.split()]
        except ValueError:
            raise DataError(f"{path}: row {i}: non-numeric value in {line!r}") from None
        if len(row) != F:
            raise DataError(f"{path}: row {i}: {len(row)} columns, expected {F}")
        if not np.isfinite(row).all():
            raise DataError(f"{path}: row {i}: non-finite value in {line!r}")
        rows.append(row)
    frames = np.array(rows, dtype=float).reshape(T, F)
    return FeatureMatrix(frames, shift, length)

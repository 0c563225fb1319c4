"""Long-form utterance handling: overlapped windowing and energy-VAD splits.

Windowed ("DOI") segmentation cuts fixed-length overlapping windows whose
non-overlapped core regions tile the utterance; tokens are owned by the
segment whose core contains their emission time. Energy-based endpoint
detection instead cuts at long silences, preserving intact utterances of
unbounded length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .frontend import Waveform

__all__ = [
    "Segment",
    "VadConfig",
    "TimedToken",
    "doi_split",
    "doi_merge",
    "epd_split",
]


@dataclass
class Segment:
    start: float
    end: float
    core_start: float
    core_end: float

    def __post_init__(self):
        if not self.start <= self.core_start <= self.core_end <= self.end:
            raise ParameterError(
                f"segment bounds out of order: {self.start}, {self.core_start}, "
                f"{self.core_end}, {self.end}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class VadConfig:
    frame: float = 0.025
    hop: float = 0.010
    energy_threshold_db: float = -40.0
    min_silence: float = 0.3
    min_segment: float = 0.2
    max_segment: float = 30.0

    def __post_init__(self):
        if self.min_silence <= 0:
            raise ParameterError("min_silence must be positive")
        if self.min_segment > self.max_segment:
            raise ParameterError("min_segment must not exceed max_segment")


@dataclass
class TimedToken:
    """A non-blank emission with its absolute time in seconds."""

    token_id: int
    time: float


def doi_split(duration: float, doi_length: float, overlap: float = 2.0) -> list[Segment]:
    """Overlapping windows of doi_length whose cores tile [0, duration).

    hop = doi_length - 2*overlap; boundary cores extend to the utterance
    edges so the cores partition the utterance exactly.
    """
    if duration <= 0:
        raise ParameterError(f"duration must be positive, got {duration}")
    if not np.isfinite(doi_length):
        raise ParameterError(f"doi length must be finite, got {doi_length}")
    if overlap < 0 or doi_length <= 2 * overlap:
        raise ParameterError(
            f"need doi_length > 2*overlap >= 0, got {doi_length} / {overlap}"
        )
    hop = doi_length - 2 * overlap
    segments = []
    k = 0
    while True:
        start = k * hop
        end = start + doi_length
        last = end >= duration
        segments.append(
            Segment(
                start=start,
                end=min(end, duration),
                core_start=0.0 if k == 0 else start + overlap,
                core_end=duration if last else end - overlap,
            )
        )
        if last:
            break
        k += 1
    return segments


def doi_merge(
    segment_results: list[tuple[Segment, list[TimedToken]]]
) -> list[TimedToken]:
    """Keep tokens decoded inside each segment's core; concatenate in order.

    Token times must already be absolute (utterance-relative) seconds.
    """
    if not segment_results:
        raise DataError("doi_merge requires at least one segment result")
    ordered = sorted(segment_results, key=lambda sr: sr[0].start)
    for (a, _), (b, _) in zip(ordered, ordered[1:]):
        if not np.isclose(a.core_end, b.core_start):
            raise DataError(
                f"segment cores do not abut: [{a.core_start}, {a.core_end}) then "
                f"[{b.core_start}, {b.core_end}) — missing segment result?"
            )
    merged: list[TimedToken] = []
    last = len(ordered) - 1
    for idx, (seg, tokens) in enumerate(ordered):
        for tok in tokens:
            inside = seg.core_start <= tok.time < seg.core_end
            # the final core is closed on the right so the last frame is owned
            if idx == last and np.isclose(tok.time, seg.core_end):
                inside = True
            if inside:
                merged.append(tok)
    return merged


def _frame_energies_db(w: Waveform, cfg: VadConfig) -> np.ndarray:
    win = max(1, int(round(cfg.frame * w.sample_rate)))
    hop = max(1, int(round(cfg.hop * w.sample_rate)))
    n = len(w.samples)
    if n < win:
        return np.empty(0)
    T = 1 + (n - win) // hop
    energies = np.empty(T)
    for t in range(T):
        seg = w.samples[t * hop : t * hop + win]
        energies[t] = 10.0 * np.log10(np.mean(seg ** 2) + 1e-12)
    return energies


def epd_split(w: Waveform, cfg: VadConfig | None = None) -> list[Segment]:
    """Energy-threshold VAD: speech runs split at silences >= min_silence.

    Short segments merge into a neighbor; segments over max_segment are
    force-split at their lowest-energy interior frame. Cores equal the
    full segments (no overlap trimming).
    """
    cfg = cfg or VadConfig()
    energies = _frame_energies_db(w, cfg)
    if energies.size == 0:
        return []
    speech = energies > cfg.energy_threshold_db
    if not speech.any():
        return []
    # frame runs of speech, merging gaps shorter than min_silence
    min_gap = max(1, int(round(cfg.min_silence / cfg.hop)))
    runs: list[list[int]] = []
    idx = np.flatnonzero(speech)
    start = prev = idx[0]
    for i in idx[1:]:
        if i - prev - 1 >= min_gap:
            runs.append([start, prev])
            start = i
        prev = i
    runs.append([start, prev])
    # to seconds; a frame spans [t*hop, t*hop + frame)
    intervals = [[s * cfg.hop, e * cfg.hop + cfg.frame] for s, e in runs]
    # absorb too-short segments into the nearest neighbor
    changed = True
    while changed and len(intervals) > 1:
        changed = False
        for i, (s, e) in enumerate(intervals):
            if e - s < cfg.min_segment:
                if i == 0:
                    j = 1
                elif i == len(intervals) - 1:
                    j = i - 1
                else:
                    j = i - 1 if s - intervals[i - 1][1] <= intervals[i + 1][0] - e else i + 1
                lo, hi = min(i, j), max(i, j)
                intervals[lo] = [intervals[lo][0], intervals[hi][1]]
                del intervals[hi]
                changed = True
                break
    # force-split anything longer than max_segment at its quietest frame
    final: list[list[float]] = []
    stack = list(intervals)
    while stack:
        s, e = stack.pop(0)
        if e - s <= cfg.max_segment:
            final.append([s, e])
            continue
        # cut only where the left piece stays within max_segment and the
        # right piece is guaranteed to shrink
        lo_t = max(s + cfg.min_segment, e - cfg.max_segment)
        hi_t = min(e - cfg.min_segment, s + cfg.max_segment)
        if lo_t >= hi_t:
            cut = (s + e) / 2.0
        else:
            f_lo = int(np.ceil(lo_t / cfg.hop))
            f_hi = max(f_lo + 1, int(np.floor(hi_t / cfg.hop)))
            f_hi = min(f_hi, energies.size)
            window = energies[f_lo:f_hi]
            cut = (f_lo + int(np.argmin(window))) * cfg.hop
        final.append([s, cut])
        stack.insert(0, [cut, e])
    final.sort()
    dur = w.duration
    return [
        Segment(start=max(0.0, s), end=min(e, dur), core_start=max(0.0, s),
                core_end=min(e, dur))
        for s, e in final
        if e > s
    ]

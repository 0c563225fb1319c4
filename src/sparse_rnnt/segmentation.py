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
        # a longer frame outlasts the gap between speech runs or a forced
        # piece, so segments would overlap and audio be decoded twice
        if not self.frame < min(self.min_silence, self.max_segment):
            raise ParameterError(
                f"frame ({self.frame:g} s) must be shorter than min_silence "
                f"({self.min_silence:g} s) and max_segment ({self.max_segment:g} s)")


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


# VAD frames squared at once: 13 MB of 25 ms windows at 16 kHz
_ENERGY_BLOCK = 4096


def _frame_energies_db(w: Waveform, cfg: VadConfig) -> np.ndarray:
    win = max(1, int(round(cfg.frame * w.sample_rate)))
    hop = max(1, int(round(cfg.hop * w.sample_rate)))
    if len(w.samples) < win:
        return np.empty(0)
    # a row per frame, squared a block of rows at a time so memory stays
    # bounded; a row's mean has the bits of its lone mean
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, win)[::hop]
    power = np.concatenate([(frames[t:t + _ENERGY_BLOCK] ** 2).mean(axis=1)
                            for t in range(0, len(frames), _ENERGY_BLOCK)])
    return 10.0 * np.log10(power + 1e-12)


def epd_split(w: Waveform, cfg: VadConfig | None = None) -> list[Segment]:
    """Energy-threshold VAD: speech runs split at silences >= min_silence.

    Short segments merge into a neighbor; segments over max_segment are
    force-split at their lowest-energy interior frame. Cores equal the
    full segments (no overlap trimming).
    """
    cfg = cfg or VadConfig()
    energies = _frame_energies_db(w, cfg)
    idx = np.flatnonzero(energies > cfg.energy_threshold_db)
    if idx.size == 0:
        return []
    # frame runs of speech, merging gaps shorter than min_silence
    min_gap = max(1, int(round(cfg.min_silence / cfg.hop)))
    gaps = np.flatnonzero(np.diff(idx) > min_gap)
    starts, ends = idx[np.r_[0, gaps + 1]], idx[np.r_[gaps, -1]]
    # to seconds; a frame spans [t*hop, t*hop + frame), and runs start more
    # than min_silence > frame after the last ends, so intervals are in order
    intervals = [[s * cfg.hop, e * cfg.hop + cfg.frame] for s, e in zip(starts, ends)]
    # absorb too-short segments into the nearest neighbor; every interval
    # before i is long enough, so the scan resumes at the merged one
    i = 0
    while len(intervals) > 1 and i < len(intervals):
        s, e = intervals[i]
        if e - s >= cfg.min_segment:
            i += 1
            continue
        if i == 0:
            j = 1
        elif i == len(intervals) - 1:
            j = i - 1
        else:
            j = i - 1 if s - intervals[i - 1][1] <= intervals[i + 1][0] - e else i + 1
        i, hi = min(i, j), max(i, j)
        intervals[i] = [intervals[i][0], intervals[hi][1]]
        del intervals[hi]
    # force-split anything longer than max_segment at its quietest frame
    final: list[tuple[float, float]] = []
    for s, e in intervals:
        while e - s > cfg.max_segment:
            # cut only where the left piece stays within max_segment and
            # the right piece is guaranteed to shrink
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
            final.append((s, cut))
            s = cut
        final.append((s, e))
    dur = w.duration
    return [
        Segment(start=max(0.0, s), end=min(e, dur), core_start=max(0.0, s),
                core_end=min(e, dur))
        for s, e in final
        if e > s
    ]

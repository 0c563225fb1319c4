"""Long-form utterance handling: overlapped windowing and energy-VAD splits.

Windowed ("DOI") segmentation cuts fixed-length overlapping windows whose
non-overlapped core regions tile the utterance; tokens are owned by the
segment whose core contains their emission time. Energy-based endpoint
detection instead cuts at long silences, and cuts a speech run longer than
MAX_SEGMENT into the fewest pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .frontend import HOP, WINDOW, Waveform, frame_start, strided_frames

__all__ = [
    "Segment",
    "TimedToken",
    "check_overlap",
    "check_doi",
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
class TimedToken:
    """A non-blank emission with its absolute time in seconds."""

    token_id: int
    time: float


# seconds a DOI window shares with each neighbour, unless another is given
DOI_OVERLAP = 2.0


def check_overlap(overlap: float) -> None:
    if not overlap >= 0:
        raise ParameterError(f"overlap must be >= 0, got {overlap}")


def check_doi(doi_length: float | None, overlap: float) -> None:
    """The DOI window rules: an overlap of at least 0, and a finite length
    at least one frame hop (frontend.HOP) greater than twice it, so each
    window starts a frame or more past the last and the window count stays
    within duration / HOP."""
    check_overlap(overlap)
    if doi_length is None or not doi_length >= 2 * overlap + HOP:
        raise ParameterError(
            f"doi segmentation needs a length at least {HOP:g} s greater than "
            f"twice the overlap, got {doi_length} / {overlap}"
        )
    if not np.isfinite(doi_length):
        raise ParameterError(f"doi length must be finite, got {doi_length}")


def doi_split(duration: float, doi_length: float,
              overlap: float = DOI_OVERLAP) -> list[Segment]:
    """Overlapping windows of doi_length whose cores tile [0, duration).

    hop = doi_length - 2*overlap; boundary cores extend to the utterance
    edges so the cores partition the utterance exactly.
    """
    if duration <= 0:
        raise ParameterError(f"duration must be positive, got {duration}")
    check_doi(doi_length, overlap)
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


# epd: frames louder than ENERGY_THRESHOLD_DB are speech; speech runs
# split at gaps of at least MIN_SILENCE, runs shorter than MIN_SEGMENT
# merge into a neighbour and runs longer than MAX_SEGMENT are cut
ENERGY_THRESHOLD_DB = -40.0
MIN_SILENCE = 0.3
MIN_SEGMENT = 0.2
MAX_SEGMENT = 30.0

# VAD frames squared at once: 13 MB of 25 ms windows at 16 kHz
_ENERGY_BLOCK = 4096


def _frame_energies_db(w: Waveform) -> np.ndarray:
    # a row per frame, squared a block of rows at a time so memory stays
    # bounded; a row's mean has the bits of its lone mean
    frames = strided_frames(w)
    if not len(frames):
        return np.empty(0)
    power = np.concatenate([(frames[t:t + _ENERGY_BLOCK] ** 2).mean(axis=1)
                            for t in range(0, len(frames), _ENERGY_BLOCK)])
    return 10.0 * np.log10(power + 1e-12)


def epd_split(w: Waveform) -> list[Segment]:
    """Energy-threshold VAD: speech runs split at silences >= MIN_SILENCE.

    Short segments merge into a neighbor; a segment over MAX_SEGMENT is
    cut into the fewest pieces, each at its lowest-energy frame in the
    window that keeps the pieces within MAX_SEGMENT (plus at most one hop).
    Cores equal the full segments (no overlap trimming).
    """
    energies = _frame_energies_db(w)
    idx = np.flatnonzero(energies > ENERGY_THRESHOLD_DB)
    if idx.size == 0:
        return []
    sr = w.sample_rate
    hop = frame_start(1, sr)
    # frame runs of speech, merging gaps shorter than MIN_SILENCE
    min_gap = max(1, int(round(MIN_SILENCE / hop)))
    gaps = np.flatnonzero(np.diff(idx) > min_gap)
    starts, ends = idx[np.r_[0, gaps + 1]], idx[np.r_[gaps, -1]]
    # to seconds; a frame spans [t*hop, t*hop + WINDOW) to the nearest
    # sample, and runs start more than MIN_SILENCE > WINDOW after the last
    # ends, so intervals are in order
    intervals = [[frame_start(s, sr), frame_start(e, sr) + WINDOW]
                 for s, e in zip(starts, ends)]
    # absorb too-short segments into the nearest neighbor; every interval
    # before i is long enough, so the scan resumes at the merged one
    i = 0
    while len(intervals) > 1 and i < len(intervals):
        s, e = intervals[i]
        if e - s >= MIN_SEGMENT:
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
    # cut anything longer than MAX_SEGMENT into k pieces at quiet frames
    final: list[tuple[float, float]] = []
    for s, e in intervals:
        while e - s > MAX_SEGMENT:
            # cut where the left piece is within MAX_SEGMENT and the rest
            # within k - 1 of them; that window is never empty, and its
            # first frame starts less than a hop after it opens
            k = int(np.ceil((e - s) / MAX_SEGMENT))
            lo_t = max(s + MIN_SEGMENT, e - (k - 1) * MAX_SEGMENT)
            hi_t = min(e - MIN_SEGMENT, s + MAX_SEGMENT)
            f_lo = int(np.ceil(lo_t / hop))
            f_hi = max(f_lo + 1, int(np.floor(hi_t / hop)))
            cut = frame_start(f_lo + int(np.argmin(energies[f_lo:f_hi])), sr)
            final.append((s, cut))
            s = cut
        final.append((s, e))
    # frames start at or after 0, and every piece is at least a frame long
    dur = w.duration
    return [Segment(s, min(e, dur), s, min(e, dur)) for s, e in final]

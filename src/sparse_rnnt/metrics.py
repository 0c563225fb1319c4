"""Character error rate with deletion/insertion/substitution breakdown."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

from .errors import ParameterError
from .frontend import atomic_output

__all__ = [
    "ErrorBreakdown",
    "edit_alignment",
    "corpus_cer",
    "sweep_report",
    "breakdown_json",
]


@dataclass
class ErrorBreakdown:
    deletions: int
    insertions: int
    substitutions: int
    ref_len: int
    cer: float
    empty_reference: bool = False

    @property
    def total_errors(self) -> int:
        return self.deletions + self.insertions + self.substitutions


def edit_alignment(reference: str, hypothesis: str) -> ErrorBreakdown:
    """Levenshtein alignment with unit costs and a fixed backtrace order.

    Ties resolve substitution/match first, then deletion, then insertion.
    An empty reference clamps ref_len to 1 for the rate and is flagged.
    """
    R, H = len(reference), len(hypothesis)
    dp = [[0] * (H + 1) for _ in range(R + 1)]
    for i in range(1, R + 1):
        dp[i][0] = i
    for j in range(1, H + 1):
        dp[0][j] = j
    for i in range(1, R + 1):
        row, prev = dp[i], dp[i - 1]
        rc = reference[i - 1]
        for j in range(1, H + 1):
            sub = prev[j - 1] + (rc != hypothesis[j - 1])
            row[j] = min(sub, prev[j] + 1, row[j - 1] + 1)
    dels = ins = subs = 0
    i, j = R, H
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (
            reference[i - 1] != hypothesis[j - 1]
        ):
            subs += reference[i - 1] != hypothesis[j - 1]
            i -= 1
            j -= 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    denom = max(R, 1)
    return ErrorBreakdown(
        deletions=dels,
        insertions=ins,
        substitutions=subs,
        ref_len=R,
        cer=(dels + ins + subs) / denom,
        empty_reference=(R == 0),
    )


def corpus_cer(pairs: list[tuple[str, str]]) -> ErrorBreakdown:
    """Micro-averaged CER: error counts summed across all pairs."""
    if not pairs:
        raise ParameterError("corpus_cer requires at least one pair")
    dels = ins = subs = ref_len = 0
    any_empty = False
    for ref, hyp in pairs:
        b = edit_alignment(ref, hyp)
        dels += b.deletions
        ins += b.insertions
        subs += b.substitutions
        ref_len += b.ref_len
        any_empty = any_empty or b.empty_reference
    denom = max(ref_len, 1)
    return ErrorBreakdown(dels, ins, subs, ref_len,
                          (dels + ins + subs) / denom, any_empty)


def sweep_report(
    results: dict[tuple[str, str, float | None], ErrorBreakdown], path
) -> None:
    """CSV keyed by (mask policy, segmentation, window length); sorted rows."""
    lines = ["policy,segmentation,doi_length,cer,del,ins,sub"]
    for key in sorted(results, key=lambda k: (k[0], k[1], k[2] if k[2] is not None else -1.0)):
        policy, seg, doi = key
        b = results[key]
        doi_field = "" if doi is None else f"{doi:g}"
        lines.append(
            f"{policy},{seg},{doi_field},{b.cer:.6f},{b.deletions},"
            f"{b.insertions},{b.substitutions}"
        )
    with atomic_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def breakdown_json(utt_id: str, b: ErrorBreakdown) -> str:
    """One JSON line of per-utterance breakdown fields."""
    d = {"id": utt_id}
    d.update(asdict(b))
    return json.dumps(d, sort_keys=True)

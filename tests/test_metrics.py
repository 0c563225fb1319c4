import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_rnnt.errors import ParameterError
from sparse_rnnt.metrics import (
    ErrorBreakdown,
    breakdown_json,
    corpus_cer,
    edit_alignment,
    sweep_report,
)


def brute_force_distance(a, b):
    """Plain Wagner-Fischer distance with no backtrace, used as the oracle."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[-1] + 1))
        prev = cur
    return prev[-1]


class TestEditAlignment:
    def test_identical(self):
        b = edit_alignment("abc", "abc")
        assert (b.deletions, b.insertions, b.substitutions) == (0, 0, 0)
        assert b.cer == 0.0

    def test_single_deletion(self):
        b = edit_alignment("abc", "ab")
        assert b.deletions == 1
        assert b.insertions == 0 and b.substitutions == 0
        assert b.cer == pytest.approx(1 / 3)

    def test_swap_counts_as_substitutions(self):
        b = edit_alignment("ab", "ba")
        assert b.substitutions == 2
        assert b.deletions == 0 and b.insertions == 0
        assert b.cer == 1.0

    def test_insertion(self):
        b = edit_alignment("ab", "axb")
        assert b.insertions == 1
        assert b.cer == pytest.approx(0.5)

    def test_empty_reference_clamped_and_flagged(self):
        b = edit_alignment("", "xy")
        assert b.empty_reference
        assert b.ref_len == 0
        assert b.insertions == 2
        assert b.cer == 2.0

    def test_exhaustive_small_alphabet(self):
        alphabet = "abc"
        strings = [""]
        for n in range(1, 5):
            strings += ["".join(p) for p in itertools.product(alphabet, repeat=n)]
        for ref in strings:
            for hyp in strings:
                b = edit_alignment(ref, hyp)
                assert b.total_errors == brute_force_distance(ref, hyp), (ref, hyp)

    def test_random_longer_pairs(self, rng):
        alphabet = list("abc")
        for _ in range(2000):
            ref = "".join(rng.choice(alphabet, size=rng.integers(0, 20)))
            hyp = "".join(rng.choice(alphabet, size=rng.integers(0, 20)))
            assert edit_alignment(ref, hyp).total_errors == brute_force_distance(
                ref, hyp
            )

    def test_symmetry_swaps_del_ins(self, rng):
        alphabet = list("abcd")
        for _ in range(200):
            a = "".join(rng.choice(alphabet, size=rng.integers(1, 12)))
            b = "".join(rng.choice(alphabet, size=rng.integers(1, 12)))
            fwd = edit_alignment(a, b)
            rev = edit_alignment(b, a)
            assert fwd.total_errors == rev.total_errors
            assert fwd.deletions == rev.insertions
            assert fwd.insertions == rev.deletions

    def test_triangle_inequality(self, rng):
        alphabet = list("ab")
        for _ in range(200):
            s = ["".join(rng.choice(alphabet, size=rng.integers(0, 10)))
                 for _ in range(3)]
            d = lambda x, y: edit_alignment(x, y).total_errors
            assert d(s[0], s[2]) <= d(s[0], s[1]) + d(s[1], s[2])


def aligned(pairs):
    return [edit_alignment(ref, hyp) for ref, hyp in pairs]


class TestCorpusCer:
    def test_all_correct(self):
        assert corpus_cer(aligned([("abc", "abc"), ("d", "d")])).cer == 0.0

    def test_duplication_invariance(self):
        single = corpus_cer(aligned([("abcdefghij", "abcdefghi")]))
        multi = corpus_cer(aligned([("abcdefghij", "abcdefghi")] * 5))
        assert multi.cer == pytest.approx(single.cer)

    def test_micro_average_hand_case(self):
        pairs = [("aaaaa", "aaaab"), ("bbbbb", "bbbba")]
        out = corpus_cer(aligned(pairs))
        assert out.cer == pytest.approx(0.2)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            corpus_cer([])


class TestSweepReport:
    def test_single_cell(self, tmp_path):
        path = tmp_path / "r.csv"
        sweep_report({("dense", "doi", 20.0): edit_alignment("ab", "ab")}, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "policy,segmentation,doi_length,cer,del,ins,sub"
        assert lines[1] == "dense,doi,20,0.000000,0,0,0"

    def test_sorted_and_reproducible(self, tmp_path):
        results = {
            ("local", "doi", 48.0): edit_alignment("abc", "abd"),
            ("dense", "epd", None): edit_alignment("ab", "b"),
            ("dense", "doi", 20.0): edit_alignment("ab", "ab"),
        }
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep_report(results, p1)
        sweep_report(dict(reversed(list(results.items()))), p2)
        assert p1.read_bytes() == p2.read_bytes()
        rows = p1.read_text().strip().splitlines()[1:]
        assert rows[0].startswith("dense,doi,20")
        assert rows[1].startswith("dense,epd,")
        assert rows[2].startswith("local,doi,48")


def test_breakdown_json_fields():
    import json

    line = breakdown_json("utt1", edit_alignment("abc", "abd"))
    d = json.loads(line)
    assert d["id"] == "utt1"
    assert d["substitutions"] == 1
    assert d["ref_len"] == 3


@given(st.text(alphabet="abc", max_size=12), st.text(alphabet="abc", max_size=12))
@settings(max_examples=300, deadline=None)
def test_alignment_matches_distance_property(ref, hyp):
    assert edit_alignment(ref, hyp).total_errors == brute_force_distance(ref, hyp)

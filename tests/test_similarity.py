import numpy as np
import pytest

from gitbot.similarity import (
    compound_similarity,
    is_empty,
    jaccard_similarity,
    levenshtein_similarity,
    normalize_message,
)


def oracle_edit_distance(a, b):
    """Independent full-matrix dynamic program."""
    rows = len(a) + 1
    cols = len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[-1][-1]


def random_corpus(rng, n, vocab=("fix", "bug", "add", "test", "doc", "api",
                                 "update", "remove", "merge", "bump", "ui", "db")):
    return [
        " ".join(rng.choice(vocab, size=rng.integers(1, 7)))
        for _ in range(n)
    ]


class TestNormalize:
    def test_trims_and_collapses(self):
        assert normalize_message("  Fix  Bug\n") == "fix bug"

    def test_empty(self):
        assert normalize_message("") == ""

    def test_case_only(self):
        raw = "Bump lodash from 4.17.20 to 4.17.21"
        assert normalize_message(raw) == "bump lodash from 4.17.20 to 4.17.21"

    def test_is_empty(self):
        assert is_empty("")
        assert is_empty("   \n\t")
        assert not is_empty("wip")


class TestJaccard:
    def test_identical(self):
        assert jaccard_similarity("fix bug", "fix bug") == 1.0

    def test_disjoint(self):
        assert jaccard_similarity("alpha beta", "gamma delta") == 0.0

    def test_half_overlap(self):
        # |{b,c}| / |{a,b,c,d}| = 2/4
        assert jaccard_similarity("a b c", "b c d") == 0.5

    def test_both_empty(self):
        assert jaccard_similarity("", "") == 1.0


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein_similarity("abc", "abc") == 1.0

    def test_kitten_sitting(self):
        assert levenshtein_similarity("kitten", "sitting") == pytest.approx(1 - 3 / 7)

    def test_full_deletion(self):
        assert levenshtein_similarity("a", "") == 0.0

    def test_both_empty(self):
        assert levenshtein_similarity("", "") == 1.0

    def test_matches_oracle_on_random_strings(self):
        rng = np.random.default_rng(42)
        letters = list("abcdef ")
        for _ in range(200):
            a = "".join(rng.choice(letters, size=rng.integers(0, 15)))
            b = "".join(rng.choice(letters, size=rng.integers(0, 15)))
            m = max(len(a), len(b))
            expected = 1.0 if m == 0 else 1.0 - oracle_edit_distance(a, b) / m
            assert levenshtein_similarity(a, b) == expected


class TestCompound:
    def test_identical(self):
        assert compound_similarity("fix bug", "fix bug") == 1.0

    def test_average_of_components(self):
        a, b = "a b c", "b c d"
        expected = (jaccard_similarity(a, b) + levenshtein_similarity(a, b)) / 2
        assert compound_similarity(a, b) == expected

    def test_fully_dissimilar(self):
        assert compound_similarity("aaa", "zzz") == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = random_corpus(rng, 2)
            assert compound_similarity(a, b) == compound_similarity(b, a)

    def test_equals_one_only_on_identical(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = random_corpus(rng, 2)
            sim = compound_similarity(a, b)
            assert 0.0 <= sim <= 1.0
            if a != b:
                assert sim < 1.0
            else:
                assert sim == 1.0


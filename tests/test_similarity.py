from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitbot import similarity
from gitbot.similarity import (
    compound_similarity,
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


def is_empty(raw: str) -> bool:
    """True iff the message normalizes to the empty string."""
    return normalize_message(raw) == ""


def random_corpus(rng, n, vocab=("fix", "bug", "add", "test", "doc", "api",
                                 "update", "remove", "merge", "bump", "ui", "db")):
    return [
        " ".join(rng.choice(vocab, size=rng.integers(1, 7)))
        for _ in range(n)
    ]


# short strings over a few characters, so that drawn pairs share tokens,
# characters and sometimes all of their text
texts = st.text(alphabet="ab é中😀", max_size=12)


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

    # lengths on both sides of each 64-bit word boundary of the bit vectors
    @pytest.mark.parametrize("la", [0, 1, 2, 63, 64, 65, 127, 128, 129, 200])
    @pytest.mark.parametrize("alphabet", ["ab", "ab é中😀"], ids=["ascii", "non-ascii"])
    def test_matches_oracle_across_word_boundaries(self, la, alphabet):
        rng = np.random.default_rng(la)
        letters = list(alphabet)
        for lb in sorted({0, 1, la // 2, max(la - 1, 0), la, la + 1, 200}):
            a = "".join(rng.choice(letters, size=la))
            b = "".join(rng.choice(letters, size=lb))
            m = max(la, lb)
            expected = 1.0 if m == 0 else 1.0 - oracle_edit_distance(a, b) / m
            assert levenshtein_similarity(a, b) == expected
            assert levenshtein_similarity(b, a) == expected

    def test_matches_oracle_on_random_strings(self):
        rng = np.random.default_rng(42)
        letters = list("abcdef ")
        for _ in range(200):
            a = "".join(rng.choice(letters, size=rng.integers(0, 15)))
            b = "".join(rng.choice(letters, size=rng.integers(0, 15)))
            m = max(len(a), len(b))
            expected = 1.0 if m == 0 else 1.0 - oracle_edit_distance(a, b) / m
            assert levenshtein_similarity(a, b) == expected

    # Texts with a long common prefix and suffix, across the 64-bit word
    # boundaries of the bit vectors: _edit_distance strips both first.
    @settings(deadline=None)
    @given(
        prefix=st.text(alphabet="ab\u00e9", max_size=70),
        middles=st.tuples(st.text(alphabet="ab\u00e9", max_size=6),
                          st.text(alphabet="ab\u00e9", max_size=6)),
        suffix=st.text(alphabet="ab\u00e9", max_size=70),
    )
    def test_equals_the_unstripped_oracle_on_shared_affixes(self, prefix, middles, suffix):
        a, b = (prefix + middle + suffix for middle in middles)
        assert similarity._edit_distance(a, b) == oracle_edit_distance(a, b)
        assert similarity._edit_distance(b, a) == oracle_edit_distance(a, b)

    # the premise of the bag bound in features.cluster_patterns
    @given(a=st.text(), b=st.text())
    def test_bag_distance_is_at_most_the_edit_distance(self, a, b):
        common = sum((Counter(a) & Counter(b)).values())
        assert max(len(a), len(b)) - common <= similarity._edit_distance(a, b)


class TestCompound:
    def test_identical(self):
        assert compound_similarity("fix bug", "fix bug") == 1.0

    def test_average_of_components(self):
        a, b = "a b c", "b c d"
        expected = (jaccard_similarity(a, b) + levenshtein_similarity(a, b)) / 2
        assert compound_similarity(a, b) == expected

    def test_fully_dissimilar(self):
        assert compound_similarity("aaa", "zzz") == 0.0

    @given(a=texts, b=texts)
    def test_symmetry(self, a, b):
        assert compound_similarity(a, b) == compound_similarity(b, a)

    @given(a=texts, b=texts)
    def test_equals_one_only_on_identical(self, a, b):
        sim = compound_similarity(a, b)
        assert 0.0 <= sim <= 1.0
        assert (sim == 1.0) == (a == b)
        assert compound_similarity(a, a) == 1.0


import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitbot import similarity
from gitbot.features import (
    FeatureConfig,
    FeatureVector,
    cluster_patterns,
    compute_features,
    gini_coefficient,
)
from gitbot.similarity import compound_similarity
from gitbot.synthesis import synthetic_dataset

from .test_similarity import random_corpus


def oracle_clusters(messages, eps):
    """Brute-force transitive closure over the full distance matrix."""
    n = len(messages)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if 1.0 - compound_similarity(messages[i], messages[j]) <= eps:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    labels = {}
    out = []
    for i in range(n):
        root = find(i)
        if root not in labels:
            labels[root] = len(labels)
        out.append(labels[root])
    return out


# A few short words: drawn corpora hold many exact duplicates and chains
# of messages that differ by one word.
TEMPLATE_WORDS = ("fix", "bug", "bump", "deps", "docs", "v1", "v2")

template_corpora = st.lists(
    st.lists(st.sampled_from(TEMPLATE_WORDS), min_size=1, max_size=4).map(" ".join),
    min_size=1,
    max_size=40,
)

# Words of one to twelve characters: texts of different lengths, so that
# the length bound of cluster_patterns rejects some pairs and passes others.
MIXED_WORDS = ("a", "ci", "fix", "bump", "typo", "release", "v2.0.1", "dependencies")

mixed_messages = st.lists(st.sampled_from(MIXED_WORDS), min_size=1, max_size=3).map(" ".join)
mixed_corpora = st.lists(mixed_messages, min_size=1, max_size=30)

# Messages of one length over three letters: the length bound reads at
# most 0.5, so at the middle threshold the bag bound decides many pairs.
equal_length_corpora = st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(
            st.text(alphabet="abc", min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(" ".join),
        min_size=1,
        max_size=30,
    )
)


@st.composite
def anagram_corpora(draw):
    """Reorderings of one message's words and of each word's letters.

    Every pair is at bag distance 0, while its edit distance can be large.
    """
    words = draw(st.lists(st.sampled_from(MIXED_WORDS), min_size=1, max_size=3))
    corpus = []
    for _ in range(draw(st.integers(1, 20))):
        order = draw(st.permutations(words))
        corpus.append(" ".join("".join(draw(st.permutations(w))) for w in order))
    return corpus


# Words of up to three letters over two: texts that share a token beside
# token-disjoint ones that share letters ("ab" and "ba", "a" and "aa"), and
# texts with no token at all.
short_word_corpora = st.lists(
    st.lists(st.text(alphabet="ab", max_size=3), max_size=3).map(" ".join),
    min_size=1,
    max_size=30,
)

# eps at and next to 0.5, the largest threshold where only texts that
# share a token are compared, and above it
candidate_rule_thresholds = st.sampled_from(
    [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 0.75, 1.0]
)

# the boundaries where ties and the all-in-one case occur
boundary_thresholds = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
thresholds = st.one_of(boundary_thresholds, st.floats(0.0, 1.0))

# features over every message of a drawn corpus: the cap never bites
UNCAPPED = FeatureConfig(min_messages=1, max_messages=100)


@pytest.fixture
def compared(monkeypatch):
    """The pairs cluster_patterns hands to similarity.compound_similarity, in call order."""
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return compound_similarity(a, b)

    monkeypatch.setattr(similarity, "compound_similarity", counting)
    return calls


def oracle_gini(sizes):
    """Direct double sum over all ordered pairs."""
    n = len(sizes)
    total = sum(abs(a - b) for a in sizes for b in sizes)
    mean = sum(sizes) / n
    return total / (2 * n * n * mean)


def numpy_gini(sizes):
    """The former numpy expression, kept as the bit-exactness reference."""
    x = np.asarray(sizes, dtype=np.float64)
    if x.size == 1:
        return 0.0
    n = x.size
    total = np.abs(x[:, None] - x[None, :]).sum()
    return float(total / (2.0 * n * n * x.mean()))


class TestClusterPatterns:
    def test_identical_messages_form_one_pattern(self):
        pa = cluster_patterns(["do the thing"] * 10, 0.5)
        assert pa.sizes == [10]
        assert pa.labels == [0] * 10

    def test_distant_messages_stay_singletons(self):
        messages = ["aaaa bbbb", "cccc dddd", "eeee ffff"]
        pa = cluster_patterns(messages, 0.1)
        assert pa.sizes == [1, 1, 1]
        assert pa.labels == [0, 1, 2]

    def test_labels_in_first_occurrence_order(self):
        messages = ["xxxx", "yyyy", "xxxx", "yyyy"]
        pa = cluster_patterns(messages, 0.0)
        assert pa.labels == [0, 1, 0, 1]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            corpus = random_corpus(rng, int(rng.integers(2, 16)))
            pa = cluster_patterns(corpus, 0.5)
            assert pa.labels == oracle_clusters(corpus, 0.5)

    @settings(deadline=None)
    @given(corpus=template_corpora, eps=thresholds)
    def test_matches_all_pairs_oracle_on_template_corpora(self, corpus, eps):
        assert cluster_patterns(corpus, eps).labels == oracle_clusters(corpus, eps)

    @settings(deadline=None)
    @given(corpus=mixed_corpora, eps=boundary_thresholds)
    def test_matches_all_pairs_oracle_on_mixed_length_corpora(self, corpus, eps):
        assert cluster_patterns(corpus, eps).labels == oracle_clusters(corpus, eps)

    @settings(deadline=None)
    @given(corpus=st.one_of(equal_length_corpora, anagram_corpora()), eps=boundary_thresholds)
    def test_matches_all_pairs_oracle_where_the_bag_bound_decides(self, corpus, eps):
        assert cluster_patterns(corpus, eps).labels == oracle_clusters(corpus, eps)

    @settings(deadline=None)
    @given(
        corpus=st.one_of(short_word_corpora, anagram_corpora(), mixed_corpora),
        eps=candidate_rule_thresholds,
    )
    def test_matches_all_pairs_oracle_around_the_token_rule(self, corpus, eps):
        assert cluster_patterns(corpus, eps).labels == oracle_clusters(corpus, eps)

    def test_token_disjoint_texts_are_compared_only_above_one_half(self, compared):
        calls = compared
        # no shared token, bag distance 0: both bounds pass at any eps >= 0.5
        assert cluster_patterns(["abcd", "dcba"], 0.5).labels == [0, 1]
        assert calls == []
        assert cluster_patterns(["abcd", "dcba"], math.nextafter(0.5, 1.0)).labels == [0, 1]
        assert calls == [("abcd", "dcba")]
        # at distance 0.75, "a" and "aa" link without sharing a token
        assert cluster_patterns(["a", "aa"], 0.75).labels == [0, 0]

    def test_bag_bound_rejects_disjoint_letters_and_computes_anagrams(self, compared):
        calls = compared
        # equal lengths, one shared token of three: the length bound reads 1/3 <= eps
        assert cluster_patterns(["x abcd", "x efgh"], 0.5).labels == [0, 1]
        assert calls == []
        # bag distance 0, edit distance 4
        assert cluster_patterns(["x abcd", "x dcba"], 0.5).labels == [0, 1]
        assert calls == [("x abcd", "x dcba")]

    def test_a_text_linked_through_the_first_is_not_compared_with_the_second(self, compared):
        messages = ["bump lodash to 1.0.1", "bump lodash to 1.0.2", "bump lodash to 1.0.3"]
        assert cluster_patterns(messages, 0.5).labels == [0, 0, 0]
        assert compared == [(messages[0], messages[1]), (messages[0], messages[2])]

    # The number of pairs decided by an edit distance: a change to the walk
    # or to the bounds that computes one pair more or fewer changes a count.
    @pytest.mark.parametrize(
        "eps, pairs", [(0.0, 0), (0.3, 2476), (0.5, 1380), (0.75, 39188), (1.0, 3428)]
    )
    def test_computed_pairs_on_synthetic_corpora(self, compared, eps, pairs):
        for entry in synthetic_dataset(40, 40, seed=3).entries:
            cluster_patterns(entry.corpus, eps)
        assert len(compared) == pairs

    @pytest.mark.parametrize("eps", [-0.1, float("nan")])
    def test_negative_or_nan_eps_rejected(self, eps):
        with pytest.raises(ValueError):
            cluster_patterns(["fix bug"], eps)

    def test_eps_zero_groups_only_exact_duplicates(self):
        corpus = ["fix bug", "fix bug", "fix bugs"]
        pa = cluster_patterns(corpus, 0.0)
        assert pa.labels[0] == pa.labels[1]
        assert pa.labels[2] != pa.labels[0]

    def test_eps_one_gives_single_pattern(self):
        rng = np.random.default_rng(12)
        corpus = random_corpus(rng, 10)
        pa = cluster_patterns(corpus, 1.0)
        assert pa.sizes == [10]

    def test_pattern_count_antitone_in_eps(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            corpus = random_corpus(rng, 15)
            counts = [
                len(cluster_patterns(corpus, eps).sizes)
                for eps in np.arange(0.1, 1.0, 0.1)
            ]
            assert counts == sorted(counts, reverse=True)

    def test_sizes_sum_to_message_count(self):
        rng = np.random.default_rng(14)
        corpus = random_corpus(rng, 20)
        pa = cluster_patterns(corpus, 0.4)
        assert sum(pa.sizes) == 20

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            cluster_patterns([], 0.5)


class TestGini:
    def test_perfect_equality(self):
        assert gini_coefficient([5, 5, 5]) == 0.0

    def test_single_pattern(self):
        assert gini_coefficient([7]) == 0.0

    def test_known_value(self):
        assert gini_coefficient([1, 1, 8]) == pytest.approx(28 / 60, abs=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            sizes = rng.integers(1, 51, size=rng.integers(1, 31)).tolist()
            assert gini_coefficient(sizes) == pytest.approx(
                oracle_gini(sizes), abs=1e-12
            )

    @given(sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=150))
    def test_bit_identical_to_numpy_expression(self, sizes):
        assert gini_coefficient(sizes) == numpy_gini(sizes)

    def test_range(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            sizes = rng.integers(1, 51, size=rng.integers(1, 31)).tolist()
            assert 0.0 <= gini_coefficient(sizes) < 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gini_coefficient([])
        with pytest.raises(ValueError):
            gini_coefficient([3, 0])


class TestComputeFeatures:
    def test_too_small_corpus_is_insufficient(self):
        corpus = [f"message {i}" for i in range(9)]
        assert compute_features(corpus) is None

    def test_cap_limits_to_most_recent(self):
        corpus = [f"unique message {i} {i*7}" for i in range(250)]
        fv = compute_features(corpus)
        assert fv.n_messages == 100

    def test_identical_messages(self):
        corpus = ["same thing"] * 12
        assert compute_features(corpus) == FeatureVector(12, 0, 1, 0.0)

    def test_all_empty_messages(self):
        corpus = ["", "  ", "\n\t"] * 4
        assert compute_features(corpus) == FeatureVector(12, 12, 0, 0.0)

    def test_empty_messages_counted_not_clustered(self):
        corpus = ["real message here"] * 10 + ["", "   "]
        fv = compute_features(corpus)
        assert fv == FeatureVector(12, 2, 1, 0.0)

    def test_custom_config_thresholds(self):
        corpus = [f"message number {i}" for i in range(8)]
        assert compute_features(corpus, FeatureConfig(min_messages=8)) is not None
        fv = compute_features(corpus, FeatureConfig(min_messages=5, max_messages=6))
        assert fv.n_messages == 6

    def test_recency_cap_takes_head_of_list(self):
        # most recent first: cap must keep the head, not the tail
        messages = ["recent unique alpha"] * 5 + ["old repeated beta"] * 10
        fv = compute_features(messages, FeatureConfig(min_messages=5, max_messages=5))
        assert fv.n_patterns == 1
        assert fv.n_messages == 5

    def test_permutation_invariance_under_cap(self):
        rng = np.random.default_rng(31)
        corpus = random_corpus(rng, 20)
        fv = compute_features(corpus)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(20)
            shuffled = [corpus[i] for i in perm]
            other = compute_features(shuffled)
            assert (other.n_patterns, other.gini) == (fv.n_patterns, fv.gini)

    @settings(deadline=None)
    @given(data=st.data(), corpus=mixed_corpora.map(lambda c: c + ["", "  "]))
    def test_permuting_a_corpus_keeps_its_features(self, data, corpus):
        shuffled = data.draw(st.permutations(corpus))
        assert compute_features(shuffled, UNCAPPED) == compute_features(corpus, UNCAPPED)

    @settings(deadline=None)
    @given(corpus=mixed_corpora, message=st.one_of(st.just(""), mixed_messages))
    def test_appending_a_message_adds_at_most_one_pattern(self, corpus, message):
        before = compute_features(corpus, UNCAPPED)
        after = compute_features(corpus + [message], UNCAPPED)
        assert after.n_patterns <= before.n_patterns + 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(min_messages=0)
        with pytest.raises(ValueError):
            FeatureConfig(min_messages=20, max_messages=10)
        with pytest.raises(ValueError):
            FeatureConfig(distance_threshold=1.5)

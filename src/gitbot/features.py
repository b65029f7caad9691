"""Turn one contributor's commit messages into the four model features.

A contributor's corpus is a plain list of commit messages, newest
first. Features per contributor: number of messages considered, number
of empty messages, number of message patterns (groups of mutually
similar messages), and the Gini coefficient of pattern sizes.
"""

from collections import Counter
from typing import NamedTuple

from . import similarity
from .similarity import normalize_message


class _FeatureConfigFields(NamedTuple):
    min_messages: int = 10
    max_messages: int = 100
    distance_threshold: float = 0.5


class FeatureConfig(_FeatureConfigFields):
    """How many messages a corpus needs and reads, and the pattern threshold.

    A subclass, because a NamedTuple body may not define the __new__ that
    checks the ranges.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.min_messages <= self.max_messages:
            raise ValueError("need 0 < min_messages <= max_messages")
        if not 0.0 <= self.distance_threshold <= 1.0:
            raise ValueError("distance_threshold must be in [0, 1]")
        return self


class FeatureVector(NamedTuple):
    """One contributor's features; the vector is the model's input row."""

    n_messages: int
    n_empty: int
    n_patterns: int
    gini: float


FEATURE_NAMES = FeatureVector._fields


class PatternAssignment(NamedTuple):
    """Pattern id per message plus the size of each pattern.

    Ids are contiguous from 0, assigned in first-occurrence order.
    """

    labels: list[int]
    sizes: list[int]


def cluster_patterns(messages: list[str], eps: float) -> PatternAssignment:
    """Group normalized messages into patterns by single linkage.

    Two messages share a pattern iff they are connected by a chain of
    pairs whose compound distance (1 - similarity) is <= eps, eps >= 0.
    The components of single linkage do not depend on the order in which
    edges are added, so each step below that skips a comparison gives the
    same partition as comparing every pair, and the same first-occurrence
    labels:

    - Identical messages are at distance 0 <= eps. Each copy is hung
      under the first occurrence of its text, and only distinct texts
      are compared.
    - Only texts that share a token are compared when eps <= 0.5, found
      by OR-ing per-token bitmasks of distinct-text positions (the
      candidate filter of all-pairs similarity search; Bayardo, Ma and
      Srikant, 2007). Two distinct texts that share no token, at least
      one of which has a token, have Jaccard 0.0 and edit distance
      d >= 1. Texts shorter than 2**52 characters give d / longest >=
      2**-52, and the float expression of compound_similarity then puts
      the distance at 0.5 + 2**-53 or more, which is > eps. Two texts
      without tokens have Jaccard 1.0, so each such text is given the
      empty token, which split() never returns: it makes them candidates
      of each other and leaves every Jaccard value unchanged. With
      eps > 0.5 every later text is a candidate.
    - A candidate pair whose two texts are already in one component is
      skipped: linking it could not change any component.
    - A pair is rejected without an edit distance when a lower bound on
      its distance exceeds eps. The bound is the compound distance with
      the edit distance d replaced by |la - lb| <= d, evaluated by the
      same float expression as similarity.compound_similarity, with the
      token Jaccard taken from per-corpus token-id bitmasks. Every float
      operation in it is monotone under round-to-nearest, so the bound
      never exceeds the true distance and no tolerance is needed.
    - A pair that passes is rejected when the same expression exceeds
      eps with |la - lb| replaced by the bag distance max(la, lb) -
      common, where common counts the characters the two texts share,
      with multiplicity (Bartolini, Ciaccia and Patella, 2002). One
      insertion, deletion or substitution moves it by at most one, and it
      is 0 between equal texts, so it is at most d; common <= min(la, lb),
      so it is at least |la - lb|. The bound is exact for the same reason
      as the first. It comes second because the length test is cheaper
      and already rejects many pairs.

    Every other pair is decided by one call of
    similarity.compound_similarity.
    """
    n = len(messages)
    if n == 0:
        raise ValueError("cluster_patterns needs at least one message")
    if not eps >= 0.0:
        raise ValueError(f"eps must be >= 0, got {eps!r}")

    first: dict[str, int] = {}
    parent = [first.setdefault(text, i) for i, text in enumerate(messages)]

    token_ids: dict[str, int] = {}
    holders: list[int] = []  # per token id, a bitmask of the positions in distinct
    distinct = []  # (index of first occurrence, text, length, token mask, char counts)
    token_lists = []  # per position in distinct, the token ids of its text
    for k, (text, i) in enumerate(first.items()):
        ids = [token_ids.setdefault(token, len(token_ids)) for token in text.split() or [""]]
        mask = 0
        for t in ids:
            if t == len(holders):
                holders.append(0)
            holders[t] |= 1 << k
            mask |= 1 << t
        distinct.append((i, text, len(text), mask, Counter(text)))
        token_lists.append(ids)
    every_later = eps > 0.5
    everyone = (1 << len(distinct)) - 1

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for k, (i, text_i, len_i, mask_i, counts_i) in enumerate(distinct):
        # every link below hangs a root under ri, so ri stays i's root
        ri = find(i)
        if every_later:
            candidates = everyone
        else:
            candidates = 0
            for t in token_lists[k]:
                candidates |= holders[t]
        candidates >>= k + 1
        j = k
        while candidates:
            step = (candidates & -candidates).bit_length()  # to the next set bit
            candidates >>= step
            j += step
            first_j, text_j, len_j, mask_j, counts_j = distinct[j]
            rj = find(first_j)
            if rj == ri:
                continue
            jac = (mask_i & mask_j).bit_count() / (mask_i | mask_j).bit_count()
            longest = max(len_i, len_j)
            if 1.0 - 0.5 * (jac + (1.0 - abs(len_i - len_j) / longest)) > eps:
                continue
            common = 0  # a loop: (counts_i & counts_j).total() was about 4x slower
            for char, count_i in counts_i.items():
                if char in counts_j:
                    count_j = counts_j[char]
                    common += count_i if count_i < count_j else count_j
            if 1.0 - 0.5 * (jac + (1.0 - (longest - common) / longest)) > eps:
                continue
            if 1.0 - similarity.compound_similarity(text_i, text_j) <= eps:
                parent[rj] = ri

    pattern_of_root: dict[int, int] = {}
    labels = []
    for i in range(n):
        root = find(i)
        if root not in pattern_of_root:
            pattern_of_root[root] = len(pattern_of_root)
        labels.append(pattern_of_root[root])
    sizes = [0] * len(pattern_of_root)
    for lab in labels:
        sizes[lab] += 1
    return PatternAssignment(labels=labels, sizes=sizes)


def gini_coefficient(sizes) -> float:
    """Inequality of pattern sizes: sum |xi - xj| / (2 n^2 mean).

    0 means all patterns hold equally many messages; a single pattern
    yields 0. Sizes are positive integers, so the sum over pairs is an
    exact integer.
    """
    x = sorted(sizes)
    if not x:
        raise ValueError("sizes must be non-empty")
    if x[0] <= 0:
        raise ValueError("sizes must all be positive")
    n = len(x)
    if n == 1:
        return 0.0
    # the k-th smallest size exceeds k sizes and is exceeded by n - 1 - k
    total = 2 * sum((2 * k - n + 1) * v for k, v in enumerate(x))
    return total / (2.0 * n * n * (sum(x) / n))


def compute_features(
    corpus: list[str],
    config: FeatureConfig = FeatureConfig(),
) -> FeatureVector | None:
    """Feature vector for one corpus, or None when it is too small.

    corpus holds one contributor's messages, newest first. Corpora under
    config.min_messages yield None (no prediction is possible).
    Otherwise the first config.max_messages messages are considered;
    empty messages count toward n_empty and are excluded from pattern
    clustering.
    """
    if len(corpus) < config.min_messages:
        return None
    selected = corpus[: config.max_messages]
    normalized = [normalize_message(m) for m in selected]
    non_empty = [m for m in normalized if m]
    n_empty = len(normalized) - len(non_empty)
    if not non_empty:
        return FeatureVector(len(selected), n_empty, 0, 0.0)
    assignment = cluster_patterns(non_empty, config.distance_threshold)
    return FeatureVector(
        n_messages=len(selected),
        n_empty=n_empty,
        n_patterns=len(assignment.sizes),
        gini=gini_coefficient(assignment.sizes),
    )


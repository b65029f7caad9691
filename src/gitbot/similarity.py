"""Message normalization and the compound similarity metric.

The compound similarity of two normalized messages is the arithmetic
mean of their token-set Jaccard similarity and their normalized
Levenshtein similarity. This exact composition is recorded in saved
model files (see model_io.SIMILARITY_ID) so that training and
prediction always agree on the metric.

There is one similarity path: features.cluster_patterns calls
compound_similarity once for each pair of messages that is not yet in
one pattern. No pairwise matrix is built.
"""

SIMILARITY_ID = "mean(token-jaccard, normalized-levenshtein)"


def normalize_message(raw: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs."""
    return " ".join(raw.split()).lower()


def is_empty(raw: str) -> bool:
    """True iff the message normalizes to the empty string."""
    return normalize_message(raw) == ""


def jaccard_similarity(a: str, b: str) -> float:
    """Token-set Jaccard similarity of two normalized messages.

    Returns 1.0 when both token sets are empty.
    """
    sa = set(a.split())
    sb = set(b.split())
    union = len(sa | sb)
    if union == 0:
        return 1.0
    return len(sa & sb) / union


def _edit_distance(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        curr = [i]
        for j, cb in enumerate(b, start=1):
            d = prev[j - 1] + (0 if ca == cb else 1)
            if prev[j] + 1 < d:
                d = prev[j] + 1
            if curr[j - 1] + 1 < d:
                d = curr[j - 1] + 1
            curr.append(d)
        prev = curr
    return prev[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - edit_distance / max length, over Unicode code points.

    Returns 1.0 when both strings are empty.
    """
    m = max(len(a), len(b))
    if m == 0:
        return 1.0
    return 1.0 - _edit_distance(a, b) / m


def compound_similarity(a: str, b: str) -> float:
    """Mean of Jaccard and Levenshtein similarity, in [0, 1]."""
    return 0.5 * (jaccard_similarity(a, b) + levenshtein_similarity(a, b))


"""Message normalization and the compound similarity metric.

The compound similarity of two normalized messages is the arithmetic
mean of their token-set Jaccard similarity and their normalized
Levenshtein similarity. This exact composition is recorded in saved
model files (see model_io.SIMILARITY_ID) so that training and
prediction always agree on the metric.

The edit distance is computed by the bit-vector algorithm of Myers
(1999, "A fast bit-vector algorithm for approximate string matching")
in the formulation of Hyyrö (2001): one column of the dynamic program
per character of the longer string, held as two Python ints over the
shorter one, so strings of any length are exact. The common prefix
and suffix of the two strings are stripped first, inside
`_edit_distance`, so that the stripping stays inside the one similarity
path below and is not a second one.

There is one similarity path: features.cluster_patterns calls
compound_similarity once for each pair of distinct messages that it
computes, that is, pairs not yet in one pattern and not rejected by its
exact lower bounds on the distance. No pairwise matrix is built.
"""

SIMILARITY_ID = "mean(token-jaccard, normalized-levenshtein)"


def normalize_message(raw: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs."""
    return " ".join(raw.split()).lower()


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
    # A common prefix and suffix leave the distance unchanged: an optimal
    # alignment matches them character for character.
    start, end_a, end_b = 0, len(a), len(b)
    while start < end_b and a[start] == b[start]:
        start += 1
    while end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    if start == end_b:
        return end_a - end_b
    a, b = a[start:end_a], b[start:end_b]
    # D[i][j] is the distance of b[:i] and a[:j]. Bit i of pv (mv) is set
    # when D[i+1][j] - D[i][j] is +1 (-1) in the current column j.
    peq: dict[str, int] = {}
    bit = 1
    for c in b:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    full = bit - 1
    pv, mv = full, 0
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        # shift to row i's horizontal delta; row 0 is D[0][j] = j, so +1
        ph = (ph << 1) | 1
        mh <<= 1
        # ~ sets every bit above the column, which bit_count would count
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    # D[len(b)][len(a)] is D[0][len(a)] plus the last column's vertical deltas
    return len(a) + pv.bit_count() - mv.bit_count()


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


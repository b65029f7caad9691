"""Comparison classifier families used alongside the random forest.

Every trainer here takes (X, y) as `dataset.featurize` returns them,
float64 feature rows and int64 labels with bot 1, like
`training.train_forest`. Every model answers `bot_fraction(X)`, like
`ForestModel`, and is labelled by `forest.predict` and
`training.predict_labels`. k-nearest
neighbours, logistic regression and the linear SVM work on z-score
standardized features (statistics from the training set); the two linear
families share `LinearModel`, whose bot fraction is the sigmoid of the
score. The single decision tree is a one-tree `ForestModel` grown
by the tree grower of `training` without bootstrap and without an rng:
every feature is a candidate at each node, and nothing is drawn. So
the tree at a shallower depth is the deeper tree cut there
(`cut_tree`), and a grid search grows one tree per fold for all
depths. Likewise it orders each test row's neighbours once for every
k (`KnnModel.bot_fractions`).

Both linear families minimize a convex objective with an unpenalized
bias, and both solve it to a stated tolerance:
- logistic regression: mean cross-entropy + (l2/2) |w|^2, by Newton's
  method, until every gradient component is below tol;
- linear SVM: mean hinge loss + (l2/2) |w|^2, which is the soft-margin
  SVM 1/2 |w|^2 + C * sum(xi) with C = 1/(n * l2), by Mehrotra's
  predictor-corrector interior-point method, until its residuals and
  its duality gap are below tol relative to their scale (see
  `train_linear_svm`).
A fit that stops short of its tolerance warns. `train_linear_svm` fits
one model per value of a sequence of l2 values in one stacked
iteration, so a grid search solves a fold's SVMs together, each to the
bits of its fit alone; logistic regression fits one l2 per call.
"""

import warnings
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .forest import ForestModel, Leaf, Split
from .training import _check_two_classes, _grow_node


class Standardizer(NamedTuple):
    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        scale = X.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        return cls(mean=X.mean(axis=0), scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


# Test rows that `KnnModel.bot_fractions` ranks at a time. Its temporaries
# are KNN_BLOCK_ROWS x n_train, 3.5 MB of float64 at 6,922 training rows,
# however many rows are scored.
KNN_BLOCK_ROWS = 64


class KnnModel(NamedTuple):
    X: np.ndarray  # standardized training features
    y: np.ndarray
    k: int
    scaler: Standardizer

    def bot_fraction(self, X: np.ndarray) -> np.ndarray:
        return self.bot_fractions(X, [self.k])[0]

    def bot_fractions(self, X: np.ndarray, ks) -> list[np.ndarray]:
        """`bot_fraction` at each k in ks, from one order of the neighbours.

        A k-row's fraction is its bot count among the first k neighbours
        divided by k, the float that the mean of their labels gives. Rows
        are ranked KNN_BLOCK_ROWS at a time; a row's distances, order and
        counts read no other row, so every fraction is the float that
        ranking all rows at once gives.
        """
        Z = self.scaler.transform(X)
        top = max(ks)
        # one block even of no rows, so that the counts keep their shape
        bots = np.concatenate([self._bot_counts(Z[start:start + KNN_BLOCK_ROWS], top)
                               for start in range(0, max(len(Z), 1), KNN_BLOCK_ROWS)])
        return [bots[:, k - 1] / k for k in ks]

    def _bot_counts(self, Z: np.ndarray, top: int) -> np.ndarray:
        """Bots among the first 1..top neighbours of each standardized row of Z."""
        # the squared distances summed feature by feature, in the order and
        # to the bits of ((Z[:, None] - self.X[None]) ** 2).sum(axis=2)
        d2 = (Z[:, None, 0] - self.X[None, :, 0]) ** 2
        for f in range(1, Z.shape[1]):
            d2 += (Z[:, None, f] - self.X[None, :, f]) ** 2
        # stable sort keeps training order on distance ties
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :top]
        return np.cumsum(self.y[nearest], axis=1)


def train_knn(X: np.ndarray, y: np.ndarray, k: int = 5) -> KnnModel:
    _check_two_classes(y)
    if k < 1 or k > len(y):
        raise ValueError("k must be in [1, n_examples]")
    scaler = Standardizer.fit(X)
    return KnnModel(X=scaler.transform(X), y=y, k=k, scaler=scaler)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LinearModel(NamedTuple):
    """Logistic regression or linear SVM: a hyperplane over standardized features."""

    weights: np.ndarray
    bias: float
    scaler: Standardizer

    def bot_fraction(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.scaler.transform(X) @ self.weights + self.bias)


def train_logistic(
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 1e-3,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> LinearModel:
    """Minimize L2-penalized binary cross-entropy by Newton's method.

    The objective is strictly convex in the four weights and the bias,
    so each step solves one 5x5 system and needs no step size. The bias
    is not penalized. Convergence is declared when every gradient
    component is below tol.
    """
    _check_two_classes(y)
    scaler = Standardizer.fit(X)
    A = np.hstack([scaler.transform(X), np.ones((len(y), 1))])
    n = len(y)
    penalty = np.diag([l2] * (A.shape[1] - 1) + [0.0])
    theta = np.zeros(A.shape[1])  # weights, then bias
    for _ in range(max_iter):
        p = _sigmoid(A @ theta)
        grad = A.T @ (p - y) / n + penalty @ theta
        if np.abs(grad).max() < tol:
            break
        hessian = (A.T * (p * (1.0 - p))) @ A / n + penalty
        theta -= np.linalg.solve(hessian, grad)
    else:
        warnings.warn("logistic regression hit the iteration cap without converging")
    return LinearModel(weights=theta[:-1], bias=float(theta[-1]), scaler=scaler)


def _mv(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for each row x of X (M one matrix, or one per row), by the kernel of `M @ x` alone."""
    return (M @ X[:, :, None])[:, :, 0]


def _dot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """u @ v for each pair of rows of U and V, by the kernel of `u @ v` alone."""
    return (U[:, None, :] @ V[:, :, None])[:, 0, 0]


def _solve(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """`np.linalg.solve(m, r)` for each matrix m of M and row r of R."""
    return np.linalg.solve(M, R[:, :, None])[:, :, 0]


def _max_step(V: np.ndarray, dV: np.ndarray) -> np.ndarray:
    """Per row, the largest step in (0, 1] that keeps v + step * dv nonnegative."""
    # divides only where dv < 0, so no other entry can raise
    ratios = np.divide(-V, dV, out=np.full_like(V, np.inf), where=dV < 0.0)
    return np.minimum(ratios.min(axis=1), 1.0)


def _mehrotra_step(A, H, u, v, r_x, r_xi, r_p, gap):
    """Predictor-corrector direction (dx, du, dv) and its longest feasible step, per row.

    Every argument but A and H holds one row per fit. u = (s, xi) and
    v = (lambda, mu) are the complementary pairs. Every Newton system
    eliminates them and solves (H + A^T G^-1 A) dx = r with the
    diagonal G = s/lambda + xi/mu.
    """
    n = len(A)
    s, xi = u[:, :n], u[:, n:]
    lam, mu = v[:, :n], v[:, n:]
    G = s / lam + xi / mu
    AG = A / G[:, :, None]
    lhs = H + A.T @ AG
    AGt = AG.transpose(0, 2, 1)

    def newton(r_c):
        """Direction with v * du + u * dv = -r_c and the linear residuals zeroed."""
        r_sl, r_xm = r_c[:, :n], r_c[:, n:]
        q = -r_p - r_sl / lam + (xi / mu) * r_xi + r_xm / mu
        dx = _solve(lhs, _mv(AGt, q) - r_x)
        dlam = (q - _mv(A, dx)) / G
        for _ in range(2):
            # iterative refinement against the unreduced (w, b) equation:
            # the reduced system grows ill-conditioned near the optimum
            fix = _solve(lhs, _mv(A.T, dlam) - _mv(H, dx) - r_x)
            dx += fix
            dlam -= _mv(A, fix) / G
        dxi = (xi / mu) * (dlam - r_xi) - r_xm / mu
        du = np.concatenate([-(r_sl + s * dlam) / lam, dxi], axis=1)
        dv = np.concatenate([dlam, -(r_xm + mu * dxi) / xi], axis=1)
        return dx, du, dv, np.minimum(_max_step(u, du), _max_step(v, dv))

    # predictor: the affine-scaling direction sets the centring
    _, du, dv, step = newton(u * v)
    centring = _dot(u + step[:, None] * du, v + step[:, None] * dv) / (2 * n) / gap
    # cubed as Python floats: C's pow, which an array power need not call
    sigma = np.array([float(c) ** 3 for c in centring])
    # corrector: centred, with the predictor's second-order term
    return newton(u * v + du * dv - (sigma * gap)[:, None])


def train_linear_svm(
    X: np.ndarray,
    y: np.ndarray,
    l2s: Sequence[float] = (1e-2,),
    tol: float = 1e-9,
    max_iter: int = 100,
) -> list[LinearModel]:
    """One model per l2 in l2s, each minimizing (1/n) * sum of hinge losses + (l2/2) * |w|^2.

    The bias is not penalized. Scaled by 1/l2 this is the soft-margin
    SVM: minimize 1/2 |w|^2 + C * sum(xi) with C = 1/(n * l2), subject
    to y_i (z_i . w + b) = 1 - xi_i + s_i and xi, s >= 0. It is solved
    by Mehrotra's predictor-corrector primal-dual interior-point method;
    each step solves one (d+1)x(d+1) system in (w, b). Convergence is
    declared when every residual is below tol relative to its scale:
    the margin residual relative to 1 + max|(w, b)|, the (w, b)
    stationarity residual relative to n * C (it sums n multipliers of
    size up to C), and the xi stationarity residual and the mean
    complementarity relative to C; so the duality gap in the objective
    above is at most 2 * tol. A singular Newton system or a
    floating-point error (overflow, division by zero, invalid value)
    ends the iteration early: like the iteration cap, it warns that the
    fit did not converge, once per fit, in l2s order.

    The fits run in lockstep, one row each of (k, ...) arrays, and every
    step is computed for all of them at once. Each row goes through the
    matmul and LAPACK kernels, and the elementwise operations, that the
    fit would go through alone, so each model is the one a call with its
    l2 alone returns, bit for bit. A fit that converges leaves the rows;
    a step that breaks down is taken again row by row from the same
    state, and only the rows that break down alone stop.
    """
    _check_two_classes(y)
    scaler = Standardizer.fit(X)
    n = len(y)
    sy = 2.0 * y - 1.0
    A = sy[:, None] * np.hstack([scaler.transform(X), np.ones((n, 1))])  # rows y_i [z_i, 1]
    H = np.diag([1.0] * (A.shape[1] - 1) + [0.0])
    C = np.array([1.0 / (n * l2) for l2 in l2s])
    x = np.zeros((len(C), A.shape[1]))  # per fit: weights, then bias
    u = np.ones((len(C), 2 * n))  # margin slacks s, then hinge losses xi
    v = np.repeat(C[:, None] / 2, 2 * n, axis=1)  # their multipliers lambda, then mu
    stops = [None] * len(C)  # why each fit ended short of the tolerance
    active = np.arange(len(C))  # the fits still iterating
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for _ in range(max_iter):
            xa, ua, va, Ca = x[active], u[active], v[active], C[active]
            r_x = _mv(H, xa) - _mv(A.T, va[:, :n])
            r_xi = Ca[:, None] - va[:, :n] - va[:, n:]
            r_p = _mv(A, xa) + ua[:, n:] - 1.0 - ua[:, :n]
            gap = _dot(ua, va) / (2 * n)
            going = ~(
                (np.abs(r_p).max(axis=1) <= tol * (1.0 + np.abs(xa).max(axis=1)))
                & (np.abs(r_x).max(axis=1) <= tol * n * Ca)
                & (np.maximum(np.abs(r_xi).max(axis=1), gap) <= tol * Ca)
            )
            active, ua, va = active[going], ua[going], va[going]
            if not len(active):
                break
            r_x, r_xi, r_p, gap = r_x[going], r_xi[going], r_p[going], gap[going]
            try:
                moves = [(active, _mehrotra_step(A, H, ua, va, r_x, r_xi, r_p, gap))]
            except (np.linalg.LinAlgError, FloatingPointError):
                moves = []
                for i, fit in enumerate(active):
                    row = slice(i, i + 1)
                    try:
                        moves.append((active[row], _mehrotra_step(
                            A, H, ua[row], va[row], r_x[row], r_xi[row], r_p[row], gap[row])))
                    except (np.linalg.LinAlgError, FloatingPointError):
                        stops[fit] = "broke down in floating point"
                active = np.array([fit for rows, _ in moves for fit in rows], dtype=np.intp)
            for rows, (dx, du, dv, step) in moves:
                step = step[:, None] * 0.99  # stay strictly inside the positive orthant
                x[rows] += step * dx
                u[rows] += step * du
                v[rows] += step * dv
        else:
            for fit in active:
                stops[fit] = "hit the iteration cap"
    for stop in stops:
        if stop is not None:
            warnings.warn(f"linear SVM {stop} without converging")
    return [LinearModel(weights=row[:-1], bias=float(row[-1]), scaler=scaler) for row in x]


def train_single_tree(X: np.ndarray, y: np.ndarray, max_depth: int = 8) -> ForestModel:
    """One entropy tree on the full data, all four features eligible per node."""
    _check_two_classes(y)
    tree = _grow_node(X, y, 0, max_depth, None, "entropy")
    return ForestModel(trees=[tree], max_depth=max_depth, criterion="entropy", seed=0)


def cut_tree(model: ForestModel, max_depth: int) -> ForestModel:
    """`train_single_tree` of the same data at max_depth, from a model of it at least as deep.

    Nothing is drawn, so the shallower grower scans the same rows at
    the same nodes down to max_depth and stops there: each node at that
    depth becomes a `Leaf` of its rows, which are its subtree's rows.
    """
    (tree,) = model.trees
    return model._replace(trees=[_cut(tree, max_depth)], max_depth=max_depth)


def _cut(node, depth: int):
    if isinstance(node, Leaf):
        return node
    if depth == 0:
        return Leaf(_counts(node))
    f, threshold, left, right = node
    return Split(f, threshold, _cut(left, depth - 1), _cut(right, depth - 1))


def _counts(node) -> tuple[int, int]:
    """(humans, bots) of a subtree's rows: its leaves' counts, summed."""
    if isinstance(node, Leaf):
        return node.counts
    (h1, b1), (h2, b2) = _counts(node.left), _counts(node.right)
    return (h1 + h2, b1 + b2)

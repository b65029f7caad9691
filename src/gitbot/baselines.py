"""Comparison classifier families used alongside the random forest.

Every model here answers `bot_fraction(X)`, like `ForestModel`, and is
labelled by `forest.predict` and `training.predict_labels`. k-nearest
neighbours, logistic regression and the linear SVM work on z-score
standardized features (statistics from the training set); the two linear
families share `LinearModel`, whose bot fraction is the sigmoid of the
score. Logistic regression is fitted by Newton's method. The single
decision tree is a one-tree `ForestModel` grown without bootstrap and
with every feature eligible at each node, by the tree grower of
`training`.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .forest import ForestModel, LabeledExample
from .training import _check_two_classes, _grow, _to_arrays


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        scale = X.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        return cls(mean=X.mean(axis=0), scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


@dataclass(frozen=True)
class KnnModel:
    X: np.ndarray  # standardized training features
    y: np.ndarray
    k: int
    scaler: Standardizer

    def bot_fraction(self, X: np.ndarray) -> np.ndarray:
        Z = self.scaler.transform(X)
        d2 = ((Z[:, None, :] - self.X[None, :, :]) ** 2).sum(axis=2)
        # stable sort keeps training order on distance ties
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        return self.y[nearest].mean(axis=1)


def train_knn(data: list[LabeledExample], k: int = 5) -> KnnModel:
    X, y = _to_arrays(data)
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


@dataclass(frozen=True)
class LinearModel:
    """Logistic regression or linear SVM: a hyperplane over standardized features."""

    weights: np.ndarray
    bias: float
    scaler: Standardizer
    converged: bool
    n_iter: int

    def bot_fraction(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.scaler.transform(X) @ self.weights + self.bias)


def train_logistic(
    data: list[LabeledExample],
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
    X, y = _to_arrays(data)
    _check_two_classes(y)
    scaler = Standardizer.fit(X)
    A = np.hstack([scaler.transform(X), np.ones((len(y), 1))])
    n = len(y)
    penalty = np.diag([l2] * (A.shape[1] - 1) + [0.0])
    theta = np.zeros(A.shape[1])  # weights, then bias
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        p = _sigmoid(A @ theta)
        grad = A.T @ (p - y) / n + penalty @ theta
        if np.abs(grad).max() < tol:
            converged = True
            break
        hessian = (A.T * (p * (1.0 - p))) @ A / n + penalty
        theta -= np.linalg.solve(hessian, grad)
    if not converged:
        warnings.warn("logistic regression hit the iteration cap without converging")
    return LinearModel(
        weights=theta[:-1], bias=float(theta[-1]), scaler=scaler, converged=converged, n_iter=iteration
    )


def train_linear_svm(
    data: list[LabeledExample],
    l2: float = 1e-2,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> LinearModel:
    """Minimize hinge loss plus L2 penalty by subgradient descent.

    Full-batch updates with the 1/(l2 * t) step schedule; convergence
    is declared when the objective stops improving.
    """
    X, y = _to_arrays(data)
    _check_two_classes(y)
    scaler = Standardizer.fit(X)
    Z = scaler.transform(X)
    n = len(y)
    sy = 2.0 * y - 1.0
    w = np.zeros(Z.shape[1])
    b = 0.0
    converged = False
    iteration = 0
    prev_obj = np.inf
    for iteration in range(1, max_iter + 1):
        margins = sy * (Z @ w + b)
        violating = margins < 1.0
        obj = np.maximum(0.0, 1.0 - margins).mean() + 0.5 * l2 * (w @ w)
        if abs(prev_obj - obj) < tol * max(1.0, abs(prev_obj)):
            converged = True
            break
        prev_obj = obj
        step = 1.0 / (l2 * iteration)
        grad_w = l2 * w - Z[violating].T @ sy[violating] / n
        grad_b = -sy[violating].sum() / n
        w -= step * grad_w
        b -= step * grad_b
    if not converged:
        warnings.warn("linear SVM hit the iteration cap without converging")
    return LinearModel(weights=w, bias=float(b), scaler=scaler, converged=converged, n_iter=iteration)


def train_single_tree(
    data: list[LabeledExample], max_depth: int = 8, criterion: str = "entropy"
) -> ForestModel:
    """One tree on the full data, all four features eligible per node."""
    X, y = _to_arrays(data)
    _check_two_classes(y)
    rng = np.random.default_rng(0)  # unused: all features are always candidates
    tree = _grow(X, y, 0, max_depth, X.shape[1], rng, criterion)
    return ForestModel(trees=[tree], n_estimators=1, max_depth=max_depth, criterion=criterion, seed=0)

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitbot.baselines import (
    KNN_BLOCK_ROWS,
    LinearModel,
    Standardizer,
    cut_tree,
    train_knn,
    train_linear_svm,
    train_logistic,
    train_single_tree,
)
from gitbot.errors import SingleClassData
from gitbot.features import FeatureVector
from gitbot.forest import BOT, HUMAN, predict
from gitbot.training import predict_labels

from .test_forest import example, random_examples, stack, tied_data, tree_depth


def accuracy(model, data):
    X, y = data
    return (predict_labels(model, X) == y).mean()


def converged(fit, *args, **kwargs):
    """The model fit(*args, **kwargs) returns; fails if the fit warns that it stopped short."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        return fit(*args, **kwargs)


def two_class_tied_data(seed, n):
    """`tied_data` with both classes: the first two rows are a human and a bot."""
    X, y = tied_data(seed, n)
    y[:2] = [0, 1]
    return X, y


SEPARABLE = stack(
    *[example(10, 0, p, 0.0, BOT) for p in (1, 2, 3, 2, 1)],
    *[example(10, 0, p, 0.0, HUMAN) for p in (40, 50, 60, 55, 45)],
)


def knn_oracle(X, y, k, queries):
    """kNN bot fractions of the queries: every squared distance in one 3-D array, summed."""
    scaler = Standardizer.fit(X)
    Z, T = scaler.transform(queries), scaler.transform(X)
    d2 = ((Z[:, None, :] - T[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return y[nearest].mean(axis=1)


class TestKnn:
    def test_k1_returns_own_label_on_training_points(self):
        rng = np.random.default_rng(0)
        data = random_examples(rng, 30)
        model = train_knn(*data, k=1)
        assert accuracy(model, data) == 1.0

    def test_majority_of_neighbours(self):
        model = train_knn(*SEPARABLE, k=3)
        assert predict(model, FeatureVector(10, 0, 2, 0.0)) == BOT
        assert predict(model, FeatureVector(10, 0, 52, 0.0)) == HUMAN

    def test_standardization_scale_invariance(self):
        rng = np.random.default_rng(1)
        X, y = random_examples(rng, 50)
        scale = np.array([1000.0, 1.0, 1.0, 1.0])  # n_messages in thousandths
        model = train_knn(X, y, k=5)
        model_scaled = train_knn(X * scale, y, k=5)
        queries, _ = random_examples(rng, 30)
        for row in queries:
            fv = FeatureVector(*row)
            fv_scaled = FeatureVector(*(row * scale))
            assert predict(model, fv) == predict(model_scaled, fv_scaled)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            train_knn(*SEPARABLE, k=0)
        with pytest.raises(ValueError):
            train_knn(*SEPARABLE, k=len(SEPARABLE[1]) + 1)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 80),
        data_seed=st.integers(0, 2**32 - 1),
        ks=st.lists(st.integers(1, 80), min_size=1, max_size=6),
    )
    def test_one_order_gives_every_k_the_fraction_of_its_own_fit(self, n, data_seed, ks):
        # every feature column is a permutation of one column of five levels,
        # so all four standardize alike: many equal distances, and distances
        # equal but for the last bit, which the order of the additions sets
        rng = np.random.default_rng(data_seed)
        column = rng.integers(0, 5, n) * 0.7
        X = np.column_stack([rng.permutation(column) for _ in range(4)])
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        queries = np.vstack([X[:10], rng.integers(0, 5, (10, 4)) * 0.7])
        ks = [min(k, n) for k in ks]
        fractions = train_knn(X, y, k=max(ks)).bot_fractions(queries, ks)
        assert len(fractions) == len(ks)
        for k, fraction in zip(ks, fractions):
            assert fraction.tolist() == knn_oracle(X, y, k, queries).tolist()
            assert fraction.tolist() == train_knn(X, y, k=k).bot_fraction(queries).tolist()

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(2, 40),
        blocks=st.integers(0, 2),
        extra=st.integers(1, KNN_BLOCK_ROWS - 1),
        data_seed=st.integers(0, 2**32 - 1),
        ks=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    )
    def test_rows_ranked_in_blocks_score_as_all_rows_at_once(self, n, blocks, extra, data_seed, ks):
        # three levels per feature: most queries lie at equal distances from
        # several training rows, and the last block is only partly filled
        rng = np.random.default_rng(data_seed)
        X = rng.integers(0, 3, (n, 4)) * 0.5
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        queries = rng.integers(0, 3, (blocks * KNN_BLOCK_ROWS + extra, 4)) * 0.5
        ks = [min(k, n) for k in ks]
        fractions = train_knn(X, y, k=max(ks)).bot_fractions(queries, ks)
        for k, fraction in zip(ks, fractions):
            assert fraction.tolist() == knn_oracle(X, y, k, queries).tolist()


class TestLogistic:
    def test_separable_training_accuracy(self):
        model = converged(train_logistic, *SEPARABLE)
        assert accuracy(model, SEPARABLE) == 1.0

    def test_iteration_cap_flags_nonconvergence(self):
        with pytest.warns(UserWarning, match="hit the iteration cap"):
            model = train_logistic(*SEPARABLE, max_iter=3)
        assert not np.array_equal(model.weights, converged(train_logistic, *SEPARABLE).weights)

    def test_strong_penalty_converges_to_finite_weights(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = converged(train_logistic, *SEPARABLE, l2=1e4)
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)

    def test_bot_like_contributor_labelled_bot(self):
        model = train_logistic(*SEPARABLE)
        assert predict(model, FeatureVector(10, 0, 1, 0.0)) == BOT

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassData):
            train_logistic(*example(10, 0, 1, 0.0, BOT, copies=5))


def svm_objective(model, data, l2, theta=None):
    """(1/n) * sum of hinge losses + (l2/2) * |w|^2 at theta = (w, b), default the model's."""
    if theta is None:
        theta = np.append(model.weights, model.bias)
    X, y = data
    margins = (2.0 * y - 1.0) * (model.scaler.transform(X) @ theta[:-1] + theta[-1])
    return np.maximum(0.0, 1.0 - margins).mean() + 0.5 * l2 * (theta[:-1] @ theta[:-1])


# The single-l2 solver that the stacked `train_linear_svm` replaced, as it
# was: every stacked fit must give its bytes.
def _oracle_max_step(v, dv):
    shrinking = dv < 0.0
    if not shrinking.any():
        return 1.0
    return min(1.0, float(np.min(-v[shrinking] / dv[shrinking])))


def _oracle_mehrotra_step(A, H, u, v, r_x, r_xi, r_p, gap):
    n = len(A)
    s, xi = u[:n], u[n:]
    lam, mu = v[:n], v[n:]
    G = s / lam + xi / mu
    AG = A / G[:, None]
    lhs = H + A.T @ AG

    def newton(r_c):
        r_sl, r_xm = r_c[:n], r_c[n:]
        q = -r_p - r_sl / lam + (xi / mu) * r_xi + r_xm / mu
        dx = np.linalg.solve(lhs, AG.T @ q - r_x)
        dlam = (q - A @ dx) / G
        for _ in range(2):
            fix = np.linalg.solve(lhs, A.T @ dlam - H @ dx - r_x)
            dx += fix
            dlam -= (A @ fix) / G
        dxi = (xi / mu) * (dlam - r_xi) - r_xm / mu
        du = np.concatenate([-(r_sl + s * dlam) / lam, dxi])
        dv = np.concatenate([dlam, -(r_xm + mu * dxi) / xi])
        return dx, du, dv, min(_oracle_max_step(u, du), _oracle_max_step(v, dv))

    _, du, dv, step = newton(u * v)
    sigma = ((u + step * du) @ (v + step * dv) / (2 * n) / gap) ** 3
    return newton(u * v + du * dv - sigma * gap)


def oracle_linear_svm(X, y, l2=1e-2, tol=1e-9, max_iter=100):
    scaler = Standardizer.fit(X)
    n = len(y)
    sy = 2.0 * y - 1.0
    A = sy[:, None] * np.hstack([scaler.transform(X), np.ones((n, 1))])
    H = np.diag([1.0] * (A.shape[1] - 1) + [0.0])
    C = 1.0 / (n * l2)
    x = np.zeros(A.shape[1])
    u = np.ones(2 * n)
    v = np.full(2 * n, C / 2)
    stop = None
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for _ in range(max_iter):
            r_x = H @ x - A.T @ v[:n]
            r_xi = C - v[:n] - v[n:]
            r_p = A @ x + u[n:] - 1.0 - u[:n]
            gap = (u @ v) / (2 * n)
            if (
                np.abs(r_p).max() <= tol * (1.0 + np.abs(x).max())
                and np.abs(r_x).max() <= tol * n * C
                and max(np.abs(r_xi).max(), gap) <= tol * C
            ):
                break
            try:
                dx, du, dv, step = _oracle_mehrotra_step(A, H, u, v, r_x, r_xi, r_p, gap)
            except (np.linalg.LinAlgError, FloatingPointError):
                stop = "broke down in floating point"
                break
            step *= 0.99
            x += step * dx
            u += step * du
            v += step * dv
        else:
            stop = "hit the iteration cap"
    if stop is not None:
        warnings.warn(f"linear SVM {stop} without converging")
    return LinearModel(weights=x[:-1], bias=float(x[-1]), scaler=scaler)


def fitted(fit, *args, **kwargs):
    """(what fit(*args, **kwargs) returns, the messages of the warnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fit(*args, **kwargs)
    return result, [str(w.message) for w in caught]


def assert_stacked_fits_alone(data, l2s, **options):
    """Each model of one stacked fit has the bytes, and the warning, of the oracle's fit alone."""
    models, warned = fitted(train_linear_svm, *data, l2s, **options)
    alone = [fitted(oracle_linear_svm, *data, l2=l2, **options) for l2 in l2s]
    assert len(models) == len(l2s)
    for model, (expected, _) in zip(models, alone):
        assert model.weights.tobytes() == expected.weights.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(expected.bias).tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(model.scaler, expected.scaler))
    assert warned == [message for _, messages in alone for message in messages]
    return warned


NOISY = random_examples(np.random.default_rng(7), 40, separable=False)

# objectives reached by the full-batch subgradient solver this one replaced
# (1/(l2 t) steps, at most 5000 of them)
SUBGRADIENT_OBJECTIVES = [
    (SEPARABLE, 1e-4, 0.0001916580045867761),
    (SEPARABLE, 1e-2, 0.008919950549948598),
    (SEPARABLE, 1e4, 0.9999520854988533),
    (NOISY, 1e-4, 0.6747677239708907),
    (NOISY, 1e-2, 0.6694385211410566),
    (NOISY, 1e4, 0.999966482735376),
]

# rounding slack: along a direction where the objective is flat, the
# perturbed and the optimal objective may differ in the last bits
ROUNDING = 1e-14


class TestLinearSvm:
    def test_separates_training_data(self):
        (model,) = train_linear_svm(*SEPARABLE)
        assert accuracy(model, SEPARABLE) == 1.0

    @pytest.mark.parametrize("data,l2,subgradient_objective", SUBGRADIENT_OBJECTIVES)
    def test_converges_to_the_minimum(self, data, l2, subgradient_objective):
        (model,) = converged(train_linear_svm, *data, [l2])
        optimum = svm_objective(model, data, l2)
        assert optimum <= subgradient_objective + ROUNDING
        theta = np.append(model.weights, model.bias)
        rng = np.random.default_rng(0)
        random_directions = rng.normal(size=(20, len(theta)))
        random_directions /= np.linalg.norm(random_directions, axis=1, keepdims=True)
        directions = [*np.eye(len(theta)), *random_directions]
        for direction in directions:
            for sign in (1.0, -1.0):
                moved = svm_objective(model, data, l2, theta + sign * 1e-4 * direction)
                assert optimum <= moved + ROUNDING

    def test_iteration_cap_flags_nonconvergence(self):
        with pytest.warns(UserWarning, match="hit the iteration cap"):
            (model,) = train_linear_svm(*SEPARABLE, max_iter=2, tol=0.0)
        (fit,) = converged(train_linear_svm, *SEPARABLE)
        assert not np.array_equal(model.weights, fit.weights)

    def test_floating_point_breakdown_flags_nonconvergence(self):
        # with tol 0 the iterates approach the optimum until floating point fails
        with pytest.warns(UserWarning, match="broke down"):
            (model,) = train_linear_svm(*SEPARABLE, [1.0], tol=0.0, max_iter=1000)
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        assert accuracy(model, SEPARABLE) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassData):
            train_linear_svm(*example(10, 0, 1, 0.0, HUMAN, copies=5))

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(4, 40),
        data_seed=st.integers(0, 2**16),
        tied=st.booleans(),
        copies=st.integers(1, 3),
        exponents=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=9),
        repeat=st.booleans(),
    )
    def test_each_stacked_fit_is_its_fit_alone(self, n, data_seed, tied, copies, exponents, repeat):
        # tied rows, or random rows; copies duplicates every row; repeat
        # fits one l2 twice in the stack
        if tied:
            X, y = two_class_tied_data(data_seed, n)
        else:
            X, y = random_examples(np.random.default_rng(data_seed), n, separable=False)
            y[:2] = [0, 1]
        data = (np.tile(X, (copies, 1)), np.tile(y, copies))
        l2s = [10.0**e for e in exponents]
        if repeat:
            l2s.append(l2s[0])
        assert_stacked_fits_alone(data, l2s)

    def test_a_cap_that_only_some_fits_reach_warns_once_for_each(self):
        # alone, these fits converge within 7, 7, 8, 9 and 10 iterations
        l2s = [1e4, 1e-4, 1e2, 1e-2, 1.0]
        warned = assert_stacked_fits_alone(SEPARABLE, l2s, max_iter=8)
        assert warned == ["linear SVM hit the iteration cap without converging"] * 2

    def test_a_fit_that_breaks_down_stops_alone(self):
        # C = 1/(n * 1e300) underflows the step: only that fit breaks down
        warned = assert_stacked_fits_alone(NOISY, [1e-2, 1e300, 1.0])
        assert warned == ["linear SVM broke down in floating point without converging"]
        assert_stacked_fits_alone(NOISY, [1e300])

    def test_every_fit_of_a_stack_may_break_down_or_hit_the_cap(self):
        # tol 0: no fit converges, and each ends alone in its own way
        assert_stacked_fits_alone(SEPARABLE, [1e-4, 1e-2, 1.0, 1e2, 1e4], tol=0.0, max_iter=60)
        assert_stacked_fits_alone(SEPARABLE, [1.0, 1e-2], tol=0.0, max_iter=1000)

    def test_no_l2_gives_no_model(self):
        assert train_linear_svm(*SEPARABLE, []) == []


class TestSingleTree:
    def test_uses_all_features_and_depth_bound(self):
        rng = np.random.default_rng(2)
        X, y = random_examples(rng, 120, separable=False)
        model = train_single_tree(X, y, max_depth=4)
        assert tree_depth(model.trees[0]) <= 4

    def test_separable_data(self):
        model = train_single_tree(*SEPARABLE)
        assert accuracy(model, SEPARABLE) == 1.0

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(2, 200), data_seed=st.integers(0, 2**32 - 1))
    def test_cut_trees_are_the_trees_grown_to_each_depth(self, n, data_seed):
        X, y = two_class_tied_data(data_seed, n)
        deep = train_single_tree(X, y, max_depth=10)
        for depth in range(1, 11):
            assert cut_tree(deep, depth) == train_single_tree(X, y, max_depth=depth)


class TestStandardizer:
    def test_zero_variance_features_pass_through(self):
        X = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
        scaler = Standardizer.fit(X)
        Z = scaler.transform(X)
        assert np.all(Z[:, 0] == 0.0)
        assert Z[:, 1].std() == pytest.approx(1.0)

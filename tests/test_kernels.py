"""Numeric kernels: correctness, equality with the loop references, and
stability checks."""

import numpy as np
import pytest

from peeler import kernels as K
from oracles import (
    central_difference_gradient,
    ref_mlr_loss_grad,
    ref_smo_solve,
    svm_dual_objective,
)


def _gram_direct(A, B, gamma):
    out = np.zeros((len(A), len(B)))
    for i in range(len(A)):
        for j in range(len(B)):
            d = A[i] - B[j]
            out[i, j] = np.exp(-gamma * float(d @ d))
    return out


def test_rbf_gram_matches_direct_formula():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(13, 6))
    B = rng.normal(size=(9, 6))
    got = K.rbf_gram(A, B, 0.3)
    assert np.allclose(got, _gram_direct(A, B, 0.3), rtol=1e-12, atol=1e-14)


def test_rbf_self_similarity_and_symmetry():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 8))
    g = K.rbf_gram(X, X, 0.125)
    assert np.allclose(np.diag(g), 1.0, atol=1e-15)
    assert np.allclose(g, g.T, atol=1e-15)
    assert (g > 0).all() and (g <= 1.0 + 1e-15).all()


def test_rbf_gram_psd_on_random_samples():
    rng = np.random.default_rng(3)
    for _ in range(50):
        X = rng.normal(size=(20, 8)) * rng.uniform(0.1, 5.0)
        g = K.rbf_gram(X, X, float(rng.uniform(0.01, 2.0)))
        assert np.linalg.eigvalsh(g).min() >= -1e-8


def _assert_mlr_matches_reference(W, Xb, y, l2):
    loss, grad = K.mlr_loss_grad(W, Xb, y, l2)
    ref_loss, ref_grad = ref_mlr_loss_grad(W, Xb, y, l2)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


def _assert_smo_matches_reference(gram, y, c, tol, max_passes):
    alpha, b, passes, converged = K.smo_solve(gram, y, c, tol, max_passes)
    ref_alpha, ref_b, ref_passes, ref_converged = ref_smo_solve(gram, y, c, tol, max_passes)
    assert np.array_equal(alpha, ref_alpha)
    assert b == ref_b
    assert passes == ref_passes
    assert converged == ref_converged
    return alpha, b, passes, converged


def test_mlr_loss_grad_equals_row_loop_reference():
    rng = np.random.default_rng(4)
    for trial in range(60):
        n = int(rng.integers(1, 300))
        d = int(rng.integers(1, 12))
        k = 3 if trial % 5 == 0 else 2
        W = rng.normal(size=(k, d + 1)) * rng.uniform(0.01, 10.0)
        Xb = np.hstack([rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0), np.ones((n, 1))])
        y = rng.integers(0, k, size=n)
        _assert_mlr_matches_reference(W, Xb, y, float(rng.choice([0.0, 1e-3, 0.5])))


def test_smo_equals_element_loop_reference():
    rng = np.random.default_rng(9)
    for trial in range(40):
        n = int(rng.integers(2, 120))
        X = rng.normal(size=(n, int(rng.integers(1, 9))))
        yy = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        gram = K.rbf_gram(X, X, float(rng.uniform(0.05, 1.0)))
        c = float(rng.choice([0.5, 10.0]))
        max_passes = int(rng.integers(1, 200))
        _assert_smo_matches_reference(gram, yy, c, 1e-3, max_passes)


def test_smo_tied_gradients_pick_first_index_like_reference():
    # integer points repeat, so many gradients tie exactly at every round
    rng = np.random.default_rng(10)
    for trial in range(20):
        n = int(rng.integers(6, 60))
        X = rng.integers(0, 3, size=(n, 2)).astype(float)
        yy = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        _assert_smo_matches_reference(K.rbf_gram(X, X, 0.5), yy, 1.0, 1e-3, 50)
    # at entry every gradient equals its label: all +1 tie and all -1 tie
    yy = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    _assert_smo_matches_reference(np.eye(6), yy, 10.0, 1e-3, 20)


def test_smo_all_alphas_at_bound_like_reference():
    # conflicting duplicates: each pair pushes both alphas to C, no free vector
    X = np.repeat(np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 0.5]]), 2, axis=0)
    yy = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
    gram = K.rbf_gram(X, X, 0.5)
    for c in (0.1, 1.0, 10.0):
        alpha, _, _, converged = _assert_smo_matches_reference(gram, yy, c, 1e-3, 50)
        assert converged
        assert np.array_equal(alpha, np.full(6, c))


def test_smo_gap_within_tol_at_entry_like_reference():
    # the entry gap max(G) - min(G) over y is 2; at or above it nothing moves
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 3))
    yy = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    gram = K.rbf_gram(X, X, 0.3)
    for tol in (2.0, 2.5):
        alpha, _, passes, converged = _assert_smo_matches_reference(gram, yy, 10.0, tol, 10)
        assert converged and passes == 1
        assert not alpha.any()
    for args in ((10.0, 1e-3, 0), (10.0, 1e-3, 1)):  # no budget / one-pass budget
        _assert_smo_matches_reference(gram, yy, *args)


def test_smo_one_class_and_empty_like_reference():
    yy = np.ones(5)
    _assert_smo_matches_reference(np.eye(5), yy, 1.0, 1e-3, 10)
    _assert_smo_matches_reference(np.eye(5), -yy, 1.0, 1e-3, 10)
    _assert_smo_matches_reference(np.zeros((0, 0)), np.zeros(0), 1.0, 1e-3, 10)


def test_smo_is_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 8))
    yy = np.where(rng.random(50) > 0.5, 1.0, -1.0)
    gram = K.rbf_gram(X, X, 0.125)
    a1, b1, p1, c1 = K.smo_solve(gram, yy, 10.0, 1e-3, 200)
    a2, b2, p2, c2 = K.smo_solve(gram, yy, 10.0, 1e-3, 200)
    assert np.array_equal(a1, a2) and b1 == b2 and p1 == p2 and c1 == c2


def test_smo_solves_xor():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    gram = K.rbf_gram(X, X, 1.0)
    alpha, b, _, converged = K.smo_solve(gram, y, 10.0, 1e-3, 200)
    f = (alpha * y) @ gram + b
    assert converged
    assert (np.sign(f) == y).all()


def test_smo_conflicting_duplicates_hit_box_bound():
    X = np.array([[1.0, 2.0], [1.0, 2.0]])
    y = np.array([1.0, -1.0])
    gram = K.rbf_gram(X, X, 0.5)
    alpha, _, _, converged = K.smo_solve(gram, y, 10.0, 1e-3, 50)
    assert converged
    assert np.allclose(alpha, [10.0, 10.0])


def test_smo_satisfies_box_equality_and_kkt_gap():
    rng = np.random.default_rng(6)
    for trial in range(10):
        n = int(rng.integers(10, 80))
        X = rng.normal(size=(n, 8)) + rng.normal(size=8)
        yy = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        if len(np.unique(yy)) < 2:
            continue
        c, tol = 10.0, 1e-3
        gram = K.rbf_gram(X, X, 0.125)
        alpha, b, _, converged = K.smo_solve(gram, yy, c, tol, 400)
        assert (alpha >= -1e-12).all() and (alpha <= c + 1e-12).all()
        assert abs((alpha * yy).sum()) <= 1e-6
        if converged:
            f = (alpha * yy) @ gram + b
            e = f - yy
            up = np.where(alpha < c - 1e-9, -(yy * e), -np.inf).max()
            dn = np.where(alpha > 1e-9, yy * e, -np.inf).max()
            assert max(up, dn) <= tol


def test_smo_dual_objective_matches_naive_recompute():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 4))
    yy = np.where(rng.random(30) > 0.5, 1.0, -1.0)
    gram = K.rbf_gram(X, X, 0.25)
    alpha, _, _, _ = K.smo_solve(gram, yy, 10.0, 1e-3, 200)
    ay = alpha * yy
    fast = float(alpha.sum() - 0.5 * (ay @ gram @ ay))
    naive = svm_dual_objective(alpha.tolist(), yy.tolist(), gram.tolist())
    assert fast == pytest.approx(naive, rel=1e-6, abs=1e-6)


def test_mlr_gradient_matches_central_differences():
    rng = np.random.default_rng(8)
    n, d = 40, 5
    Xb = np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))])
    y = rng.integers(0, 2, size=n)
    l2 = 1e-3

    def loss_of(W):
        return K.mlr_loss_grad(W, Xb, y, l2)[0]

    worst = 0.0
    for _ in range(20):
        W = rng.normal(size=(2, d + 1))
        _, analytic = K.mlr_loss_grad(W, Xb, y, l2)
        numeric = central_difference_gradient(loss_of, W, h=1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-4


def test_mlr_loss_is_standard_cross_entropy_at_zero():
    Xb = np.hstack([np.ones((4, 2)), np.ones((4, 1))])
    y = np.array([0, 1, 0, 1])
    loss, _ = K.mlr_loss_grad(np.zeros((2, 3)), Xb, y, 0.0)
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)

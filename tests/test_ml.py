"""Classifier training, prediction, fusion, and model persistence."""

import io

import numpy as np
import pytest

from peeler.errors import CorpusError, ParseError
from peeler.ml import (
    FusedClassifier,
    MlrModel,
    Scaler,
    SvmModel,
    fit_scaler,
    fuse,
    fuse_batch,
    load_model,
    mlr_class_probabilities,
    mlr_probabilities_batch,
    predict_svm_batch,
    save_model,
    svm_decision_batch,
    train_mlr,
    train_svm,
)
from oracles import ref_mlr_probabilities, svm_dual_objective
from peeler import kernels


def _separable(n=20, d=5, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(size=(n, d)) + gap, rng.normal(size=(n, d)) - gap])
    y = np.array([1] * n + [0] * n)
    return X, y


# --- scaler -----------------------------------------------------------------


def test_scaler_two_points():
    s = fit_scaler(np.array([[0.0], [2.0]]))
    assert s.mean[0] == 1.0 and s.std[0] == 1.0
    assert s.apply(np.array([0.0]))[0] == -1.0
    assert s.apply(np.array([2.0]))[0] == 1.0


def test_scaler_constant_feature_flagged():
    s = fit_scaler(np.array([[3.0, 1.0], [3.0, 2.0]]))
    assert s.degenerate.tolist() == [True, False]
    assert s.std[0] == 1.0


def test_scaler_needs_two_samples():
    with pytest.raises(ValueError):
        fit_scaler(np.array([[1.0, 2.0]]))


def test_scaled_moments_are_standard():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 6)) * rng.uniform(0.1, 40, size=6) + rng.normal(size=6)
    s = fit_scaler(X)
    Z = s.apply(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)


# --- softmax regression -----------------------------------------------------


def test_mlr_separable_training_accuracy():
    X, y = _separable()
    m = train_mlr(X, y)
    preds = (mlr_probabilities_batch(m, X)[:, 1] >= 0.5).tolist()
    assert preds == [bool(v) for v in y]
    assert m.converged


def test_mlr_loss_history_non_increasing():
    X, y = _separable(seed=3)
    m = train_mlr(X, y)
    diffs = np.diff(m.loss_history)
    assert (diffs <= 1e-12).all()


def test_mlr_no_signal_predicts_prior():
    X = np.ones((8, 5))
    y = np.array([1, 0, 0, 1, 0, 0, 0, 0])  # prior 0.25
    m = train_mlr(X, y)
    assert mlr_probabilities_batch(m, X[:1])[:, 1][0] == pytest.approx(0.25, abs=0.02)


def test_mlr_single_class_rejected():
    with pytest.raises(CorpusError, match="^training data has a single class$"):
        train_mlr(np.ones((4, 5)), np.array([1, 1, 1, 1]))


def test_mlr_needs_four_samples():
    with pytest.raises(ValueError):
        train_mlr(np.ones((3, 5)), np.array([0, 1, 0]))


def test_mlr_label_shape_mismatch():
    with pytest.raises(ValueError):
        train_mlr(np.ones((4, 5)), np.array([0, 1]))


@pytest.mark.parametrize("labels", [[0, 1, 0.5, 1], [0, 1, 2, 1]], ids=["non_integer", "outside_0_1"])
def test_mlr_labels_must_be_0_or_1(labels):
    with pytest.raises(ValueError, match=r"^labels must be 0 \(benign\) or 1 \(ransomware\)$"):
        train_mlr(np.arange(20.0).reshape(4, 5), np.array(labels))


def test_mlr_zero_weights_give_half():
    s = Scaler(np.zeros(5), np.ones(5), np.zeros(5, dtype=bool))
    m = MlrModel(weights=np.zeros((2, 6)), scaler=s, l2=0.0, converged=True, n_iter=0)
    assert mlr_probabilities_batch(m, np.zeros((1, 5)))[:, 1][0] == 0.5


def test_mlr_probability_monotone_in_margin():
    s = Scaler(np.zeros(1), np.ones(1), np.zeros(1, dtype=bool))
    w = np.array([[0.0, 0.0], [1.0, 0.0]])  # ransomware score = x
    m = MlrModel(weights=w, scaler=s, l2=0.0, converged=True, n_iter=0)
    margins = np.array([[0.0], [2.0], [8.0], [30.0], [200.0]])
    probs = mlr_probabilities_batch(m, margins)[:, 1].tolist()
    assert probs[0] == 0.5
    assert all(b > a for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 1.0 - 1e-12


def test_mlr_probabilities_equal_row_loop_reference():
    # one row and many, at widths 5 and 8; the larger weights push the
    # scores far past exp's range, so the shift by the row max matters
    rng = np.random.default_rng(13)
    for width in (5, 8):
        for rows in (1, 1, 40, 97):
            s = Scaler(rng.normal(size=width), rng.uniform(0.5, 3.0, size=width), np.zeros(width, dtype=bool))
            w = rng.normal(size=(2, width + 1)) * rng.choice([0.1, 3.0, 200.0])
            m = MlrModel(weights=w, scaler=s, l2=0.0, converged=True, n_iter=0)
            X = rng.normal(size=(rows, width)) * 10.0
            Xb = np.hstack([s.apply(X), np.ones((rows, 1))])
            assert np.array_equal(mlr_probabilities_batch(m, X), ref_mlr_probabilities(w, Xb))


def test_mlr_probabilities_sum_to_one():
    X, y = _separable(seed=5)
    m = train_mlr(X, y)
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = mlr_class_probabilities(m, rng.normal(size=5) * 10)
        assert abs(p.sum() - 1.0) <= 1e-9


# --- svm ---------------------------------------------------------------------


def test_svm_xor_training_accuracy():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    m = train_svm(X, y)
    assert (predict_svm_batch(m, X) >= 0.5).tolist() == [False, False, True, True]


def test_svm_conflicting_duplicates_at_bound():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0], [-5.0, -5.0]])
    y = np.array([1, 0, 1, 0])
    m = train_svm(X, y)
    # the two duplicate rows scale to identical vectors; their coefficients
    # sit at +/- c
    mags = np.abs(m.dual_coefs)
    assert (mags <= m.c + 1e-9).all()
    assert (mags >= m.c - 1e-6).sum() >= 2


def test_svm_dual_objective_self_consistent():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 8))
    y = (rng.random(30) > 0.5).astype(int)
    if len(np.unique(y)) < 2:
        y[0] = 1 - y[0]
    m = train_svm(X, y)
    alphas = np.abs(m.dual_coefs)
    ys = np.sign(m.dual_coefs)
    gram = kernels.rbf_gram(m.support_vectors, m.support_vectors, m.gamma)
    naive = svm_dual_objective(alphas.tolist(), ys.tolist(), gram.tolist())
    assert m.dual_objective == pytest.approx(naive, rel=1e-6, abs=1e-6)


def test_svm_kkt_equality_and_box():
    X, y = _separable(n=30, gap=1.0, seed=8)
    m = train_svm(X, y)
    assert abs(m.dual_coefs.sum()) <= 1e-6
    assert (np.abs(m.dual_coefs) <= m.c + 1e-9).all()
    assert m.converged


def test_svm_single_class_rejected():
    with pytest.raises(CorpusError, match="^training data has a single class$"):
        train_svm(np.ones((4, 8)), np.array([1, 1, 1, 1]))


def test_svm_decision_zero_scores_half():
    s = Scaler(np.zeros(8), np.ones(8), np.zeros(8, dtype=bool))
    m = SvmModel(
        support_vectors=np.zeros((0, 8)),
        dual_coefs=np.zeros(0),
        bias=0.0,
        gamma=0.125,
        c=10.0,
        scaler=s,
        converged=True,
        passes=0,
        dual_objective=0.0,
    )
    assert svm_decision_batch(m, np.ones((1, 8)))[0] == 0.0
    assert predict_svm_batch(m, np.ones((1, 8)))[0] == 0.5


def test_svm_isolated_support_vector_dominates_own_score():
    X = np.vstack([np.full((1, 8), 8.0), np.random.default_rng(9).normal(size=(9, 8)) - 3.0])
    y = np.array([1] + [0] * 9)
    m = train_svm(X, y)
    assert predict_svm_batch(m, X[:1])[0] > 0.5


def test_svm_gamma_defaults_to_inverse_dim():
    X, y = _separable(n=10, d=8, seed=10)
    assert train_svm(X, y).gamma == pytest.approx(1.0 / 8.0)


def test_training_is_deterministic():
    X, y = _separable(n=25, gap=0.8, seed=11)
    m1, m2 = train_svm(X, y), train_svm(X, y)
    assert np.array_equal(m1.dual_coefs, m2.dual_coefs) and m1.bias == m2.bias
    r1, r2 = train_mlr(X, y), train_mlr(X, y)
    assert np.array_equal(r1.weights, r2.weights)


def test_affine_feature_rescale_leaves_predictions_unchanged():
    X, y = _separable(n=25, gap=1.5, seed=12)
    scale = np.array([3.0, 0.2, 11.0, 40.0, 0.01])
    shift = np.array([5.0, -2.0, 100.0, 0.0, 7.0])
    rng = np.random.default_rng(13)
    probe = rng.normal(size=(40, 5)) * 2

    m1 = train_mlr(X, y)
    m2 = train_mlr(X * scale + shift, y)
    p1 = mlr_probabilities_batch(m1, probe)[:, 1]
    p2 = mlr_probabilities_batch(m2, probe * scale + shift)[:, 1]
    assert np.allclose(p1, p2, atol=1e-9)

    s1 = train_svm(X, y)
    s2 = train_svm(X * scale + shift, y)
    q1 = predict_svm_batch(s1, probe)
    q2 = predict_svm_batch(s2, probe * scale + shift)
    assert np.allclose(q1, q2, atol=1e-9)


# --- fusion -------------------------------------------------------------------


def _stub_fused(mlr_logit=0.0, svm_bias=0.0, threshold=0.5):
    s5 = Scaler(np.zeros(5), np.ones(5), np.zeros(5, dtype=bool))
    s8 = Scaler(np.zeros(8), np.ones(8), np.zeros(8, dtype=bool))
    w = np.zeros((2, 6))
    w[1, 5] = mlr_logit
    mlr = MlrModel(weights=w, scaler=s5, l2=0.0, converged=True, n_iter=0)
    svm = SvmModel(
        support_vectors=np.zeros((0, 8)),
        dual_coefs=np.zeros(0),
        bias=svm_bias,
        gamma=0.125,
        c=10.0,
        scaler=s8,
        converged=True,
        passes=0,
        dual_objective=0.0,
    )
    return FusedClassifier(mlr=mlr, svm=svm, threshold=threshold)


def test_fuse_zero_scores_is_benign():
    fc = _stub_fused(mlr_logit=-80.0, svm_bias=-80.0)
    score, verdict = fuse(fc, np.zeros(5), np.zeros(8))
    assert score == pytest.approx(0.0, abs=1e-9)
    assert verdict is False


def test_fuse_boundary_is_closed():
    # component scores (1.0, 0.0) average to exactly the 0.5 threshold
    fc = _stub_fused(mlr_logit=1e4, svm_bias=-1e4)
    score, verdict = fuse(fc, np.zeros(5), np.zeros(8))
    assert score == pytest.approx(0.5, abs=1e-12)
    assert verdict is True


def test_fuse_averages_scores():
    fc = _stub_fused(mlr_logit=0.0, svm_bias=np.log(3.0))  # svm score 0.75
    score, _ = fuse(fc, np.zeros(5), np.zeros(8))
    assert score == pytest.approx((0.5 + 0.75) / 2)


# --- persistence ---------------------------------------------------------------


def _trained_fused(seed=20):
    X5, y = _separable(n=15, d=5, gap=1.2, seed=seed)
    X8, _ = _separable(n=15, d=8, gap=1.2, seed=seed + 1)
    return FusedClassifier(mlr=train_mlr(X5, y), svm=train_svm(X8, y), threshold=0.5)


@pytest.mark.parametrize("seed", [24, 26, 28])
def test_fuse_is_a_one_row_fuse_batch(seed):
    fc = _trained_fused(seed=seed)
    rng = np.random.default_rng(seed)
    X5 = rng.normal(size=(200, 5)) * 3
    X8 = rng.normal(size=(200, 8)) * 3
    verdicts = set()
    for x5, x8 in zip(X5, X8):
        score, verdict = fuse(fc, x5, x8)
        assert score == fuse_batch(fc, x5[None], x8[None])[0]
        assert verdict is (score >= fc.threshold)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed,n_train", [(24, 15), (26, 60), (28, 200)])
def test_row_score_does_not_depend_on_batch(seed, n_train):
    X5, y = _separable(n=n_train, d=5, gap=0.6, seed=seed)
    X8, _ = _separable(n=n_train, d=8, gap=0.6, seed=seed + 1)
    fc = FusedClassifier(mlr=train_mlr(X5, y), svm=train_svm(X8, y))
    rng = np.random.default_rng(seed)
    X5 = rng.normal(size=(300, 5)) * 3
    X8 = rng.normal(size=(300, 8)) * 3
    alone = np.array([fuse_batch(fc, X5[i : i + 1], X8[i : i + 1])[0] for i in range(300)])
    # fewer rows than support vectors, as many, and more
    n_sv = len(fc.svm.support_vectors)
    sizes = (2, 3, 7, 64, 300, n_sv - 1, n_sv, n_sv + 1)
    assert min(sizes) < n_sv < max(sizes)
    for size in sizes:
        rows = rng.choice(300, size=size, replace=False)
        assert (fuse_batch(fc, X5[rows], X8[rows]) == alone[rows]).all()


def test_model_round_trip_identical_predictions():
    fc = _trained_fused()
    buf = io.BytesIO()
    save_model(fc, buf)
    buf.seek(0)
    fc2 = load_model(buf)
    assert np.array_equal(fc.mlr.weights, fc2.mlr.weights)
    assert np.array_equal(fc.svm.dual_coefs, fc2.svm.dual_coefs)
    assert np.array_equal(fc.svm.support_vectors, fc2.svm.support_vectors)
    assert fc.svm.bias == fc2.svm.bias
    rng = np.random.default_rng(21)
    for _ in range(100):
        x5 = rng.normal(size=5) * 3
        x8 = rng.normal(size=8) * 3
        assert fuse(fc, x5, x8) == fuse(fc2, x5, x8)


def test_model_rewrite_is_byte_identical():
    fc = _trained_fused(seed=22)
    b1 = io.BytesIO()
    save_model(fc, b1)
    b1.seek(0)
    b2 = io.BytesIO()
    save_model(load_model(b1), b2)
    assert b1.getvalue() == b2.getvalue()


def test_empty_model_stream_rejected():
    with pytest.raises(ParseError):
        load_model(io.BytesIO(b""))


def test_version_mismatch_rejected():
    with pytest.raises(ParseError, match=r"^line 1: unsupported model version 'v0'$"):
        load_model(io.BytesIO(b"PEELER-MODEL v0\n[mlr]\n"))


def test_truncated_model_rejected():
    fc = _trained_fused(seed=23)
    buf = io.BytesIO()
    save_model(fc, buf)
    head = buf.getvalue().split(b"\n[svm]\n")[0]
    with pytest.raises(ParseError):
        load_model(io.BytesIO(head))

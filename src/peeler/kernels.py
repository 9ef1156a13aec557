"""Numeric hot kernels: RBF Gram matrices, softmax-regression loss/gradient,
and the sequential pairwise dual optimizer for the SVM.

The kernels are plain numpy. The loss/gradient and the dual optimizer are
vectorized but reproduce the per-row and per-element loops kept as
references in the tests bit for bit: scalar sums accumulate in the loops'
sequential order (np.cumsum, not the pairwise np.sum), and the working pair
is taken with argmax/argmin, which return the first index on a tie just as
the loops' strict comparisons did. Any change in the last bit could flip a
line-search step and so change a trained model.
"""

from __future__ import annotations

import numpy as np


def _sequential_sum(start, terms: np.ndarray):
    """start + terms[0] + terms[1] + ..., added left to right."""
    return np.cumsum(np.concatenate(([start], terms)))[-1]


def rbf_gram(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||A[i] - B[j]||^2)."""
    # one row at a time: an (n, m, d) broadcast is slower and holds n*m*d floats
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        d = B - A[i]
        out[i] = np.exp(-gamma * np.sum(d * d, axis=1))
    return out


def mlr_loss_grad(W, Xb, y, l2):
    """L2-regularized mean cross-entropy of softmax regression.

    W: (k, d+1) weights with bias in the last column; Xb: (n, d+1)
    bias-augmented inputs; y: (n,) int class indexes. The bias column is not
    regularized. Returns (loss, gradient).
    """
    n = Xb.shape[0]
    scores = Xb @ W.T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    P = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    loss = _sequential_sum(0.0, -np.log(P[rows, y])) / n
    P[rows, y] -= 1.0
    G = (P.T @ Xb) / n
    Wr = W[:, :-1]
    loss = _sequential_sum(loss, (0.5 * l2 * Wr * Wr).ravel())
    G[:, :-1] += l2 * Wr
    return loss, G


def smo_solve(gram, y, c, tol, max_passes):
    """Maximal-violating-pair ascent on the box-constrained SVM dual.

    gram: (n, n) kernel matrix; y: (n,) labels in {-1, +1}. Works in the
    transformed variables beta_k = y_k * alpha_k under the single constraint
    sum(beta) = 0: each round moves the steepest feasible ascent pair by the
    analytic step, clipped to the box. Stops when the KKT gap
    max_up(G) - min_down(G) drops below tol; pair updates are capped at
    max_passes * n. Returns (alpha, b, passes, converged).
    """
    n = y.shape[0]
    beta = np.zeros(n)
    G = y.astype(np.float64).copy()  # dW/dbeta_k = y_k - sum_l beta_l K_kl
    upper = np.where(y > 0.0, c, 0.0)
    lower = np.where(y > 0.0, 0.0, -c)
    can_rise = upper - 1e-12
    can_fall = lower + 1e-12
    max_iter = max_passes * n
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        G_up = np.where(beta < can_rise, G, -np.inf)
        gi = int(np.argmax(G_up))
        gmax = G_up[gi]
        G_dn = np.where(beta > can_fall, G, np.inf)
        gj = int(np.argmin(G_dn))
        gmin = G_dn[gj]
        if gmax <= -1e300 or gmin >= 1e300 or gmax - gmin <= tol:
            converged = True
            break
        room = min(upper[gi] - beta[gi], beta[gj] - lower[gj])
        denom = gram[gi, gi] + gram[gj, gj] - 2.0 * gram[gi, gj]
        if denom > 1e-12:
            lam = (gmax - gmin) / denom
            if lam > room:
                lam = room
        else:
            lam = room
        beta[gi] += lam
        beta[gj] -= lam
        G -= lam * (gram[gi] - gram[gj])
    # bias: mean gradient over non-bound vectors, else the KKT midpoint
    free = (lower + 1e-9 < beta) & (beta < upper - 1e-9)
    nb_cnt = int(np.count_nonzero(free))
    if nb_cnt > 0:
        b = _sequential_sum(0.0, G[free]) / nb_cnt
    else:
        ub = np.max(G[beta < can_rise], initial=-1e300)
        lb = np.min(G[beta > can_fall], initial=1e300)
        if ub > -1e299 and lb < 1e299:
            b = 0.5 * (ub + lb)
        elif ub > -1e299:
            b = ub
        elif lb < 1e299:
            b = lb
        else:
            b = 0.0
    alpha = beta * y
    passes = (it + n - 1) // n if n > 0 else 0
    return alpha, b, passes, converged

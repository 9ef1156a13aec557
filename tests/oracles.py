"""Independent reference implementations used to check the engine.

The pattern-matching oracle re-derives per-file event lists with its own
bookkeeping and matches letter sequences with re.fullmatch on every prefix;
it shares no code with the streaming matcher. Numeric references use
straightforward two-pass formulas. The softmax loss/gradient and the SVM dual
solver references are the original per-row and per-element loops that the
vectorized kernels must reproduce bit for bit. The window reference builds
every window up to the last event, empty ones included, by direct indexing.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Tuple

import numpy as np

from peeler.events import Event, EventType, Provider
from peeler.fileio import PatternKind
from peeler.trace_io import Window

ACCEPTOR_REGEXES = [
    (PatternKind.MEM_TO_FILE_POST_OVERWRITE, re.compile(r"C(?:R+W+R*)+NDC"), False),
    (PatternKind.MEM_TO_FILE_PRE_OVERWRITE, re.compile(r"CNDC(?:R+W+R*)+"), False),
    (PatternKind.FILE_TO_FILE_DELETE, re.compile(r"C+(?:R+C?W+R*)+D"), True),
    (PatternKind.FILE_TO_FILE_RENAME_DELETE, re.compile(r"C+(?:R+C?W+R*)+NDC"), True),
]

_LETTER = {
    EventType.FILE_CREATE: "C",
    EventType.READ: "R",
    EventType.WRITE: "W",
    EventType.RENAME: "N",
    EventType.DELETE: "D",
    EventType.FILE_DELETE: "D",
}


class _OracleFile:
    def __init__(self):
        self.letters: List[str] = []
        self.pids = set()
        self.names = set()
        self.objects = set()
        self.keys = set()
        self.matched = False


def _dir_of(name: str) -> str:
    q = name.lower().replace("\\", "/").rstrip("/")
    i = q.rfind("/")
    return q[:i] if i >= 0 else ""


def _stage3_ok(f: _OracleFile, pid_images: Dict[int, str]) -> bool:
    if len(f.names) > 1 and len({_dir_of(n) for n in f.names}) > 1:
        return False
    real = [
        p
        for p in f.pids
        if p != 4 and pid_images.get(p) not in ("system", "explorer.exe")
    ]
    return len(real) <= 1


def brute_force_alerts(events: List[Event]) -> List[Tuple[int, PatternKind]]:
    """All (event index, kind) detections, by exhaustive prefix matching."""
    by_object: Dict[int, _OracleFile] = {}
    by_key: Dict[int, _OracleFile] = {}
    by_name: Dict[str, _OracleFile] = {}
    pid_images: Dict[int, str] = {}
    fired: List[Tuple[int, PatternKind]] = []

    for i, e in enumerate(events):
        if e.provider is Provider.PROCESS:
            image = e.attrs.image_file_name
            if image:
                pid_images[e.pid] = image.split("\\")[-1].split("/")[-1].lower()
            continue
        if e.provider is not Provider.FILE:
            continue

        if e.etype in (EventType.FILE_CREATE, EventType.FILE_DELETE):
            obj, name = e.attrs.file_object, e.attrs.file_name
            f = by_object.get(obj) or by_name.get(name)
            if f is None:
                f = _OracleFile()
            f.objects.add(obj)
            by_object[obj] = f
            f.names.add(name)
            by_name[name] = f
        else:
            fk, obj = e.attrs.file_key, e.attrs.file_object
            f = by_object.get(fk) or by_key.get(fk) or by_object.get(obj)
            if f is None:
                f = _OracleFile()
            f.keys.add(fk)
            by_key[fk] = f
            f.objects.add(obj)
            by_object[obj] = f

        if f.matched:
            continue
        f.letters.append(_LETTER[e.etype])
        f.pids.add(e.pid)
        seq = "".join(f.letters)
        multi = len(f.objects) >= 2
        for kind, rx, needs_multi in ACCEPTOR_REGEXES:
            if needs_multi and not multi:
                continue
            if rx.fullmatch(seq):
                if _stage3_ok(f, pid_images):
                    f.matched = True
                    fired.append((i, kind))
                break
    return fired


def ref_window_partition(events: List[Event], window_len: int) -> List[Window]:
    """Tumbling windows [i*window_len, (i+1)*window_len) from t=0 up to the
    last event, contiguous and exhaustive: interior empty windows included."""
    if not events:
        return []
    n = events[-1].timestamp // window_len + 1
    windows = [Window(index=i, start=i * window_len, end=(i + 1) * window_len) for i in range(n)]
    for e in events:
        windows[e.timestamp // window_len].events.append(e)
    return windows


def ref_pearson(xs, ys) -> float:
    """Two-pass Pearson coefficient with fsum accumulation; 0 if degenerate."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def central_difference_gradient(fn, w, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    flat = w.ravel()
    gflat = g.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = fn(w)
        flat[k] = orig - h
        fm = fn(w)
        flat[k] = orig
        gflat[k] = (fp - fm) / (2.0 * h)
    return g


def svm_dual_objective(alphas, y, gram) -> float:
    """W(a) = sum(a) - 1/2 sum_ij a_i a_j y_i y_j K_ij, evaluated naively."""
    n = len(alphas)
    total = math.fsum(alphas)
    quad = 0.0
    for i in range(n):
        if alphas[i] == 0.0:
            continue
        for j in range(n):
            if alphas[j] != 0.0:
                quad += alphas[i] * alphas[j] * y[i] * y[j] * gram[i][j]
    return total - 0.5 * quad


def ref_mlr_loss_grad(W, Xb, y, l2):
    """Row-loop reference for kernels.mlr_loss_grad.

    L2-regularized mean cross-entropy of softmax regression.
    W: (k, d+1) weights with bias in the last column; Xb: (n, d+1)
    bias-augmented inputs; y: (n,) int class indexes. The bias column is not
    regularized. Returns (loss, gradient).
    """
    n = Xb.shape[0]
    scores = Xb @ W.T
    loss = 0.0
    P = np.empty_like(scores)
    for i in range(n):
        zi = scores[i]
        m = zi.max()
        e = np.exp(zi - m)
        s = e.sum()
        P[i] = e / s
        loss -= np.log(P[i, y[i]])
    loss /= n
    for i in range(n):
        P[i, y[i]] -= 1.0
    G = (P.T @ Xb) / n
    k, d1 = W.shape
    for c in range(k):
        for j in range(d1 - 1):
            loss += 0.5 * l2 * W[c, j] * W[c, j]
            G[c, j] += l2 * W[c, j]
    return loss, G


def ref_smo_solve(gram, y, c, tol, max_passes):
    """Element-loop reference for kernels.smo_solve.

    Maximal-violating-pair ascent on the box-constrained SVM dual.
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
    max_iter = max_passes * n
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        gi = -1
        gmax = -1e300
        gj = -1
        gmin = 1e300
        for k in range(n):
            if y[k] > 0.0:
                upper = c
                lower = 0.0
            else:
                upper = 0.0
                lower = -c
            bk = beta[k]
            gk = G[k]
            if bk < upper - 1e-12 and gk > gmax:
                gmax = gk
                gi = k
            if bk > lower + 1e-12 and gk < gmin:
                gmin = gk
                gj = k
        if gi < 0 or gj < 0 or gmax - gmin <= tol:
            converged = True
            break
        upper_i = c if y[gi] > 0.0 else 0.0
        lower_j = 0.0 if y[gj] > 0.0 else -c
        room = min(upper_i - beta[gi], beta[gj] - lower_j)
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
    nb_sum = 0.0
    nb_cnt = 0
    for k in range(n):
        if y[k] > 0.0:
            upper = c
            lower = 0.0
        else:
            upper = 0.0
            lower = -c
        if lower + 1e-9 < beta[k] < upper - 1e-9:
            nb_sum += G[k]
            nb_cnt += 1
    if nb_cnt > 0:
        b = nb_sum / nb_cnt
    else:
        ub = -1e300
        lb = 1e300
        for k in range(n):
            if y[k] > 0.0:
                upper = c
                lower = 0.0
            else:
                upper = 0.0
                lower = -c
            if beta[k] < upper - 1e-12 and G[k] > ub:
                ub = G[k]
            if beta[k] > lower + 1e-12 and G[k] < lb:
                lb = G[k]
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

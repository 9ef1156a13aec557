"""The two window classifiers and their score fusion.

A softmax-regression model over process-tree features and an RBF-kernel SVM
over event-frequency features are trained separately; at detection time
their [0, 1] scores are averaged and thresholded. The SVM margin is squashed
through a logistic to make the two scores commensurable.

Feature rows are plain float vectors (features.MlrFeatures/SvmFeatures
.as_vector()); every function takes its rows as whatever np.asarray reads as
a float matrix. Every score comes from the batch functions: fuse_batch scores
a matrix of window rows, and fuse scores one window as a 1-row matrix. Each
row's dot products are summed along the row itself, never through a matrix
product, so a row scores the same bits in a batch of any size. The class
probabilities go through kernels.softmax, as the training loss does. A model
without support vectors needs no case of its own: its Gram matrix has no
columns, so each margin is the bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import BinaryIO, List, Tuple

import numpy as np

from . import kernels
from .errors import CorpusError, ParseError, decode_utf8
from .features import MLR_WIDTH, SVM_WIDTH, window_features
from .trace_io import Window

MODEL_MAGIC = "PEELER-MODEL"
MODEL_VERSION = "v1"

CLASSES = ("benign", "ransomware")

# Training hyperparameters: the MLR's L2 penalty, iteration cap and gradient
# tolerance, and the SVM's box bound, KKT tolerance and pass budget.
MLR_L2 = 1e-3
MLR_MAX_ITER = 500
MLR_GRAD_TOL = 1e-6
SVM_C = 10.0
SVM_TOL = 1e-3
SVM_MAX_PASSES = 400
DEFAULT_THRESHOLD = 0.5
# The fewest rows train_mlr fits.
MIN_TRAIN_SAMPLES = 4


def _as_labels(y, n: int) -> np.ndarray:
    arr = np.asarray(y)
    if arr.shape != (n,):
        raise ValueError(f"labels shape {arr.shape} does not match {n} samples")
    out = arr.astype(np.int64)
    if not np.array_equal(out, arr):
        raise ValueError("labels must be 0 (benign) or 1 (ransomware)")
    if set(np.unique(out)) - {0, 1}:
        raise ValueError("labels must be 0 (benign) or 1 (ransomware)")
    return out


@dataclass
class Scaler:
    """Per-feature standardization; zero-variance features keep std 1 and
    are flagged degenerate."""

    mean: np.ndarray
    std: np.ndarray
    degenerate: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


def fit_scaler(samples) -> Scaler:
    X = np.asarray(samples, dtype=np.float64)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit a scaler")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    degenerate = std == 0.0
    std = np.where(degenerate, 1.0, std)
    return Scaler(mean=mean, std=std, degenerate=degenerate)


@dataclass
class MlrModel:
    """Softmax regression over tree features; weights[(2, d+1)], bias last."""

    weights: np.ndarray
    scaler: Scaler
    l2: float
    converged: bool
    n_iter: int
    loss_history: List[float] = field(default_factory=list, repr=False)


def train_mlr(X, y) -> MlrModel:
    """Fit by full-batch gradient descent with backtracking line search.

    The accepted step always decreases the regularized loss, so the loss
    history is non-increasing; converged means the gradient norm fell below
    MLR_GRAD_TOL within MLR_MAX_ITER iterations. A rejected trial step
    computes its loss alone, an accepted one its gradient too.
    """
    Xm = np.asarray(X, dtype=np.float64)
    n = Xm.shape[0]
    ym = _as_labels(y, n)
    if n < MIN_TRAIN_SAMPLES:
        raise ValueError(f"need at least {MIN_TRAIN_SAMPLES} training samples")
    if len(np.unique(ym)) < 2:
        raise CorpusError("training data has a single class")
    scaler = fit_scaler(Xm)
    Xb = np.hstack([scaler.apply(Xm), np.ones((n, 1))])
    W = np.zeros((2, Xb.shape[1]))

    loss, grad = kernels.mlr_loss_grad(W, Xb, ym, MLR_L2)
    history = [float(loss)]
    converged = False
    step = 1.0
    it = 0
    for it in range(1, MLR_MAX_ITER + 1):
        gnorm2 = float((grad * grad).sum())
        if np.sqrt(gnorm2) < MLR_GRAD_TOL:
            converged = True
            it -= 1
            break
        accepted = False
        t = step
        while t > 1e-14:
            Wc = W - t * grad
            closs, P = kernels.mlr_loss(Wc, Xb, ym, MLR_L2)
            if closs <= loss - 1e-4 * t * gnorm2:
                W, loss, grad = Wc, closs, kernels.mlr_grad(Wc, Xb, ym, MLR_L2, P)
                history.append(float(loss))
                step = min(t * 2.0, 64.0)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break  # no descent step representable; treat as stalled
    return MlrModel(
        weights=W, scaler=scaler, l2=MLR_L2, converged=converged, n_iter=it, loss_history=history
    )


def mlr_class_probabilities(m: MlrModel, x) -> np.ndarray:
    """Softmax probabilities (benign, ransomware) for one feature vector."""
    return mlr_probabilities_batch(m, [x])[0]


def mlr_probabilities_batch(m: MlrModel, X) -> np.ndarray:
    """Softmax probabilities (benign, ransomware), one row per feature row."""
    Xs = m.scaler.apply(X)
    Xb = np.hstack([Xs, np.ones((Xs.shape[0], 1))])
    return kernels.softmax((Xb[:, None, :] * m.weights).sum(-1))


@dataclass
class SvmModel:
    """RBF-kernel SVM; support vectors are stored scaled, dual_coefs are
    alpha_i * y_i."""

    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float
    gamma: float
    c: float
    scaler: Scaler
    converged: bool
    passes: int
    dual_objective: float


def train_svm(X, y) -> SvmModel:
    """Fit the dual with the pairwise optimizer in kernels.smo_solve.

    The RBF gamma is 1/n_features. When the pass budget runs out before the
    KKT gap closes, the best iterate is returned with converged False.
    """
    Xm = np.asarray(X, dtype=np.float64)
    n = Xm.shape[0]
    ym = _as_labels(y, n)
    if len(np.unique(ym)) < 2:
        raise CorpusError("training data has a single class")
    gamma = 1.0 / Xm.shape[1]
    scaler = fit_scaler(Xm)
    Xs = scaler.apply(Xm)
    yy = np.where(ym == 1, 1.0, -1.0)
    gram = kernels.rbf_gram(Xs, Xs, gamma)
    alpha, bias, passes, converged = kernels.smo_solve(gram, yy, SVM_C, SVM_TOL, SVM_MAX_PASSES)
    ay = alpha * yy
    objective = float(alpha.sum() - 0.5 * (ay @ gram @ ay))
    keep = alpha > 1e-10
    return SvmModel(
        support_vectors=Xs[keep],
        dual_coefs=ay[keep],
        bias=float(bias),
        gamma=float(gamma),
        c=SVM_C,
        scaler=scaler,
        converged=bool(converged),
        passes=int(passes),
        dual_objective=objective,
    )


def svm_decision_batch(m: SvmModel, X) -> np.ndarray:
    """Raw margins f(x) = sum_i coef_i K(sv_i, x) + b, one per row."""
    k = kernels.rbf_gram(m.scaler.apply(X), m.support_vectors, m.gamma)
    return (k * m.dual_coefs).sum(-1) + m.bias


def predict_svm_batch(m: SvmModel, X) -> np.ndarray:
    """Margins squashed to [0, 1]; 0.5 sits exactly on the boundary."""
    f = np.clip(svm_decision_batch(m, X), -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-f))


@dataclass
class FusedClassifier:
    mlr: MlrModel
    svm: SvmModel
    threshold: float = DEFAULT_THRESHOLD

    def flags(self, scores):
        """The one verdict rule: ransomware at or above the threshold, per score."""
        return scores >= self.threshold

    def score_window(self, window: Window) -> Tuple[float, bool]:
        """One closed window's fused score, and whether it flags ransomware."""
        mlr, svm = window_features(window)
        return fuse(self, mlr.as_vector(), svm.as_vector())


def fuse_batch(fc: FusedClassifier, X_mlr, X_svm) -> np.ndarray:
    """Average the two scores, one per window row."""
    return 0.5 * (mlr_probabilities_batch(fc.mlr, X_mlr)[:, 1] + predict_svm_batch(fc.svm, X_svm))


def fuse(fc: FusedClassifier, x_mlr, x_svm) -> Tuple[float, bool]:
    """Score one window as a 1-row batch, and whether fc.flags it."""
    score = float(fuse_batch(fc, [x_mlr], [x_svm])[0])
    return score, fc.flags(score)


# --- persistence ------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_vec(v) -> str:
    return " ".join(_fmt(x) for x in v)


def _scaler_lines(s: Scaler) -> List[str]:
    return [
        f"mean = {_fmt_vec(s.mean)}",
        f"std = {_fmt_vec(s.std)}",
        "degenerate = " + " ".join("1" if d else "0" for d in s.degenerate),
    ]


def save_model(fc: FusedClassifier, sink: BinaryIO) -> None:
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}"]
    lines.append("[scaler.mlr]")
    lines += _scaler_lines(fc.mlr.scaler)
    lines.append("[mlr]")
    lines.append(f"l2 = {_fmt(fc.mlr.l2)}")
    lines.append(f"converged = {int(fc.mlr.converged)}")
    lines.append(f"n_iter = {fc.mlr.n_iter}")
    for cls, row in zip(CLASSES, fc.mlr.weights):
        lines.append(f"weights.{cls} = {_fmt_vec(row)}")
    lines.append("[scaler.svm]")
    lines += _scaler_lines(fc.svm.scaler)
    lines.append("[svm]")
    lines.append(f"c = {_fmt(fc.svm.c)}")
    lines.append(f"gamma = {_fmt(fc.svm.gamma)}")
    lines.append(f"bias = {_fmt(fc.svm.bias)}")
    lines.append(f"converged = {int(fc.svm.converged)}")
    lines.append(f"passes = {fc.svm.passes}")
    lines.append(f"dual_objective = {_fmt(fc.svm.dual_objective)}")
    lines.append(f"coef = {_fmt_vec(fc.svm.dual_coefs)}")
    for i, sv in enumerate(fc.svm.support_vectors):
        lines.append(f"sv.{i} = {_fmt_vec(sv)}")
    lines.append("[fusion]")
    lines.append(f"threshold = {_fmt(fc.threshold)}")
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))


def _num(s: str) -> float:
    """A finite float spelled as _fmt writes it: the shortest round-trip repr."""
    x = float(s)
    if repr(x) != s:
        raise ValueError(f"{s!r} is not written as {x!r}")
    if not np.isfinite(x):
        raise ValueError(f"{s!r} is not finite")
    return x


def _count(s: str) -> int:
    """A non-negative integer spelled as save_model writes it: plain decimal digits."""
    n = int(s)
    if n < 0 or str(n) != s:
        raise ValueError(f"{s!r} is not a count in plain decimal digits")
    return n


def _positive(s: str) -> float:
    x = _num(s)
    if x <= 0:
        raise ValueError(f"{s!r} is not positive")
    return x


def _flag(s: str) -> bool:
    if s not in ("0", "1"):
        raise ValueError(f"{s!r} is not 0 or 1")
    return s == "1"


def _row(width: int, read=_num):
    """A parser of exactly width space-separated values, each read by read."""

    def parse(s: str) -> np.ndarray:
        values = [read(t) for t in s.split()]
        if len(values) != width:
            raise ValueError(f"expected {width} values, got {len(values)}")
        return np.array(values)

    return parse


class _ModelText:
    """The [section] key = value lines of a model file, numbered as the file is.

    Each key keeps its line, so a rejected value names it; a missing key
    names its section's header line, and a missing section the last line.
    A repeated key or section is rejected at the repeat.
    """

    def __init__(self, lines: List[str]):
        self.last_line = len(lines)
        self.sections = {}
        keys = None
        for lineno, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                if line[1:-1] in self.sections:
                    raise ParseError(lineno, f"repeated section {line}")
                keys = {}
                self.sections[line[1:-1]] = (lineno, keys)
                continue
            if keys is None:
                raise ParseError(lineno, "key outside any section")
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError(lineno, "expected key = value")
            key = key.strip()
            if key in keys:
                raise ParseError(lineno, f"repeated key {key!r}")
            keys[key] = (lineno, value.strip())

    def section(self, name: str) -> Tuple[int, dict]:
        """The header line of [name] and its keys."""
        if name not in self.sections:
            raise ParseError(self.last_line, f"missing model section [{name}]")
        return self.sections[name]

    def get(self, section: str, key: str, parse=_num):
        """The value of key in section, read by parse (a finite float by default)."""
        header, keys = self.section(section)
        if key not in keys:
            raise ParseError(header, f"missing model key {key!r} in [{section}]")
        lineno, value = keys[key]
        try:
            return parse(value)
        except ValueError as exc:
            raise ParseError(lineno, f"bad model value for {key!r}: {exc}") from None


def _scaler_from(m: _ModelText, section: str, width: int) -> Scaler:
    return Scaler(
        mean=m.get(section, "mean", _row(width)),
        std=m.get(section, "std", _row(width, _positive)),
        degenerate=m.get(section, "degenerate", _row(width, _flag)),
    )


def load_model(source: BinaryIO) -> FusedClassifier:
    """Read a model file. Every number must be finite and spelled as
    save_model writes it, every row as wide as the scorers read and every
    flag 0 or 1; anything else is a ParseError that names the file line it
    rejects."""
    lines = decode_utf8(source.read()).split("\n")
    first = lines[0]
    if not first.startswith(MODEL_MAGIC + " "):
        raise ParseError(1, "missing model header magic")
    version = first[len(MODEL_MAGIC) + 1 :].strip()
    if version != MODEL_VERSION:
        raise ParseError(1, f"unsupported model version {version!r}")
    if lines[-1] == "":
        lines.pop()
    m = _ModelText(lines)
    mlr = MlrModel(
        scaler=_scaler_from(m, "scaler.mlr", MLR_WIDTH),
        l2=m.get("mlr", "l2"),
        converged=m.get("mlr", "converged", _flag),
        n_iter=m.get("mlr", "n_iter", _count),
        weights=np.vstack([m.get("mlr", f"weights.{cls}", _row(MLR_WIDTH + 1)) for cls in CLASSES]),
    )
    svm_scaler = _scaler_from(m, "scaler.svm", SVM_WIDTH)
    # one coef per support vector
    n_sv = sum(key.startswith("sv.") for key in m.section("svm")[1])
    svs = [m.get("svm", f"sv.{i}", _row(SVM_WIDTH)) for i in range(n_sv)]
    svm = SvmModel(
        c=m.get("svm", "c"),
        gamma=m.get("svm", "gamma"),
        bias=m.get("svm", "bias"),
        converged=m.get("svm", "converged", _flag),
        passes=m.get("svm", "passes", _count),
        dual_objective=m.get("svm", "dual_objective"),
        dual_coefs=m.get("svm", "coef", _row(n_sv)),
        support_vectors=np.vstack(svs) if svs else np.zeros((0, SVM_WIDTH)),
        scaler=svm_scaler,
    )
    return FusedClassifier(mlr=mlr, svm=svm, threshold=m.get("fusion", "threshold"))


def save_model_file(path, fc: FusedClassifier) -> None:
    with open(path, "wb") as f:
        save_model(fc, f)


def load_model_file(path) -> FusedClassifier:
    with open(path, "rb") as f:
        return load_model(f)

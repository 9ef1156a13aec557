"""Train and eval over a corpus: profiles, splits, training and judgments.

Train and eval decode each corpus trace once, into a TraceProfile: its
manifest, the engine's first alert without a model, and one feature row per
window. Eval judges each test trace of each repeat from the profile alone,
by the order in which detect's engine fires, with one batch that scores all
of the repeat's test windows, and keeps one TraceRow per judgment; its
counts, metrics, latencies and latency table are all read off those rows,
and the --correlations table off the feature rows. A judgment's latency is
TraceManifest.latency, detect's own rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .commands import CommandRule
from .errors import CorpusError
from .events import Alert, Detector
from .features import MLR_WIDTH, SVM_WIDTH, window_features
from .ml import CLASSES, MIN_TRAIN_SAMPLES, FusedClassifier, fuse_batch, train_mlr, train_svm
from .pipeline import Engine, EngineConfig
from .synth import read_corpus_index
from .trace_io import WINDOW_LEN, TraceLabel, TraceManifest, iter_trace, window_partition

# windows from attack traces need this many events to count as attack
# examples during training; near-empty windows carry no attack signal
MIN_ATTACK_WINDOW_EVENTS = 10


# --- corpus loading and per-trace precomputation -----------------------------


@dataclass
class TraceProfile:
    """Everything eval needs about one trace, computed once.

    The rules and the file I/O matcher do not depend on the split, so each
    trace runs through the engine a single time, without a model:
    first_alert is that run's first alert, None when nothing fired. Only
    the ML stage depends on the trained model, and it reads the window rows.
    """

    path: str
    manifest: TraceManifest
    first_alert: Optional[Alert]
    window_ends: np.ndarray
    window_counts: np.ndarray
    X_mlr: np.ndarray
    X_svm: np.ndarray

    @property
    def is_ransomware(self) -> bool:
        return self.manifest.label.is_ransomware


def profile_trace(path: str, rules: List[CommandRule]) -> TraceProfile:
    engine = Engine(EngineConfig(), rules=rules)
    ends, counts, x_mlr, x_svm = [], [], [], []
    with open(path, "rb") as f:
        stream = iter_trace(f)
        manifest = next(stream)
        for w in window_partition(stream, WINDOW_LEN, engine.process_event):
            mlr, svm = window_features(w)
            ends.append(w.end)
            counts.append(w.count)
            x_mlr.append(mlr.as_vector())
            x_svm.append(svm.as_vector())
    # quarantine suppresses only alerts after a pid's first, never the first of all
    return TraceProfile(
        path=path,
        manifest=manifest,
        first_alert=engine.alerts[0] if engine.alerts else None,
        window_ends=np.array(ends, dtype=np.int64),
        window_counts=np.array(counts, dtype=np.int64),
        X_mlr=np.vstack(x_mlr) if x_mlr else np.zeros((0, MLR_WIDTH)),
        X_svm=np.vstack(x_svm) if x_svm else np.zeros((0, SVM_WIDTH)),
    )


def load_corpus_profiles(corpus_dir: str, rules: List[CommandRule]) -> List[TraceProfile]:
    """Profile each trace of a corpus index, in index order.

    A row whose label, family or seed differs from its trace's manifest is
    a CorpusError that names the trace file, and so is a trace labelled
    unknown, which neither class may take.
    """
    profiles = []
    for path, label, family, seed in read_corpus_index(corpus_dir):
        p = profile_trace(path, rules)
        m = p.manifest
        if (label, family, seed) != (m.label.value, m.family, m.seed):
            raise CorpusError(
                f"{path}: index row says {label} | {family} | {seed}, "
                f"its manifest {m.label.value} | {m.family} | {m.seed}"
            )
        if m.label is TraceLabel.UNKNOWN:
            raise CorpusError(f"{path}: label unknown, which is neither benign nor ransomware")
        profiles.append(p)
    return profiles


# --- training ----------------------------------------------------------------


def train_from_profiles(profiles: Sequence[TraceProfile]) -> FusedClassifier:
    """Fit on every window of a benign trace and on each window of an attack
    trace that holds at least MIN_ATTACK_WINDOW_EVENTS events."""
    keep = [p.window_counts >= (MIN_ATTACK_WINDOW_EVENTS if p.is_ransomware else 0) for p in profiles]
    y = np.repeat([int(p.is_ransomware) for p in profiles], [np.count_nonzero(k) for k in keep])
    if len(np.unique(y)) < 2:
        raise CorpusError("training set needs windows from both classes")
    if len(y) < MIN_TRAIN_SAMPLES:
        raise CorpusError(f"training set needs at least {MIN_TRAIN_SAMPLES} windows, got {len(y)}")
    return FusedClassifier(
        mlr=train_mlr(np.vstack([p.X_mlr[k] for p, k in zip(profiles, keep)]), y),
        svm=train_svm(np.vstack([p.X_svm[k] for p, k in zip(profiles, keep)]), y),
    )


def split_profiles(
    profiles: Sequence[TraceProfile], train_frac: float, seed: int, repeat: int
) -> Tuple[List[TraceProfile], List[TraceProfile]]:
    """Repeat `repeat` of the stratified train/test split drawn from `seed`.

    Each class gives round(train_frac * n) training traces, at least one,
    drawn without replacement from SeedSequence([seed, repeat]): ransomware
    first, then benign. Train comes back in draw order, test in corpus
    order. `peeler train` is repeat 0, so it trains eval's first model.
    """
    classes = (
        [i for i, p in enumerate(profiles) if p.is_ransomware],
        [i for i, p in enumerate(profiles) if not p.is_ransomware],
    )
    if not all(classes):
        raise CorpusError("corpus must contain both ransomware and benign traces")
    rng = np.random.default_rng(np.random.SeedSequence([seed, repeat]))
    drawn: List[int] = []
    for members in classes:
        n_train = max(1, round(train_frac * len(members)))
        drawn += [members[j] for j in rng.choice(len(members), size=n_train, replace=False)]
    train = set(drawn)
    return [profiles[i] for i in drawn], [p for i, p in enumerate(profiles) if i not in train]


# --- evaluation --------------------------------------------------------------


@dataclass
class LatencyStats:
    n: int
    mean_ms: float
    p50_ms: float
    p90_ms: float

    @staticmethod
    def of(latencies_us: Sequence[int]) -> Optional["LatencyStats"]:
        if not latencies_us:
            return None
        arr = np.array(sorted(latencies_us), dtype=np.float64) / 1000.0
        return LatencyStats(
            n=len(arr),
            mean_ms=float(arr.mean()),
            p50_ms=float(np.percentile(arr, 50)),
            p90_ms=float(np.percentile(arr, 90)),
        )


@dataclass
class TraceRow:
    """One judgment: a test trace in one repeat, and the first detector to
    fire on it (None when none fired)."""

    repeat: int
    path: str
    label: str
    family: str
    first_detector: Optional[str]
    latency_us: Optional[int]

    @property
    def verdict(self) -> str:
        return "benign" if self.first_detector is None else "ransomware"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class EvalSummary:
    """Eval's judgments, one TraceRow each, and what is read off them.

    tp/fp/tn/fn, the crypto and locker LatencyStats and the metrics of
    metrics_dict (each also an attribute, as in summary.fpr) all derive
    from rows.
    """

    repeats: int
    seed: int
    rows: List[TraceRow] = field(repr=False)

    def __post_init__(self):
        n = Counter((TraceLabel(r.label).is_ransomware, r.first_detector is not None) for r in self.rows)
        self.tp, self.fp, self.tn, self.fn = n[True, True], n[False, True], n[False, False], n[True, False]
        self.crypto_latency = self._latency(TraceLabel.CRYPTO)
        self.locker_latency = self._latency(TraceLabel.SCREEN_LOCKER)
        vars(self).update(self.metrics_dict())

    def _latency(self, label: TraceLabel) -> Optional[LatencyStats]:
        return LatencyStats.of(
            [r.latency_us for r in self.rows if r.label == label.value and r.latency_us is not None]
        )

    def metrics_dict(self) -> Dict[str, float]:
        tp, fp, tn, fn = self.tp, self.fp, self.tn, self.fn
        precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
        return {
            "accuracy": _ratio(tp + tn, tp + fp + tn + fn),
            "tpr": recall,
            "fpr": _ratio(fp, fp + tn),
            "fnr": _ratio(fn, fn + tp),
            "precision": precision,
            "recall": recall,
            "f1": _ratio(2 * precision * recall, precision + recall),
        }


def _judge(profiles: Sequence[TraceProfile],
           model: FusedClassifier) -> List[Tuple[Optional[str], Optional[int]]]:
    """The detector and timestamp of detect's first alert on each trace with
    this model, or (None, None) when none fires.

    That is the earlier of the model-free first alert and the first flagged
    window's end. The ML alert wins a tie: an event stamped at a window's
    end belongs to the next window, so the engine sees it after the window
    has closed and been scored. One fuse_batch scores every trace's windows.
    """
    flags = model.flags(fuse_batch(model, np.vstack([p.X_mlr for p in profiles]),
                                   np.vstack([p.X_svm for p in profiles])))
    starts = np.cumsum([len(p.window_ends) for p in profiles])[:-1]  # of each later profile's rows
    judged = []
    for p, hits in zip(profiles, np.split(flags, starts)):
        first, hit = p.first_alert, np.flatnonzero(hits)
        ml_ts = int(p.window_ends[hit[0]]) if hit.size else None
        if ml_ts is not None and (first is None or ml_ts <= first.event_timestamp):
            judged.append((Detector.ML_CLASSIFIER.value, ml_ts))
        else:
            judged.append((first.detector.value, first.event_timestamp) if first else (None, None))
    return judged


def evaluate_profiles(
    profiles: Sequence[TraceProfile],
    repeats: int,
    seed: int,
    train_frac: float = 0.2,
    fixed_model: Optional[FusedClassifier] = None,
) -> EvalSummary:
    """Repeated stratified train/test splits, one TraceRow per judgment.

    A fixed model is judged on the whole corpus in every repeat; else a
    split that leaves a class untested is a CorpusError, raised after
    training's own checks. A detected trace's latency is
    TraceManifest.latency of its first alert, as in detect.
    """
    rows: List[TraceRow] = []
    for r in range(repeats):
        train_set, test_set = split_profiles(profiles, train_frac, seed, r)
        if fixed_model is None:
            model = train_from_profiles(train_set)
            untested = sorted({p.is_ransomware for p in profiles} - {p.is_ransomware for p in test_set})
            if untested:
                raise CorpusError(f"train fraction {train_frac} leaves no "
                                  f"{' or '.join(CLASSES[c] for c in untested)} trace to test")
        else:
            model, test_set = fixed_model, profiles
        for p, (detector, ts) in zip(test_set, _judge(test_set, model)):
            m = p.manifest
            rows.append(TraceRow(r, p.path, m.label.value, m.family, detector,
                                 None if ts is None else m.latency(ts)))
    return EvalSummary(repeats, seed, rows)

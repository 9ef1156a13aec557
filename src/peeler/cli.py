"""Command-line front end: synth, detect, train, eval.

Train and eval decode each corpus trace once, into a TraceProfile: its
manifest, its split-independent rule and pattern alerts, and one feature row
per window. Eval judges each test trace of each repeat from the profile
alone and keeps one TraceRow per judgment; its counts, metrics, latencies and
latency table are all read off those rows, and the --correlations table off
the feature rows. Detect, train and eval all cut windows at trace_io.WINDOW_LEN,
which no option changes: a model is only valid at the window length its
training rows were taken over.

Exit codes: 0 success, 1 usage error (the parser rejected an argument), 2 data
error (a PeelerError or OSError), 3 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .commands import CommandRule, default_rules_path, load_rules_file
from .errors import CorpusError, PeelerError
from .events import Detector
from .features import MLR_WIDTH, SVM_WIDTH, correlations_from_rows, window_features
from .fileio import PatternKind
from .ml import (
    MIN_TRAIN_SAMPLES,
    FusedClassifier,
    fuse_batch,
    load_model_file,
    save_model_file,
    train_mlr,
    train_svm,
)
from .pipeline import Engine, EngineConfig, run_trace
from .synth import (
    ARCHETYPES,
    SynthConfig,
    default_corpus_spec,
    read_corpus_index,
    synth_corpus,
    synth_trace,
)
from .trace_io import WINDOW_LEN, TraceLabel, TraceManifest, iter_trace, save_trace, window_partition

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL = 0, 1, 2, 3

PATTERN_NAMES = {
    "post-overwrite": PatternKind.MEM_TO_FILE_POST_OVERWRITE,
    "pre-overwrite": PatternKind.MEM_TO_FILE_PRE_OVERWRITE,
    "file-delete": PatternKind.FILE_TO_FILE_DELETE,
    "rename-delete": PatternKind.FILE_TO_FILE_RENAME_DELETE,
}

# `synth --archetype` name -> (SynthConfig archetype, crypto pattern)
ARCHETYPE_NAMES = {
    **{f"crypto:{name}": ("crypto", kind) for name, kind in PATTERN_NAMES.items()},
    **{a.replace("_", "-"): (a, None) for a in ARCHETYPES if a != "crypto"},
}

# windows from attack traces need this many events to count as attack
# examples during training; near-empty windows carry no attack signal
MIN_ATTACK_WINDOW_EVENTS = 10


# --- corpus loading and per-trace precomputation -----------------------------


@dataclass
class TraceProfile:
    """Everything eval needs about one trace, computed once.

    Rule and pattern detections are split-independent, so each trace runs
    through the engine a single time; only the ML stage depends on the
    trained model.
    """

    path: str
    manifest: TraceManifest
    rule_alert_ts: Optional[int]
    pattern_alert_ts: Optional[int]
    window_ends: np.ndarray
    window_counts: np.ndarray
    X_mlr: np.ndarray
    X_svm: np.ndarray

    @property
    def is_ransomware(self) -> bool:
        return self.manifest.label.is_ransomware


def profile_trace(path: str, rules: List[CommandRule]) -> TraceProfile:
    engine = Engine(EngineConfig(quarantine=False), rules=rules)
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
    # without quarantine the engine records every alert, in the order it fired
    first_ts: Dict[Detector, int] = {}
    for alert in engine.alerts:
        first_ts.setdefault(alert.detector, alert.event_timestamp)
    return TraceProfile(
        path=path,
        manifest=manifest,
        rule_alert_ts=first_ts.get(Detector.COMMAND_RULE),
        pattern_alert_ts=first_ts.get(Detector.FILE_IO_PATTERN),
        window_ends=np.array(ends, dtype=np.int64),
        window_counts=np.array(counts, dtype=np.int64),
        X_mlr=np.vstack(x_mlr) if x_mlr else np.zeros((0, MLR_WIDTH)),
        X_svm=np.vstack(x_svm) if x_svm else np.zeros((0, SVM_WIDTH)),
    )


def load_corpus_profiles(corpus_dir: str, rules: List[CommandRule]) -> List[TraceProfile]:
    """Profile each trace of a corpus index, in index order.

    A row whose label, family or seed differs from its trace's manifest is
    a CorpusError that names the trace file.
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


def ml_first_alert_ts(profile: TraceProfile, model: FusedClassifier) -> Optional[int]:
    if len(profile.window_ends) == 0:
        return None
    scores = fuse_batch(model, profile.X_mlr, profile.X_svm)
    hits = np.nonzero(scores >= model.threshold)[0]
    return int(profile.window_ends[hits[0]]) if hits.size else None


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


def _judge(profile: TraceProfile, model: FusedClassifier) -> Tuple[Optional[str], Optional[int]]:
    """The first detector to fire on a trace and its alert timestamp, or
    (None, None) when none fires."""
    fired = [
        (ts, detector.value)
        for ts, detector in (
            (profile.rule_alert_ts, Detector.COMMAND_RULE),
            (profile.pattern_alert_ts, Detector.FILE_IO_PATTERN),
            (ml_first_alert_ts(profile, model), Detector.ML_CLASSIFIER),
        )
        if ts is not None
    ]
    ts, detector = min(fired, default=(None, None))
    return detector, ts


def evaluate_profiles(
    profiles: Sequence[TraceProfile],
    repeats: int,
    seed: int,
    train_frac: float = 0.2,
    fixed_model: Optional[FusedClassifier] = None,
) -> EvalSummary:
    """Repeated stratified train/test splits, one TraceRow per judgment.

    A fixed model is judged on the whole corpus in every repeat. A detected
    attack trace's latency runs from its attack onset, and is 0 when the
    first alert comes before it.
    """
    rows: List[TraceRow] = []
    for r in range(repeats):
        train_set, test_set = split_profiles(profiles, train_frac, seed, r)
        if fixed_model is None:
            model = train_from_profiles(train_set)
        else:
            model, test_set = fixed_model, profiles
        for p in test_set:
            detector, ts = _judge(p, model)
            m = p.manifest
            latency = max(0, ts - m.attack_onset) if detector is not None and p.is_ransomware else None
            rows.append(TraceRow(r, p.path, m.label.value, m.family, detector, latency))
    return EvalSummary(repeats, seed, rows)


# --- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _within(kind, lo, hi=float("inf")):
    """An argparse type: the text as `kind` in [lo, hi], which no NaN is."""
    def parse(text):
        x = kind(text)
        if not lo <= x <= hi:
            raise argparse.ArgumentTypeError(f"{text} is not in [{lo}, {hi}]")
        return x

    parse.__name__ = kind.__name__
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="peeler", description="Streaming ransomware detection engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled trace or corpus")
    p.add_argument("--archetype", choices=ARCHETYPE_NAMES)
    p.add_argument("--files", type=_within(int, 1), default=25, help="files to encrypt (crypto)")
    p.add_argument("--seed", type=_within(int, 0, 2**64 - 1), default=7)
    p.add_argument("--out", help="output trace path")
    p.add_argument("--duration-ms", type=_within(int, 1, (2**63 - 1) // 1000), default=60_000)
    p.add_argument("--intensity", type=_within(float, 0, 1e6), default=1.0)
    p.add_argument("--inject-commands", action="store_true")
    p.add_argument("--default-corpus", metavar="DIR",
                   help="write the standard 40/40/120 evaluation corpus to DIR")
    p.set_defaults(parser=p)

    p = sub.add_parser("detect", help="run the detection pipeline over a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--rules", help="rules file (bundled set when omitted)")
    p.add_argument("--model", help="model file (ML stage off when omitted)")
    p.add_argument("--no-quarantine", action="store_true")
    p.add_argument("--json-report", metavar="PATH")

    p = sub.add_parser("train", help="train the fused classifier on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_within(int, 0, 2**64 - 1), default=42)
    p.add_argument("--train-frac", type=_within(float, 0, 1), default=0.2)
    p.add_argument("--rules", help="rules file (bundled set when omitted)")

    p = sub.add_parser("eval", help="repeated train/test evaluation over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--rules")
    p.add_argument("--model", help="evaluate a fixed model instead of retraining")
    p.add_argument("--repeats", type=_within(int, 1), default=20)
    p.add_argument("--seed", type=_within(int, 0, 2**64 - 1), default=42)
    p.add_argument("--train-frac", type=_within(float, 0, 1), default=0.2)
    p.add_argument("--json-report", metavar="PATH")
    p.add_argument("--latency-table", metavar="PATH",
                   help="write per-trace detection latencies as delimited text")
    p.add_argument("--correlations", action="store_true",
                   help="also print the per-pair event-count correlation table")
    return parser


def _cmd_synth(args) -> int:
    if args.default_corpus:
        entries = synth_corpus(default_corpus_spec(), args.default_corpus, master_seed=args.seed)
        print(f"wrote {len(entries)} traces to {args.default_corpus}")
        return EXIT_OK
    archetype, pattern = ARCHETYPE_NAMES[args.archetype]
    manifest, events = synth_trace(SynthConfig(
        seed=args.seed,
        archetype=archetype,
        pattern=pattern,
        n_files=args.files,
        duration=args.duration_ms * 1000,
        command_injection=args.inject_commands,
        intensity=args.intensity,
    ))
    save_trace(args.out, manifest, events)
    print(f"wrote {manifest.event_count} events ({manifest.label.value}/{manifest.family}) to {args.out}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    config = EngineConfig(quarantine=not args.no_quarantine)
    with open(args.trace, "rb") as f:
        stream = iter_trace(f)
        manifest = next(stream)
        rules = load_rules_file(args.rules or default_rules_path())
        model = load_model_file(args.model) if args.model else None
        # run_trace pulls the events off the file: one window of them is alive at a time
        report = run_trace(Engine(config, rules=rules, model=model), manifest, stream)
    print(f"trace    : {args.trace}")
    print(f"label    : {manifest.label.value} ({manifest.family})")
    print(f"events   : {report.events_processed}  ({report.events_per_second:,.0f}/s)")
    print(f"verdict  : {report.verdict}")
    if report.first_alert_latency is not None:
        print(f"latency  : {report.first_alert_latency / 1000.0:.1f} ms after attack onset")
    if report.alerts:
        print(f"{'detector':14s} {'pid':>7s} {'at (ms)':>10s}  trigger")
        for a in report.alerts:
            print(f"{a.detector.value:14s} {a.pid:7d} {a.event_timestamp / 1000.0:10.1f}  {a.trigger}")
    if args.json_report:
        payload = {
            "trace": args.trace,
            "label": manifest.label.value,
            "family": manifest.family,
            "verdict": report.verdict,
            "events_processed": report.events_processed,
            "events_per_second": report.events_per_second,
            "first_alert_latency_us": report.first_alert_latency,
            "alerts": [
                {
                    "detector": a.detector.value,
                    "pid": a.pid,
                    "trigger": a.trigger,
                    "event_timestamp": a.event_timestamp,
                    "emitted_timestamp": a.event_timestamp,  # every alert is emitted at its event
                }
                for a in report.alerts
            ],
        }
        with open(args.json_report, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
    return EXIT_OK


def _cmd_train(args) -> int:
    rules = load_rules_file(args.rules or default_rules_path())
    profiles = load_corpus_profiles(args.corpus, rules)
    train, _ = split_profiles(profiles, args.train_frac, args.seed, 0)
    model = train_from_profiles(train)
    save_model_file(args.out, model)
    n_ransomware = sum(p.is_ransomware for p in train)
    print(
        f"trained on {len(train)} traces "
        f"({n_ransomware} ransomware, {len(train) - n_ransomware} benign); model written to {args.out}"
    )
    print(f"mlr converged={model.mlr.converged} iters={model.mlr.n_iter}; "
          f"svm converged={model.svm.converged} passes={model.svm.passes} "
          f"support={len(model.svm.dual_coefs)}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    rules = load_rules_file(args.rules or default_rules_path())
    profiles = load_corpus_profiles(args.corpus, rules)
    fixed = load_model_file(args.model) if args.model else None
    summary = evaluate_profiles(
        profiles, repeats=args.repeats, seed=args.seed, train_frac=args.train_frac,
        fixed_model=fixed,
    )
    print(f"repeats  : {summary.repeats} (seed {summary.seed})")
    print(f"counts   : tp={summary.tp} fp={summary.fp} tn={summary.tn} fn={summary.fn}")
    for k, v in summary.metrics_dict().items():
        print(f"{k:9s}: {v:.4f}")
    for name, stats in (("crypto", summary.crypto_latency), ("locker", summary.locker_latency)):
        if stats:
            print(f"latency  : {name} n={stats.n} mean={stats.mean_ms:.1f}ms "
                  f"p50={stats.p50_ms:.1f}ms p90={stats.p90_ms:.1f}ms")
    if args.correlations:
        print(correlations_from_rows((p.manifest.label, p.X_svm) for p in profiles).as_table())
    if args.latency_table:
        with open(args.latency_table, "w", encoding="utf-8") as f:
            f.write("repeat | trace | label | family | verdict | detector | latency_ms\n")
            for row in summary.rows:
                lat = f"{row.latency_us / 1000.0:.2f}" if row.latency_us is not None else ""
                f.write(
                    f"{row.repeat} | {row.path} | {row.label} | {row.family} | "
                    f"{row.verdict} | {row.first_detector or ''} | {lat}\n"
                )
    if args.json_report:
        payload = {
            "repeats": summary.repeats,
            "seed": summary.seed,
            "counts": {"tp": summary.tp, "fp": summary.fp, "tn": summary.tn, "fn": summary.fn},
            **summary.metrics_dict(),
        }
        with open(args.json_report, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "detect": _cmd_detect,
    "train": _cmd_train,
    "eval": _cmd_eval,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth" and not (args.default_corpus or args.archetype and args.out):
            args.parser.error("synth needs --archetype and --out, or --default-corpus")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (PeelerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

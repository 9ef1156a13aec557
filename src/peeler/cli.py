"""Command-line front end: synth, detect, train, eval, bench.

Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .commands import RuleSet, default_rules_path, load_rules_file
from .errors import CorpusError, PeelerError
from .events import Detector
from .features import correlation_report, window_features
from .fileio import PatternKind
from .ml import (
    FusedClassifier,
    fuse_batch,
    load_model_file,
    save_model_file,
    train_mlr,
    train_svm,
)
from .pipeline import Engine, EngineConfig, run_trace
from .synth import (
    DEFAULT_LOCKER_PROFILE,
    DEFAULT_SPAWNER_PROFILE,
    SpawnProfile,
    SynthConfig,
    default_corpus_spec,
    read_corpus_index,
    synth_corpus,
    synth_trace,
)
from .trace_io import TraceLabel, load_trace, save_trace, window_partition

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL = 0, 1, 2, 3

PATTERN_NAMES = {
    "post-overwrite": PatternKind.MEM_TO_FILE_POST_OVERWRITE,
    "pre-overwrite": PatternKind.MEM_TO_FILE_PRE_OVERWRITE,
    "file-delete": PatternKind.FILE_TO_FILE_DELETE,
    "rename-delete": PatternKind.FILE_TO_FILE_RENAME_DELETE,
}

# windows from attack traces need this many events to count as attack
# examples during training; near-empty windows carry no attack signal
MIN_ATTACK_WINDOW_EVENTS = 10


# --- corpus loading and per-trace precomputation -----------------------------


@dataclass
class TraceProfile:
    """Everything eval needs about one trace, computed once.

    Rule and pattern detections are split-independent, so they are replayed
    a single time; only the ML stage depends on the trained model.
    """

    path: str
    label: TraceLabel
    family: str
    attack_onset: int
    duration: int
    rule_alert_ts: Optional[int]
    pattern_alert_ts: Optional[int]
    window_ends: np.ndarray
    window_counts: np.ndarray
    X_mlr: np.ndarray
    X_svm: np.ndarray

    @property
    def is_ransomware(self) -> bool:
        return self.label.is_ransomware


def profile_trace(path: str, window_len: int, rules: RuleSet) -> TraceProfile:
    manifest, events = load_trace(path)
    engine = Engine(EngineConfig(window_len=window_len, quarantine=False), rules=rules)
    rule_ts = None
    pattern_ts = None
    windows = []
    for w in window_partition(events, window_len):
        for e in w.events:
            for alert in engine.process_event(e):
                if alert.detector is Detector.COMMAND_RULE and rule_ts is None:
                    rule_ts = alert.event_timestamp
                elif alert.detector is Detector.FILE_IO_PATTERN and pattern_ts is None:
                    pattern_ts = alert.event_timestamp
        windows.append(w)
    feats = [window_features(w) for w in windows]
    return TraceProfile(
        path=path,
        label=manifest.label,
        family=manifest.family,
        attack_onset=manifest.attack_onset,
        duration=manifest.duration,
        rule_alert_ts=rule_ts,
        pattern_alert_ts=pattern_ts,
        window_ends=np.array([w.end for w in windows], dtype=np.int64),
        window_counts=np.array([len(w.events) for w in windows], dtype=np.int64),
        X_mlr=np.vstack([m.as_vector() for m, _ in feats]) if feats else np.zeros((0, 5)),
        X_svm=np.vstack([s.as_vector() for _, s in feats]) if feats else np.zeros((0, 8)),
    )


def load_corpus_profiles(corpus_dir: str, window_len: int, rules: RuleSet) -> List[TraceProfile]:
    rows = read_corpus_index(corpus_dir)
    return [profile_trace(path, window_len, rules) for path, _, _, _ in rows]


# --- training ----------------------------------------------------------------


def train_from_profiles(profiles: Sequence[TraceProfile], threshold: float = 0.5) -> FusedClassifier:
    X_mlr, X_svm, y = [], [], []
    for p in profiles:
        for i in range(len(p.window_ends)):
            if p.is_ransomware:
                if p.window_counts[i] < MIN_ATTACK_WINDOW_EVENTS:
                    continue
                y.append(1)
            else:
                y.append(0)
            X_mlr.append(p.X_mlr[i])
            X_svm.append(p.X_svm[i])
    if not y or len(set(y)) < 2:
        raise CorpusError("training set needs windows from both classes")
    ym = np.array(y)
    return FusedClassifier(
        mlr=train_mlr(np.vstack(X_mlr), ym),
        svm=train_svm(np.vstack(X_svm), ym),
        threshold=threshold,
    )


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
    repeat: int
    path: str
    label: str
    family: str
    verdict: str
    first_detector: Optional[str]
    latency_us: Optional[int]


@dataclass
class EvalSummary:
    accuracy: float
    tpr: float
    fpr: float
    fnr: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    repeats: int
    seed: int
    rows: List[TraceRow] = field(repr=False, default_factory=list)
    crypto_latency: Optional[LatencyStats] = None
    locker_latency: Optional[LatencyStats] = None

    def metrics_dict(self) -> Dict[str, float]:
        return {
            "accuracy": self.accuracy,
            "tpr": self.tpr,
            "fpr": self.fpr,
            "fnr": self.fnr,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def _judge(profile: TraceProfile, model: Optional[FusedClassifier]) -> Tuple[str, Optional[str], Optional[int]]:
    """Trace verdict plus the first-firing detector and alert timestamp."""
    candidates = []
    if profile.rule_alert_ts is not None:
        candidates.append((profile.rule_alert_ts, Detector.COMMAND_RULE.value))
    if profile.pattern_alert_ts is not None:
        candidates.append((profile.pattern_alert_ts, Detector.FILE_IO_PATTERN.value))
    if model is not None:
        ts = ml_first_alert_ts(profile, model)
        if ts is not None:
            candidates.append((ts, Detector.ML_CLASSIFIER.value))
    if not candidates:
        return "benign", None, None
    ts, detector = min(candidates)
    return "ransomware", detector, ts


def evaluate_profiles(
    profiles: Sequence[TraceProfile],
    repeats: int,
    seed: int,
    train_frac: float = 0.2,
    fixed_model: Optional[FusedClassifier] = None,
    threshold: float = 0.5,
) -> EvalSummary:
    """Repeated stratified train/test splits; metrics from pooled counts."""
    ransomware = [p for p in profiles if p.is_ransomware]
    benign = [p for p in profiles if not p.is_ransomware]
    if not ransomware or not benign:
        raise CorpusError("corpus must contain both ransomware and benign traces")

    tp = fp = tn = fn = 0
    rows: List[TraceRow] = []
    crypto_lat: List[int] = []
    locker_lat: List[int] = []

    for r in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        if fixed_model is None:
            n_r = max(1, int(round(train_frac * len(ransomware))))
            n_b = max(1, int(round(train_frac * len(benign))))
            train_r = set(rng.choice(len(ransomware), size=n_r, replace=False).tolist())
            train_b = set(rng.choice(len(benign), size=n_b, replace=False).tolist())
            train_set = [ransomware[i] for i in train_r] + [benign[i] for i in train_b]
            test_set = [p for i, p in enumerate(ransomware) if i not in train_r] + [
                p for i, p in enumerate(benign) if i not in train_b
            ]
            model = train_from_profiles(train_set, threshold=threshold)
        else:
            model = fixed_model
            test_set = list(profiles)

        for p in test_set:
            verdict, detector, alert_ts = _judge(p, model)
            latency = None
            if verdict == "ransomware" and p.is_ransomware:
                latency = max(0, alert_ts - p.attack_onset)
            rows.append(
                TraceRow(r, p.path, p.label.value, p.family, verdict, detector, latency)
            )
            if p.is_ransomware:
                if verdict == "ransomware":
                    tp += 1
                    if p.label is TraceLabel.CRYPTO:
                        crypto_lat.append(latency)
                    else:
                        locker_lat.append(latency)
                else:
                    fn += 1
            else:
                if verdict == "ransomware":
                    fp += 1
                else:
                    tn += 1

    total = tp + fp + tn + fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalSummary(
        accuracy=(tp + tn) / total if total else 0.0,
        tpr=recall,
        fpr=fp / (fp + tn) if fp + tn else 0.0,
        fnr=fn / (fn + tp) if fn + tp else 0.0,
        precision=precision,
        recall=recall,
        f1=f1,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        repeats=repeats,
        seed=seed,
        rows=rows,
        crypto_latency=LatencyStats.of(crypto_lat),
        locker_latency=LatencyStats.of(locker_lat),
    )


def cmd_eval(
    corpus_dir: str,
    rules_path: Optional[str],
    model_path: Optional[str],
    repeats: int,
    seed: int,
    train_frac: float = 0.2,
    window_ms: int = 5000,
    threshold: float = 0.5,
) -> EvalSummary:
    rules = load_rules_file(rules_path or default_rules_path())
    profiles = load_corpus_profiles(corpus_dir, window_ms * 1000, rules)
    fixed = load_model_file(model_path) if model_path else None
    return evaluate_profiles(
        profiles, repeats=repeats, seed=seed, train_frac=train_frac,
        fixed_model=fixed, threshold=threshold,
    )


# --- bench -------------------------------------------------------------------


@dataclass
class StageTiming:
    name: str
    events_per_second: float


@dataclass
class BenchReport:
    events: int
    full_events_per_second: float
    stages: List[StageTiming]


def cmd_bench(
    trace_path: str,
    rules_path: Optional[str] = None,
    model_path: Optional[str] = None,
) -> BenchReport:
    """Immediate-mode replay throughput, overall and per detector stage."""
    manifest, events = load_trace(trace_path)
    rules = load_rules_file(rules_path or default_rules_path())
    model = load_model_file(model_path) if model_path else None

    def run(enable_commands, enable_fileio, use_model):
        cfg = EngineConfig(
            enable_commands=enable_commands, enable_fileio=enable_fileio, quarantine=False
        )
        engine = Engine(cfg, rules=rules, model=model if use_model else None)
        report = run_trace(engine, manifest, events)
        return report.events_per_second

    stages = [
        StageTiming("rules_only", run(True, False, False)),
        StageTiming("fileio_only", run(False, True, False)),
        StageTiming("rules+fileio", run(True, True, False)),
    ]
    if model is not None:
        full = run(True, True, True)
        stages.append(StageTiming("full_pipeline", full))
    else:
        full = stages[-1].events_per_second

    return BenchReport(events=len(events), full_events_per_second=full, stages=stages)


# --- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="peeler", description="Streaming ransomware detection engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled trace or corpus")
    p.add_argument("--archetype", help="crypto:post-overwrite|crypto:pre-overwrite|"
                                       "crypto:file-delete|crypto:rename-delete|locker|"
                                       "benign-crypto-like|benign-spawner|benign-desktop")
    p.add_argument("--files", type=int, default=25, help="files to encrypt (crypto)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="output trace path")
    p.add_argument("--duration-ms", type=int, default=60_000)
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--processes", type=int, help="spawn profile: process count")
    p.add_argument("--depth", type=int, help="spawn profile: tree depth")
    p.add_argument("--threads", type=int, help="spawn profile: total threads")
    p.add_argument("--inject-commands", action="store_true")
    p.add_argument("--default-corpus", metavar="DIR",
                   help="write the standard 40/40/120 evaluation corpus to DIR")

    p = sub.add_parser("detect", help="run the detection pipeline over a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--rules", help="rules file (bundled set when omitted)")
    p.add_argument("--model", help="model file (ML stage off when omitted)")
    p.add_argument("--window-ms", type=int, default=5000)
    p.add_argument("--no-quarantine", action="store_true")
    p.add_argument("--json-report", metavar="PATH")

    p = sub.add_parser("train", help="train the fused classifier on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--train-frac", type=float, default=0.2)
    p.add_argument("--window-ms", type=int, default=5000)
    p.add_argument("--rules", help="rules file (bundled set when omitted)")
    p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("eval", help="repeated train/test evaluation over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--rules")
    p.add_argument("--model", help="evaluate a fixed model instead of retraining")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--train-frac", type=float, default=0.2)
    p.add_argument("--window-ms", type=int, default=5000)
    p.add_argument("--json-report", metavar="PATH")
    p.add_argument("--latency-table", metavar="PATH",
                   help="write per-trace detection latencies as delimited text")
    p.add_argument("--correlations", action="store_true",
                   help="also print the per-pair event-count correlation table")

    p = sub.add_parser("bench", help="throughput benchmark")
    p.add_argument("--trace", required=True)
    p.add_argument("--rules")
    p.add_argument("--model")
    p.add_argument("--json-report", metavar="PATH")
    return parser


def _parse_archetype(args) -> SynthConfig:
    if not args.archetype:
        raise ValueError("--archetype is required unless --default-corpus is used")
    name = args.archetype.lower()
    pattern = None
    if name.startswith("crypto:"):
        pname = name.split(":", 1)[1]
        if pname not in PATTERN_NAMES:
            raise ValueError(f"unknown crypto pattern {pname!r}")
        pattern = PATTERN_NAMES[pname]
        archetype = "crypto"
    else:
        archetype = name.replace("-", "_")
    profile = None
    if args.processes or args.depth or args.threads:
        profile = SpawnProfile(
            n_processes=args.processes or 44,
            depth=args.depth or 3,
            n_threads=args.threads or 352,
        )
    elif archetype == "locker":
        profile = DEFAULT_LOCKER_PROFILE
    elif archetype == "benign_spawner":
        profile = DEFAULT_SPAWNER_PROFILE
    return SynthConfig(
        seed=args.seed,
        archetype=archetype,
        pattern=pattern,
        n_files=args.files,
        spawn_profile=profile,
        duration=args.duration_ms * 1000,
        command_injection=args.inject_commands,
        intensity=args.intensity,
    )


def _cmd_synth(args) -> int:
    if args.default_corpus:
        entries = synth_corpus(default_corpus_spec(), args.default_corpus, master_seed=args.seed)
        print(f"wrote {len(entries)} traces to {args.default_corpus}")
        return EXIT_OK
    if not args.out:
        raise ValueError("--out is required")
    cfg = _parse_archetype(args)
    manifest, events = synth_trace(cfg)
    save_trace(args.out, manifest, events)
    print(f"wrote {manifest.event_count} events ({manifest.label.value}/{manifest.family}) to {args.out}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    manifest, events = load_trace(args.trace)
    config = EngineConfig(
        window_len=args.window_ms * 1000,
        rules_path=args.rules,
        model_path=args.model,
        quarantine=not args.no_quarantine,
    )
    report = run_trace(Engine(config), manifest, events)
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
                    "emitted_timestamp": a.emitted_timestamp,
                }
                for a in report.alerts
            ],
        }
        with open(args.json_report, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
    return EXIT_OK


def _cmd_train(args) -> int:
    rules = load_rules_file(args.rules or default_rules_path())
    profiles = load_corpus_profiles(args.corpus, args.window_ms * 1000, rules)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0]))
    ransomware = [p for p in profiles if p.is_ransomware]
    benign = [p for p in profiles if not p.is_ransomware]
    if not ransomware or not benign:
        raise CorpusError("corpus must contain both ransomware and benign traces")
    n_r = max(1, int(round(args.train_frac * len(ransomware))))
    n_b = max(1, int(round(args.train_frac * len(benign))))
    picks = [ransomware[i] for i in rng.choice(len(ransomware), size=n_r, replace=False)]
    picks += [benign[i] for i in rng.choice(len(benign), size=n_b, replace=False)]
    model = train_from_profiles(picks, threshold=args.threshold)
    save_model_file(args.out, model)
    print(
        f"trained on {len(picks)} traces "
        f"({n_r} ransomware, {n_b} benign); model written to {args.out}"
    )
    print(f"mlr converged={model.mlr.converged} iters={model.mlr.n_iter}; "
          f"svm converged={model.svm.converged} passes={model.svm.passes} "
          f"support={len(model.svm.dual_coefs)}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    summary = cmd_eval(
        args.corpus, args.rules, args.model, args.repeats, args.seed,
        train_frac=args.train_frac, window_ms=args.window_ms,
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
        rules = load_rules_file(args.rules or default_rules_path())
        corpus = []
        for path, _, _, _ in read_corpus_index(args.corpus):
            manifest, events = load_trace(path)
            corpus.append((manifest, window_partition(events, args.window_ms * 1000)))
        print(correlation_report(corpus).as_table())
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


def _cmd_bench(args) -> int:
    report = cmd_bench(args.trace, args.rules, args.model)
    print(f"events   : {report.events}")
    print(f"full     : {report.full_events_per_second:,.0f} events/s")
    for stage in report.stages:
        print(f"{stage.name:13s}: {stage.events_per_second:,.0f} events/s")
    if args.json_report:
        payload = {
            "events": report.events,
            "full_events_per_second": report.full_events_per_second,
            "stages": {s.name: s.events_per_second for s in report.stages},
        }
        with open(args.json_report, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "detect": _cmd_detect,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PeelerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

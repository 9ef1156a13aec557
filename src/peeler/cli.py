"""Command-line front end: synth, detect, train, eval.

Each command is one _cmd_* function over its layer's module; train and eval
run in peeler.evaluate. Detect, train and eval all cut windows at
trace_io.WINDOW_LEN, which no option changes: a model is only valid at the
window length its training rows were taken over.

Exit codes: 0 success, 1 usage error (the parser rejected an argument), 2 data
error (a PeelerError or OSError), 3 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .commands import default_rules_path, load_rules_file
from .errors import PeelerError
# profile_trace is not called here: perfbench/tracing.py wraps it as peeler.cli.profile_trace
from .evaluate import evaluate_profiles, load_corpus_profiles, profile_trace, split_profiles, train_from_profiles
from .features import correlations_from_rows
from .fileio import PatternKind
from .ml import load_model_file, save_model_file
from .pipeline import Engine, EngineConfig, run_trace
from .synth import ARCHETYPES, SynthConfig, default_corpus_spec, synth_corpus, synth_trace
from .trace_io import iter_trace, save_trace

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

    # train writes the model that eval trains in repeat 0, so both read one corpus block
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--corpus", required=True)
    corpus.add_argument("--rules", help="rules file (bundled set when omitted)")
    corpus.add_argument("--seed", type=_within(int, 0, 2**64 - 1), default=42)
    corpus.add_argument("--train-frac", type=_within(float, 0, 1), default=0.2)

    p = sub.add_parser("train", parents=[corpus], help="train the fused classifier on a corpus")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", parents=[corpus], help="repeated train/test evaluation over a corpus")
    p.add_argument("--model", help="evaluate a fixed model instead of retraining")
    p.add_argument("--repeats", type=_within(int, 1), default=20)
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


def _corpus_profiles(args):
    """The profiles of every trace in args.corpus, under args.rules."""
    return load_corpus_profiles(args.corpus, load_rules_file(args.rules or default_rules_path()))


def _cmd_train(args) -> int:
    train, _ = split_profiles(_corpus_profiles(args), args.train_frac, args.seed, 0)
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
    profiles = _corpus_profiles(args)
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

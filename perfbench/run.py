"""End-to-end benchmark of peeler as users run it: `peeler detect` on a
million-event desktop trace and on crypto traces, and `peeler eval` over the
default corpus, each command in a process of its own.

    python3 perfbench/run.py --workload desktop_detect --seed 3 --seconds 10 --trace 0

Run it from the repository root. Set-up synthesizes the inputs with
peeler.synth, writes them with peeler.trace_io and, for desktop_detect,
trains the model with `peeler train`. The timed phase then runs whole
rounds of the workload's commands until --seconds have passed (at least one
round), and every report is checked against a reference computed apart
from the program (see checks.py). The last line of standard output is one
JSON object: correct, attempted, failed, and the end-to-end metrics, or
with --trace 1 the per-layer metrics of a traced run (see tracing.py and
README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = BENCH / "_work"

WORKLOADS = ("desktop_detect", "crypto_detect", "corpus_eval")


class BenchError(Exception):
    """The benchmark cannot run here or its set-up failed."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the smoke test shrinks them."""

    desktop_duration_us: int = 9_500_000_000  # criterion-9 shape: ~1.06M events
    desktop_intensity: float = 20.0
    train_corpus: tuple = (8, 8, 24)  # crypto, locker, benign traces
    crypto_files: int = 5000
    crypto_duration_us: int = 300_000_000
    eval_corpus: tuple = (40, 40, 120)  # the default corpus
    eval_repeats: int = 3


# The crypto traces do not depend on --seed: with thousands of files some
# file paths repeat, and the matcher misses a file at a reused path (see
# CHANGES.md). Fixed inputs keep that failure the same share of every run.
CRYPTO_SEED = 11
TRAIN_FRAC = 0.2
# This machine's CPU speed drifts by a fifth to a third, over seconds to
# minutes and apart on each of its CPUs. So a run pins itself, and every
# process it starts, to one CPU, and the untraced runs scale the wall times
# of set-up and of each timed round by that CPU's speed while they ran: a
# probe thread runs a burst of a fixed pure-Python loop every PROBE_PERIOD_S.
# During a round the burst shares the CPU with a peeler process through the
# scheduler, and its wall time gives the speed the process saw. Set-up runs
# in this process, where the burst waits for the GIL; there it is timed in
# the thread's own CPU time. The reference rates are the probe's median
# rates on the machine of README.md's reference figures.
PROBE_PERIOD_S = 0.5
PROBE_CHUNKS = 25  # of 10,000 loop steps: ~20 ms of CPU time here
REFERENCE_RATE = 640.0  # chunks per second of wall time, beside a peeler process
REFERENCE_CPU_RATE = 1190.0  # chunks per second of the probe's CPU time


class Run:
    """One benchmark run: work directory, tallies and the traced spans."""

    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.setup_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.events = 0
        self.wall_s = 0.0
        self.ref_wall_s = 0.0  # wall_s of the timed rounds at the reference speed
        self.peak_rss_mb = 0.0
        self.dumps: List[dict] = []
        self._n = 0

    def peeler(self, argv: List[str], traced: bool = False):
        """Run one CLI command in its own process.

        Returns the exit code, the wall time from start to exit, and the
        process's peak RSS in MB.
        """
        self._n += 1
        argv = [str(a) for a in argv]
        dump = self.work / f"spans-{self._n}.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(dump), *argv]
        else:
            cmd = [sys.executable, "-m", "peeler.cli", *argv]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.work / "peeler.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if traced and proc.returncode == 0:
            self.dumps.append(json.loads(dump.read_text()))
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def timed(self, argv: List[str], events: int, traced: bool) -> Optional[dict]:
        """Run one timed command that writes a JSON report; None if it failed."""
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        code, wall, rss = self.peeler([*argv, "--json-report", report], traced)
        self.wall_s += wall
        self.events += events
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if code != 0:
            # a failed operation, counted by the caller; the checks speak
            # of the operations that did not fail
            print(f"`peeler {argv[0]}` exited with {code}", file=sys.stderr)
            return None
        return json.loads(report.read_text())


class SpeedProbe:
    """Samples the speed of the CPU the run is pinned to while work runs on
    it, as the rate of a burst on `clock` over `reference` chunks a second."""

    def __init__(self, clock: Callable[[], float], reference: float):
        self.clock = clock
        self.reference = reference
        self.chunks = 0
        self.busy_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = self.clock()
            for _ in range(PROBE_CHUNKS):
                s = 0
                for i in range(10_000):
                    s += i * i % 7
            self.busy_s += self.clock() - t0
            self.chunks += PROBE_CHUNKS

    @property
    def speed(self) -> float:
        """The probe's rate as a share of the reference; 1 without a burst."""
        return self.chunks / self.busy_s / self.reference if self.chunks else 1.0


def _event_lines(path: Path) -> int:
    """Event lines of a trace file: every line but the header."""
    with open(path, "rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b"")) - 1


def _oracle_alerts(events):
    from oracles import brute_force_alerts

    return [(events[i].timestamp, kind.value) for i, kind in brute_force_alerts(events)]


# --- workloads -----------------------------------------------------------------
#
# Each workload does its set-up, computes its references, and returns the
# function that runs one round of timed commands.


def desktop_detect(run: Run, seed: int, sizes: Sizes) -> Callable[[bool], None]:
    """`peeler detect --model` on a benign_desktop trace (seed 3 is the
    ROADMAP's criterion-9 reference trace)."""
    from peeler import synth, trace_io

    trace, corpus, model = run.work / "desktop.pt", run.work / "train_corpus", run.work / "model.pm"
    t0 = time.perf_counter()
    manifest, events, _ = synth.synth_trace_detailed(synth.SynthConfig(
        seed=seed, archetype="benign_desktop",
        duration=sizes.desktop_duration_us, intensity=sizes.desktop_intensity))
    trace_io.save_trace(trace, manifest, events)
    synth.synth_corpus(synth.default_corpus_spec(*sizes.train_corpus), str(corpus), master_seed=seed)
    code, _, _ = run.peeler(["train", "--corpus", corpus, "--out", model, "--seed", seed],
                            traced=run.tracer is not None)
    run.setup_s = time.perf_counter() - t0
    if code != 0:
        raise BenchError(f"`peeler train` exited with {code}")

    oracle = _oracle_alerts(events)
    del manifest, events
    lines = _event_lines(trace)

    def one_round(traced: bool) -> None:
        run.attempted += 1
        report = run.timed(["detect", "--trace", trace, "--model", model], lines, traced)
        if report is None:
            run.failed += 1
            return
        run.errors += checks.check_events_processed(report, lines)
        run.errors += checks.check_against_oracle(report, oracle)

    return one_round


def crypto_detect(run: Run, seed: int, sizes: Sizes) -> Callable[[bool], None]:
    """`peeler detect --no-quarantine` without a model on one crypto trace
    per encryption shape; each encrypted file is one operation."""
    del seed  # inputs are fixed, see CRYPTO_SEED
    from peeler import synth, trace_io
    from peeler.events import EventType, Provider
    from peeler.fileio import PatternKind

    cases = []
    for kind in PatternKind:
        path = run.work / f"crypto-{kind.value}.pt"
        t0 = time.perf_counter()
        manifest, events, info = synth.synth_trace_detailed(synth.SynthConfig(
            seed=CRYPTO_SEED, archetype="crypto", pattern=kind,
            n_files=sizes.crypto_files, duration=sizes.crypto_duration_us))
        trace_io.save_trace(path, manifest, events)
        run.setup_s += time.perf_counter() - t0

        image = synth.CRYPTO_FAMILIES[kind].lower() + ".exe"
        pid = next(e.pid for e in events if e.etype is EventType.START
                   and e.provider is Provider.PROCESS and e.attrs.image_file_name == image)
        # each encrypted file's first event creates it under its user-file name
        starts = [e.timestamp for e in events
                  if e.pid == pid and e.etype is EventType.FILE_CREATE
                  and e.attrs.file_name.endswith(synth.USER_EXTS)]
        if len(starts) != len(info.file_completions):
            raise BenchError(f"{kind.value}: {len(starts)} file starts for "
                             f"{len(info.file_completions)} encrypted files")
        # the oracle's regexes backtrack for minutes on the file-to-file shapes
        memory_to_file = kind in (PatternKind.MEM_TO_FILE_POST_OVERWRITE,
                                  PatternKind.MEM_TO_FILE_PRE_OVERWRITE)
        truth = checks.CryptoTruth(
            pattern=kind.value, pid=pid, starts=starts,
            completions=list(info.file_completions), event_lines=_event_lines(path),
            oracle=_oracle_alerts(events) if memory_to_file else None)
        del manifest, events, info
        cases.append((path, truth))

    def one_round(traced: bool) -> None:
        for path, truth in cases:
            files = len(truth.completions)
            run.attempted += files
            report = run.timed(["detect", "--trace", path, "--no-quarantine"], truth.event_lines, traced)
            if report is None:
                run.failed += files
                continue
            errors, flagged = checks.check_crypto(report, truth)
            run.errors += errors
            run.failed += max(0, files - flagged)

    return one_round


def corpus_eval(run: Run, seed: int, sizes: Sizes) -> Callable[[bool], None]:
    """`peeler eval` over the default 200-trace corpus; each test-set
    judgment is one operation."""
    from peeler import synth

    corpus, table = run.work / "corpus", run.work / "judgments.txt"
    specs = synth.default_corpus_spec(*sizes.eval_corpus)
    t0 = time.perf_counter()
    entries = synth.synth_corpus(specs, str(corpus), master_seed=seed)
    run.setup_s = time.perf_counter() - t0
    events = sum(e.manifest.event_count for e in entries)
    ransomware = {Path(e.path).name: e.manifest.label.is_ransomware for e in entries}
    truth = checks.CorpusTruth(
        ransomware=ransomware,
        must_flag={Path(e.path).name for spec, e in zip(specs, entries)
                   if spec.archetype == "crypto" or spec.command_injection},
        test_split=checks.test_split(sum(ransomware.values()),
                                     len(entries) - sum(ransomware.values()), TRAIN_FRAC),
        repeats=sizes.eval_repeats)
    judgments = sizes.eval_repeats * sum(truth.test_split)

    def one_round(traced: bool) -> None:
        run.attempted += judgments
        table.unlink(missing_ok=True)
        report = run.timed(["eval", "--corpus", corpus, "--repeats", sizes.eval_repeats,
                            "--seed", seed, "--train-frac", TRAIN_FRAC,
                            "--latency-table", table], events, traced)
        if report is None:
            run.failed += judgments
            return
        run.errors += checks.check_eval(report, checks.parse_judgments(table.read_text()), truth)

    return one_round


SETUPS = {"desktop_detect": desktop_detect, "crypto_detect": crypto_detect, "corpus_eval": corpus_eval}


# --- metrics -------------------------------------------------------------------


def end_to_end_metrics(run: Run) -> dict:
    return {
        "setup_s": {"value": run.setup_s, "unit": "s"},
        "events_per_s": {"value": run.events / run.ref_wall_s, "unit": "1/s"},
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
    }


def per_layer_metrics(run: Run, overhead_pct: float) -> dict:
    d = tracing.merge([run.tracer.dump(), *run.dumps])
    t, calls, count = d["time"], d["calls"], d["count"]

    def s(*names):
        return {"value": sum(t.get(n, 0.0) for n in names), "unit": "s"}

    def n(table, name):
        return {"value": table.get(name, 0), "unit": "count"}

    return {
        "synth.generate_s": s("synth.generate"),
        "trace_io.write_s": s("trace_io.write"),
        "trace_io.decode_s": s("trace_io.decode"),
        "trace_io.decode_events": n(count, "trace_io.decode_events"),
        "trace_io.decode_peak_rss_mb": {
            "value": d["peak"].get("trace_io.decode_peak_rss_mb", 0.0), "unit": "MB"},
        "trace_io.window_partition_s": s("trace_io.window_partition"),
        "pipeline.run_s": s("pipeline.run"),
        "pipeline.dispatch_self_s": {"value": d["self"].get("pipeline.run", 0.0), "unit": "s"},
        "pipeline.windows_closed": n(calls, "pipeline.windows_closed"),
        "commands.match_s": s("commands.match"),
        "commands.match_calls": n(calls, "commands.match"),
        "fileio.ingest_s": s("fileio.ingest"),
        "fileio.ingest_calls": n(calls, "fileio.ingest"),
        "fileio.alerts": n(count, "fileio.alerts"),
        "fileio.lists_live_end": n(count, "fileio.lists_live_end"),
        "fileio.dead_lists_live_end": n(count, "fileio.dead_lists_live_end"),
        "features.tree_s": s("features.tree"),
        "features.extract_s": s("features.extract_mlr", "features.extract_svm"),
        "features.windows": n(calls, "features.extract_svm"),
        "features.window_features_s": s("features.window_features"),
        "ml.fuse_s": s("ml.fuse"),
        "ml.train_mlr_s": s("ml.train_mlr"),
        "ml.train_svm_s": s("ml.train_svm"),
        "ml.fuse_batch_s": s("ml.fuse_batch"),
        "ml.mlr_iters": n(count, "ml.mlr_iters"),
        "ml.svm_passes": n(count, "ml.svm_passes"),
        "kernels.mlr_loss_grad_s": s("kernels.mlr_loss_grad"),
        "kernels.mlr_loss_grad_calls": n(calls, "kernels.mlr_loss_grad"),
        "kernels.smo_solve_s": s("kernels.smo_solve"),
        "kernels.rbf_gram_s": s("kernels.rbf_gram"),
        "cli.profile_s": s("cli.profile"),
        "cli.train_s": s("cli.train"),
        "tracing.overhead_pct": {"value": overhead_pct, "unit": "%"},
    }


# --- running a workload -------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = Sizes()) -> dict:
    """Set up, run the timed rounds and check them; returns the result object."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    restore = tracing.install(tracer) if trace else (lambda: None)
    run = Run(work, tracer)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if trace:
            one_round = SETUPS[workload](run, seed, sizes)
            # one untraced and one traced round of the same commands: the
            # difference of their scaled wall times is the tracing overhead
            scaled = []
            for traced in (False, True):
                wall = run.wall_s
                with SpeedProbe(time.perf_counter, REFERENCE_RATE) as probe:
                    one_round(traced)
                scaled.append((run.wall_s - wall) * probe.speed)
            metrics = per_layer_metrics(run, 100.0 * (scaled[1] - scaled[0]) / scaled[0])
        else:
            with SpeedProbe(time.thread_time, REFERENCE_CPU_RATE) as probe:
                one_round = SETUPS[workload](run, seed, sizes)
            setup_wall = run.setup_s
            run.setup_s *= probe.speed
            t0 = time.perf_counter()
            while run.attempted == 0 or time.perf_counter() - t0 < seconds:
                wall = run.wall_s
                with SpeedProbe(time.perf_counter, REFERENCE_RATE) as probe:
                    one_round(False)
                run.ref_wall_s += (run.wall_s - wall) * probe.speed
            metrics = end_to_end_metrics(run)
            print(f"wall clock: set-up {setup_wall:.3f} s, {run.events / run.wall_s:.1f} "
                  f"events/s; speed {run.setup_s / setup_wall:.3f} (set-up), "
                  f"{run.ref_wall_s / run.wall_s:.3f} (timed)", file=sys.stderr)
        if run.errors and (work / "peeler.log").exists():
            print((work / "peeler.log").read_text(errors="replace")[-2000:], file=sys.stderr)
    finally:
        restore()
        shutil.rmtree(work, ignore_errors=True)
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    return {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def _import_program() -> None:
    """Make the program and its test oracles importable, or fail."""
    if not (SRC / "peeler" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        raise BenchError(f"run from a checkout of the repository: {SRC / 'peeler'} "
                         f"or {TESTS / 'oracles.py'} is missing")
    sys.path[:0] = [str(SRC), str(TESTS)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        _import_program()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

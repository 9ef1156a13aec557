"""Per-layer timing for the benchmark, recorded from outside the program.

`install(tracer)` replaces public functions and methods of the peeler
modules with wrappers that time each call, in every peeler module that holds
a reference to them. Spans are aggregated per name (total seconds, self
seconds, calls) rather than kept one per call: the detect path makes about a
million matcher calls, and a record per call would cost more memory than the
trace it measures. Self time is a span's time minus the time of the spans
that ran inside it.

Run as a script, it traces one CLI command and writes the aggregate to a
JSON file:

    PYTHONPATH=src python3 perfbench/tracing.py spans.json detect --trace t.pt
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from collections import defaultdict


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Aggregated spans and counters of one process."""

    def __init__(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.peak = defaultdict(float)
        self._stack = []  # time spent in child spans, one slot per open span

    def span(self, name, fn, after=None):
        """Wrap fn so that each call is timed under name."""
        perf = time.perf_counter
        stack = self._stack
        total, own, calls = self.time, self.self_time, self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                total[name] += dt
                own[name] += dt - child
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def counted(self, name, fn):
        """Wrap fn so that its calls are counted but not timed."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self) -> dict:
        return {
            "time": dict(self.time),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "count": dict(self.count),
            "peak": dict(self.peak),
        }


def merge(dumps) -> dict:
    """Sum times, calls and counts of several processes; keep peak maxima."""
    out = {"time": defaultdict(float), "self": defaultdict(float),
           "calls": defaultdict(int), "count": defaultdict(int), "peak": defaultdict(float)}
    for d in dumps:
        for part in ("time", "self", "calls", "count"):
            for k, v in d[part].items():
                out[part][k] += v
        for k, v in d["peak"].items():
            out["peak"][k] = max(out["peak"][k], v)
    return out


def _after_decode(tracer, args, result):
    tracer.count["trace_io.decode_events"] += len(result[1])
    rss = _peak_rss_mb()
    if rss > tracer.peak["trace_io.decode_peak_rss_mb"]:
        tracer.peak["trace_io.decode_peak_rss_mb"] = rss


def _after_ingest(tracer, args, result):
    if result is not None:
        tracer.count["fileio.alerts"] += 1


def _after_run(tracer, args, result):
    matcher = args[0].matcher
    if matcher is None:
        return
    for lst in matcher.lists():
        tracer.count["fileio.lists_live_end"] += 1
        # every acceptor anchors on the first letter, so a list whose four
        # DFA states are all dead can never alert again
        if lst.matched is None and all(s < 0 for s in lst.dfa):
            tracer.count["fileio.dead_lists_live_end"] += 1


def _after_train_mlr(tracer, args, result):
    tracer.count["ml.mlr_iters"] += result.n_iter


def _after_train_svm(tracer, args, result):
    tracer.count["ml.svm_passes"] += result.passes


# (span name, module, function or Class.method, hook run on each result)
SPANS = (
    ("synth.generate", "peeler.synth", "synth_trace_detailed", None),
    ("trace_io.write", "peeler.trace_io", "write_trace", None),
    ("trace_io.decode", "peeler.trace_io", "read_trace", _after_decode),
    ("trace_io.window_partition", "peeler.trace_io", "window_partition", None),
    ("pipeline.run", "peeler.pipeline", "run_trace", _after_run),
    ("commands.match", "peeler.commands", "CommandMatcher.match", None),
    ("fileio.ingest", "peeler.fileio", "FileIoMatcher.ingest", _after_ingest),
    ("features.tree", "peeler.features", "build_process_tree", None),
    ("features.extract_mlr", "peeler.features", "extract_mlr_features", None),
    ("features.extract_svm", "peeler.features", "extract_svm_features", None),
    ("features.window_features", "peeler.features", "window_features", None),
    ("ml.fuse", "peeler.ml", "fuse", None),
    ("ml.fuse_batch", "peeler.ml", "fuse_batch", None),
    ("ml.train_mlr", "peeler.ml", "train_mlr", _after_train_mlr),
    ("ml.train_svm", "peeler.ml", "train_svm", _after_train_svm),
    ("kernels.mlr_loss_grad", "peeler.kernels", "mlr_loss_grad", None),
    ("kernels.smo_solve", "peeler.kernels", "smo_solve", None),
    ("kernels.rbf_gram", "peeler.kernels", "rbf_gram", None),
    ("cli.profile", "peeler.cli", "profile_trace", None),
    ("cli.train", "peeler.cli", "train_from_profiles", None),
)

# counted only: their children are timed, and timing them too would take
# the children's time out of the dispatch self time of pipeline.run
COUNTED = (("pipeline.windows_closed", "peeler.pipeline", "Engine.flush_window"),)


def install(tracer: Tracer):
    """Wrap every function in SPANS and COUNTED, wherever peeler refers to it.

    Returns a function that puts the originals back.
    """
    importlib.import_module("peeler.cli")  # imports every layer
    modules = [m for n, m in sorted(sys.modules.items()) if n == "peeler" or n.startswith("peeler.")]
    wrappers = [(name, mod, attr, lambda fn, n=name, a=after: tracer.span(n, fn, a))
                for name, mod, attr, after in SPANS]
    wrappers += [(name, mod, attr, lambda fn, n=name: tracer.counted(n, fn))
                 for name, mod, attr in COUNTED]
    replaced = []  # (owner, attribute, original)
    for name, mod_name, attr, wrap in wrappers:
        mod = sys.modules[mod_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[method]
            replaced.append((cls, method, original))
            setattr(cls, method, wrap(original))
            continue
        original = getattr(mod, attr)
        wrapped = wrap(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    replaced.append((m, key, original))
                    setattr(m, key, wrapped)

    def restore():
        for owner, key, original in reversed(replaced):
            setattr(owner, key, original)

    return restore


def main(argv) -> int:
    dump_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from peeler.cli import main as peeler_main

    code = peeler_main(cli_args)
    with open(dump_path, "w", encoding="utf-8") as f:
        json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

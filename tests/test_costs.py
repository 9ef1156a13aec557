"""Work per event, counted exactly: Python calls under sys.setprofile.

A count does not wander with the machine's load as a time does, so a bound
on it fails at once when a per-event call or generator frame comes back.
"""

import io
import sys

from peeler.commands import default_rules_path, load_rules_file
from peeler.fileio import PatternKind
from peeler.pipeline import Engine, EngineConfig, run_trace
from peeler.synth import SynthConfig, synth_trace
from peeler.trace_io import iter_trace, write_trace

# each trace, and its Python calls per event through a streamed detect (the
# event object's __init__, the window fold, process_event and the matcher,
# and each block's share of its own calls); a run may exceed it by 0.1
CALLS_PER_EVENT = {
    "crypto_file_delete": (SynthConfig(seed=11, archetype="crypto", pattern=PatternKind.FILE_TO_FILE_DELETE,
                                       n_files=100, duration=15_000_000), 4.37),
    "desktop": (SynthConfig(seed=3, archetype="benign_desktop", duration=30_000_000, intensity=20.0), 3.80),
}


def _python_calls_per_event(data: bytes, rules) -> float:
    """Python calls (frames entered or resumed) per event of a detect run
    without a model over the trace bytes data, read as iter_trace streams it."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    engine = Engine(EngineConfig(), rules=rules)
    stream = iter_trace(io.BytesIO(data))
    manifest = next(stream)
    sys.setprofile(count)
    try:
        run_trace(engine, manifest, stream)
    finally:
        sys.setprofile(None)
    return calls / engine.events_processed


def test_python_calls_per_event_stay_bounded():
    rules = load_rules_file(default_rules_path())
    measured = {}
    for name, (config, _) in CALLS_PER_EVENT.items():
        buf = io.BytesIO()
        write_trace(*synth_trace(config), buf)
        measured[name] = round(_python_calls_per_event(buf.getvalue(), rules), 4)
    over = {name: calls for name, calls in measured.items() if calls > CALLS_PER_EVENT[name][1] + 0.1}
    assert over == {}, measured

"""Work per event, counted exactly: Python calls under sys.setprofile.

A count does not wander with the machine's load as a time does, so a bound
on it fails at once when a per-event call or generator frame comes back.
Where the work is inside one C call (a long string through a regex), the
bound is on time per character instead, at n and 16n.
"""

import io
import sys
import timeit

from peeler.commands import CommandMatcher, default_rules_path, load_rules, load_rules_file
from peeler.fileio import PatternKind
from peeler.pipeline import Engine, EngineConfig, run_trace
from peeler.synth import SynthConfig, synth_trace
from peeler.trace_io import iter_trace, write_trace
from helpers import ev_proc_start

# each trace, and its Python calls per event through a streamed detect (the
# event object's __init__, the window fold, process_event and the matcher,
# and each block's share of its own calls); a run may exceed it by 0.1
CALLS_PER_EVENT = {
    "crypto_file_delete": (SynthConfig(seed=11, archetype="crypto", pattern=PatternKind.FILE_TO_FILE_DELETE,
                                       n_files=100, duration=15_000_000), 4.37),
    "desktop": (SynthConfig(seed=3, archetype="benign_desktop", duration=30_000_000, intensity=20.0), 3.80),
}


def _calls(fn, *args):
    """(Python calls, C calls) that fn(*args) makes; a Python call is a frame
    entered or resumed."""
    calls = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in calls:
            calls[event] += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls["call"], calls["c_call"]


def _python_calls_per_event(data: bytes, rules) -> float:
    """Python calls per event of a detect run without a model over the trace
    bytes data, read as iter_trace streams it."""
    engine = Engine(EngineConfig(), rules=rules)
    stream = iter_trace(io.BytesIO(data))
    manifest = next(stream)
    return _calls(run_trace, engine, manifest, stream)[0] / engine.events_processed


def test_python_calls_per_event_stay_bounded():
    rules = load_rules_file(default_rules_path())
    measured = {}
    for name, (config, _) in CALLS_PER_EVENT.items():
        buf = io.BytesIO()
        write_trace(*synth_trace(config), buf)
        measured[name] = round(_python_calls_per_event(buf.getvalue(), rules), 4)
    over = {name: calls for name, calls in measured.items() if calls > CALLS_PER_EVENT[name][1] + 0.1}
    assert over == {}, measured


def test_command_calls_per_token_stay_flat():
    # each rule token scans the arguments through map, a C loop: no frame is
    # entered per token, so the Python calls do not grow with n at all. Every
    # reg rule needs add and one more token, so a line that ends in add and
    # holds neither scans all n tokens twice a rule.
    matcher = CommandMatcher(load_rules_file(default_rules_path()))
    calls = {}
    for n in (1_000, 16_000):
        e = ev_proc_start(1, 0, cmdline="reg" + " /ve" * (n - 1) + " add")
        assert matcher.match(e) is None
        calls[n] = _calls(matcher.match, e)
    (python_n, c_n), (python_16n, c_16n) = calls[1_000], calls[16_000]
    assert python_16n == python_n and abs(c_16n / 16 / c_n - 1) <= 0.01, calls


def _seconds_per_char(matcher, cmdline, chars):
    e = ev_proc_start(1, 0, cmdline=cmdline)
    return min(timeit.repeat(lambda: matcher.match(e), number=1, repeat=7)) / chars


def test_glob_time_per_character_stays_flat():
    # a glob goes through fnmatch.translate, whose atomic groups keep a
    # regex match linear: an argument of L characters built to meet each
    # bundled glob's parts many times, and then a rule glob of L characters
    # against an argument of L characters, cost at most 2x per character
    # from L to 16L
    bundled = CommandMatcher(load_rules_file(default_rules_path()))

    def near_miss(utility, part):
        return lambda length: (bundled, f"{utility} stop {part * (length // len(part))}")

    def long_rule(length):
        glob = "*a" * (length // 2) + "*b"
        return CommandMatcher(load_rules(io.BytesIO(f"x | attack | tool | {glob} | d".encode()))), "tool " + "a" * length

    cases = {"cscript": near_miss("cscript", "temp"), "powershell": near_miss("powershell", "win32_shadowcop"),
             "net": near_miss("net", "mcafe"), "del": near_miss("del", ".ex"), "long rule": long_rule}
    for name, case in cases.items():
        short, long = (_seconds_per_char(*case(length), length) for length in (1_000, 16_000))
        assert long <= 2 * short, (name, short, long)

"""Work per event, counted exactly: Python calls under sys.setprofile.

A count does not wander with the machine's load as a time does, so a bound
on it fails at once when a per-event call or generator frame comes back.
Where the work is inside one C call (a long string through a regex), the
bound is on time per character instead, at n and 16n.
"""

import fnmatch
import gc
import io
import sys
import timeit
import tracemalloc

import numpy as np
import pytest

from peeler import fileio, kernels, ml, trace_io
from peeler.commands import CommandMatcher, default_rules_path, load_rules, load_rules_file
from peeler.evaluate import evaluate_profiles, load_corpus_profiles, train_from_profiles
from peeler.events import Detector
from peeler.features import build_process_tree, extract_mlr_features
from peeler.fileio import FileIoMatcher, PatternKind
from peeler.pipeline import Engine, EngineConfig, run_trace
from peeler.synth import SynthConfig, default_corpus_spec, synth_corpus, synth_trace
from peeler.trace_io import WINDOW_LEN, TraceLabel, TraceManifest, Window, iter_trace, read_trace, write_trace
from helpers import ev_create, ev_fdelete, ev_proc_start, ev_read, ev_rename, ev_write
from test_ml import _stub_fused

# each trace, and its Python calls per event through a streamed detect (the
# event object's __init__, the window fold, process_event and the matcher,
# and each block's share of its own calls); a run may exceed it by 0.1
CALLS_PER_EVENT = {
    "crypto_file_delete": (SynthConfig(seed=11, archetype="crypto", pattern=PatternKind.FILE_TO_FILE_DELETE,
                                       n_files=100, duration=15_000_000), 4.28),
    "desktop": (SynthConfig(seed=3, archetype="benign_desktop", duration=30_000_000, intensity=20.0), 3.62),
}


def _calls(fn, *args):
    """(Python calls, C calls) that fn(*args) makes; a Python call is a frame
    entered or resumed. Garbage is collected first, so that no finalizer of
    earlier garbage (a generator's close) runs, and counts, inside fn."""
    calls = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in calls:
            calls[event] += 1

    gc.collect()
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


def _calls_of(func, fn, *args):
    """Calls of the Python function func that fn(*args) makes."""
    calls = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code is func.__code__:
            calls[0] += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls[0]


def test_rule_tokens_compile_once_per_process():
    # a corpus eval builds one engine per trace: after the first, an engine
    # from the same rules translates no glob, and two rules that name one
    # token share one compiled check
    rules = load_rules_file(default_rules_path())
    Engine(EngineConfig(), rules=rules)
    assert _calls_of(fnmatch.translate, Engine, EngineConfig(), rules) == 0
    checks = {}
    for rule_checks in CommandMatcher(rules)._by_utility.values():
        for rule, rule_check in rule_checks:
            for token, check in zip(rule.required_tokens, rule_check):
                checks.setdefault(token, []).append(check)
    shared = {token: found for token, found in checks.items() if len(found) > 1}
    assert "delete" in shared
    assert all(check is found[0] for found in shared.values() for check in found), shared


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


# a pid whose low 20 bits are all set: in any set table of at most 2**20
# slots it takes the last slot, and the stream below leaves that slot free
_LAST_IN_SET_ORDER = 2**20 - 1


def _exempt_pid_stream(n, later_reads):
    """A file that pid 10 creates, renames, deletes and creates again, then
    one Read by each of n explorer.exe pids and a Write by a second ordinary
    pid: a pre-overwrite hit that the multi-process filter suppresses. Returns
    those events and later_reads more Reads by the explorer pids, each a hit
    that the filter suppresses again."""
    a, b, e = 0xA100, 0xB100, 0xE100
    explorers = range(1000, 1000 + n)
    head = [ev_proc_start(p, 0, image=r"C:\Windows\explorer.exe") for p in explorers]
    head += [ev_create(10, 1, a, "c:/u/d/f.txt"), ev_rename(10, 2, a, e),
             ev_fdelete(10, 3, e, "c:/u/d/f.txt"), ev_create(10, 4, e, "c:/u/d/f.enc")]
    head += [ev_read(p, 5, a, b) for p in explorers]
    head.append(ev_write(_LAST_IN_SET_ORDER, 6, a, b))
    return head, [ev_read(explorers[i % n], 7 + i, a, b) for i in range(later_reads)]


def test_exempt_pid_calls_per_read_stay_flat():
    # each later Read re-runs the filter over the file's n + 2 pids, with the
    # second ordinary pid last in the set's order so that the walk never
    # stops early. Membership in exempt_pids is the whole test, so the walk
    # makes no Python call; its time per Read is still linear in n (ROADMAP
    # item 3).
    calls = {}
    for n in (1_000, 16_000):
        matcher = FileIoMatcher()
        head, tail = _exempt_pid_stream(n, 200)
        assert [matcher.ingest(e) for e in head] == [None] * len(head)
        [lst] = matcher.lists()
        assert len(lst.contributing_pids) == n + 2
        assert list(lst.contributing_pids)[-1] == _LAST_IN_SET_ORDER
        alerts = []
        calls[n] = _calls(alerts.extend, map(matcher.ingest, tail))[0] / len(tail)
        assert alerts == [None] * len(tail)
    assert calls[16_000] == calls[1_000], calls


def test_flush_window_calls_stay_flat_in_distinct_pids():
    # ranking a flagged window's pids for its alert makes no call per pid; the
    # stub model scores every window 0.5, which threshold 0 flags
    calls = {}
    for n in (1_000, 16_000):
        engine = Engine(EngineConfig(), model=_stub_fused(threshold=0.0))
        window = Window(WINDOW_LEN)
        for pid in range(100, 100 + n):
            window.add(ev_read(pid, pid, 0xA, 0xB))
        calls[n] = _calls(engine.flush_window, window)[0]
        assert [a.pid for a in engine.alerts] == [100]
    assert calls[16_000] == calls[1_000], calls


def _chain_features(events):
    """The process-tree features of one window of events."""
    window = Window(WINDOW_LEN)
    for e in events:
        window.add(e)
    return extract_mlr_features(build_process_tree(window))


def test_process_chain_work_per_pid_stays_flat():
    # one window of n distinct pids, each started by the pid before it, in
    # chain order and in reverse: the calls per pid past the first are equal
    # at 1k and 16k. The union-find walk makes no call, so time per pid is
    # bounded too, at 2x from 1k to 16k.
    for order in ("chain", "reverse"):
        calls, seconds = {}, {}
        for n in (1, 1_000, 16_000):
            events = [ev_proc_start(100 + i, i, image=f"p{i}.exe", parent=99 + i if i else 0)
                      for i in range(n)]
            if order == "reverse":
                events.reverse()
            features = _chain_features(events)
            assert (features.n_processes, features.max_depth, features.n_leaf_nodes) == (n, n, 1)
            calls[n] = _calls(_chain_features, events)[0]
            seconds[n] = min(timeit.repeat(lambda: _chain_features(events), number=1, repeat=5)) / n
        per_pid = {n: (calls[n] - calls[1]) / (n - 1) for n in (1_000, 16_000)}
        assert per_pid[16_000] == per_pid[1_000], (order, calls)
        assert seconds[16_000] <= 2 * seconds[1_000], (order, seconds)


def test_engine_calls_per_command_alert_stay_flat():
    # without quarantine every Process Start of a shadow-copy wipe alerts;
    # the alerts grow with n by design, the calls per alert do not
    cmdline = "vssadmin.exe delete shadows /all /quiet"
    calls = {}
    for n in (1_000, 16_000):
        engine = Engine(EngineConfig(quarantine=False))
        events = [ev_proc_start(100 + i, i, image="vssadmin.exe", cmdline=cmdline) for i in range(n)]
        calls[n] = _calls(list, map(engine.process_event, events))[0] / n
        assert len(engine.alerts) == n
        fired = {(a.detector, a.trigger) for a in engine.alerts}
        assert fired == {(Detector.COMMAND_RULE, "vssadmin-delete-shadows")}
    assert abs(calls[16_000] - calls[1_000]) <= 0.1, calls


def _distinct_creates(matcher, n):
    """n FileCreates of n distinct files in one directory, each event built
    as it is ingested, so that only what the matcher keeps stays allocated."""
    for i in range(n):
        matcher.ingest(ev_create(10, i, 0x10_0000 + i, f"c:/users/u/documents/file{i:06d}.txt"))


def test_distinct_create_work_and_memory_per_create_stay_flat():
    # each distinct create holds a list, its name key and its FileObject key
    # until a sweep drops it: the calls per create past the first are equal
    # at 1k and 16k, and the traced bytes per create, name string included,
    # within 2x
    calls, held = {}, {}
    for n in (1, 1_000, 16_000):
        calls[n] = _calls(_distinct_creates, FileIoMatcher(), n)[0]
        matcher = FileIoMatcher()
        tracemalloc.start()
        try:
            _distinct_creates(matcher, n)
            held[n] = tracemalloc.get_traced_memory()[0] / n
        finally:
            tracemalloc.stop()
        assert len(matcher.lists()) == n
    per_create = {n: (calls[n] - calls[1]) / (n - 1) for n in (1_000, 16_000)}
    assert per_create[16_000] == per_create[1_000], calls
    assert max(held[1_000], held[16_000]) <= 2 * min(held[1_000], held[16_000]), held


def test_a_new_list_takes_its_parent_directory_once():
    # the FileCreate that starts a list reads its name's directory once; a
    # later name on the list is checked against it, and a different one
    # clears it
    matcher = FileIoMatcher()
    for i, name in enumerate(("c:/users/u/documents/a.txt", "c:/users/u/b.txt")):
        assert _calls_of(fileio._parent_dir, matcher.ingest, ev_create(10, i, 0xA, name)) == 1
    assert [lst.directory for lst in matcher.lists()] == [None]


def test_rename_chain_calls_per_rename_stay_flat():
    # one lineage renamed n times, each rename's FileObject the next one's
    # file_key: every rename resolves through the FileObject map in one step,
    # and the calls per rename past the first are equal at 1k and 16k
    calls = {}
    for n in (1, 1_000, 16_000):
        matcher = FileIoMatcher()
        base = 0x20_0000
        events = [ev_create(10, 0, base, "c:/users/u/documents/a.txt")]
        events += [ev_rename(10, 1 + i, base + i, base + i + 1) for i in range(n)]
        alerts = []
        calls[n] = _calls(alerts.extend, map(matcher.ingest, events))[0]
        assert alerts == [None] * len(events)
        assert len(set(map(id, matcher._by_object.values()))) == 1
    per_rename = {n: (calls[n] - calls[1]) / (n - 1) for n in (1_000, 16_000)}
    assert per_rename[16_000] == per_rename[1_000], calls


def _trace_bytes(events):
    buf = io.BytesIO()
    write_trace(TraceManifest(TraceLabel.BENIGN, "cost", 1, len(events), events[-1].timestamp), events, buf)
    return buf.getvalue()


def _one_line_trace(cmdline):
    """A trace whose middle line holds cmdline, between two File Reads."""
    return _trace_bytes([ev_read(1, 0, 0xA, 0xB), ev_proc_start(2, 1, cmdline=cmdline), ev_read(1, 2, 0xA, 0xB)])


def _read_seconds(data):
    return min(timeit.repeat(lambda: read_trace(io.BytesIO(data)), number=20, repeat=5)) / 20


@pytest.mark.parametrize("unit, width", [("a", 1), ('\\"\n\x01', 12)], ids=["long_line", "many_escapes"])
def test_decode_work_per_byte_stays_flat(unit, width):
    # one line of L bytes, unit repeated (width the bytes a unit is written
    # as), goes to orjson in one C call on the block path: no Python call
    # grows with L, and the traced bytes per line byte stay within 2x, and
    # so does the time per line byte past a trace without the line. The
    # sizes go by the written line, since the C calls slow per byte once
    # the line outgrows the CPU's cache, whatever its characters.
    base = _read_seconds(_one_line_trace(""))
    calls, held, seconds = {}, {}, {}
    for length in (20_000, 320_000):
        data = _one_line_trace(unit * (length // width))
        assert _calls_of(trace_io.line_to_event, read_trace, io.BytesIO(data)) == 0
        calls[length] = _calls(read_trace, io.BytesIO(data))[0]
        tracemalloc.start()
        try:
            read_trace(io.BytesIO(data))
            held[length] = tracemalloc.get_traced_memory()[1] / length
        finally:
            tracemalloc.stop()
        seconds[length] = (_read_seconds(data) - base) / length
    assert calls[320_000] == calls[20_000], calls
    assert max(held.values()) <= 2 * min(held.values()), held
    assert seconds[320_000] <= 2 * seconds[20_000], seconds


def test_line_path_calls_per_event_stay_flat():
    # each line carries more "{" than a block may hold beyond one a line, so
    # every block falls back to line_to_event, one line at a time; the
    # calls per event past the first stay flat from 1k to 16k lines
    cmdline = "bcdedit " + "{default} " * (trace_io._MAX_NESTING + 1)
    calls = {}
    for n in (1, 1_000, 16_000):
        data = _trace_bytes([ev_proc_start(2, i, cmdline=cmdline) for i in range(n)])
        if n == 1_000:
            assert _calls_of(trace_io.line_to_event, read_trace, io.BytesIO(data)) == n
        calls[n] = _calls(read_trace, io.BytesIO(data))[0]
    per_event = {n: (calls[n] - calls[1]) / (n - 1) for n in (1_000, 16_000)}
    assert per_event[16_000] <= per_event[1_000] + 0.01, calls


@pytest.fixture(scope="module")
def corpus_profiles(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    synth_corpus(default_corpus_spec(4, 4, 12), d, master_seed=5)
    return load_corpus_profiles(d, load_rules_file(default_rules_path()))


def test_eval_scores_each_repeat_in_one_batch(corpus_profiles):
    # one fuse_batch call per repeat, whatever the size of its test set, with
    # a model trained per repeat and with a fixed one
    for frac in (0.2, 0.5):
        assert _calls_of(ml.fuse_batch, evaluate_profiles, corpus_profiles, 3, 1, frac) == 3
    model = train_from_profiles(corpus_profiles)
    assert _calls_of(ml.fuse_batch, evaluate_profiles, corpus_profiles, 2, 1, 0.2, model) == 2


def test_train_mlr_takes_the_gradient_of_accepted_steps_only(corpus_profiles):
    # the start's gradient and one per accepted step, each a loss_history
    # entry; a rejected line-search trial computes its loss alone
    X = np.vstack([p.X_mlr for p in corpus_profiles])
    y = np.repeat([int(p.is_ransomware) for p in corpus_profiles], [len(p.X_mlr) for p in corpus_profiles])
    models = []
    grads = _calls_of(kernels.mlr_grad, lambda: models.append(ml.train_mlr(X, y)))
    losses = _calls_of(kernels.mlr_loss, ml.train_mlr, X, y)
    assert grads == len(models[0].loss_history)
    assert losses > grads  # some trials were rejected

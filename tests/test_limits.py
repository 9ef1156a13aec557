"""Pinned limits: event shapes that peeler misses or blames by design.

Each test starts from the Cerber transcript (C R R W W N D C, one alert on
its final FileCreate, as test_pipeline checks) or from a synthesized
locker, changes one thing, feeds the events through an Engine with the
bundled rules, and asserts today's outcome exactly. The shapes that the
ML stage might catch run with the trained_model fixture. README's "Limits"
table has one row per shape and names the code that decides it. A change
that turns one of these outcomes changes what peeler detects, and says so.
"""

import itertools

import pytest

from peeler.events import Detector, EventType
from peeler.fileio import MAX_IDLE_US, SWEEP_INTERVAL
from peeler.pipeline import Engine, EngineConfig
from peeler.synth import SynthConfig, synth_trace
from peeler.trace_io import WINDOW_LEN, window_partition
from figures import DOCS, cerber_post_overwrite
from helpers import ev_create, ev_proc_start, ev_read

CERBER_PID, OTHER_PID = 2816, 2817
CERBER_ALERT = (Detector.FILE_IO_PATTERN, CERBER_PID, "MemToFilePostOverwrite", 7_000)
EXPLORER = r"C:\Windows\explorer.exe"


def _alerts(events, model=None):
    """(detector, pid, trigger, timestamp) of each alert, in the order fired."""
    engine = Engine(EngineConfig(), model=model)
    for window in window_partition(events, WINDOW_LEN, engine.process_event):
        engine.flush_window(window)
    return [(a.detector, a.pid, a.trigger, a.event_timestamp) for a in engine.alerts]


def test_second_pid_finishing_the_file_is_not_detected():
    # the multi-process filter: two non-exempt pids contributed to the list
    events = cerber_post_overwrite(CERBER_PID)[:3] + cerber_post_overwrite(OTHER_PID)[3:]
    assert _alerts(events) == []


def test_create_in_another_directory_is_not_detected():
    # the directory-span filter: the list's file names span two directories
    events = cerber_post_overwrite()
    last = events[-1]
    events[-1] = ev_create(CERBER_PID, last.timestamp, last.file_object, f"{DOCS}/2O8nlobpEl.8cbe")
    assert _alerts(events) == []


@pytest.mark.parametrize("filler, detected", [(1_000, True), (SWEEP_INTERVAL, False)])
def test_stall_then_sweep_is_not_detected(filler, detected):
    # C R R, a stall of more than MAX_IDLE_US, `filler` File events of
    # another pid, then W W N D C: a stall alone forgets nothing, but the
    # sweep that the SWEEP_INTERVAL-th File event runs evicts the lineage,
    # and its later events start a tombstone
    head = cerber_post_overwrite()[:3]
    t = head[-1].timestamp + MAX_IDLE_US + 1
    others = (ev_read(OTHER_PID, t, 0x5EED, 0x5EED) for _ in range(filler))
    tail = cerber_post_overwrite(t0=t)[3:]
    alert = (Detector.FILE_IO_PATTERN, CERBER_PID, "MemToFilePostOverwrite", tail[-1].timestamp)
    assert _alerts(itertools.chain(head, others, tail)) == ([alert] if detected else [])


def test_explorer_finishing_the_file_blames_the_first_pid():
    # explorer.exe is exempt from the multi-process filter, so the alert
    # stands and names the one non-exempt contributor
    explorer_pid = 3000
    events = [ev_proc_start(explorer_pid, 0, image=EXPLORER)]
    events += cerber_post_overwrite(CERBER_PID)[:3] + cerber_post_overwrite(explorer_pid)[3:]
    assert _alerts(events) == [CERBER_ALERT]


def test_lone_explorer_pid_is_blamed():
    # with every contributor exempt, the alert names the hit event's pid
    explorer_pid = 3000
    events = [ev_proc_start(explorer_pid, 0, image=EXPLORER)] + cerber_post_overwrite(explorer_pid)
    assert _alerts(events) == [(Detector.FILE_IO_PATTERN, explorer_pid, "MemToFilePostOverwrite", 7_000)]


@pytest.mark.parametrize("flag, rule", [
    ("-enc", None),
    ("-ec", None),
    ("-e", "powershell-encoded"),
    ("-EncodedCommand", "powershell-encodedcommand"),
])
def test_encoded_powershell_alerts_only_on_the_listed_spellings(flag, rule):
    # PowerShell takes any unique prefix of -EncodedCommand; the rules list two
    start = ev_proc_start(4100, 1_000, image="powershell.exe", cmdline=f"powershell.exe {flag} SQBFAFgA")
    assert _alerts([start]) == ([] if rule is None else [(Detector.COMMAND_RULE, 4100, rule, 1_000)])


def test_crypto_flow_without_writes_is_not_detected(trained_model):
    # C R R N D C: every pattern needs a File Write after the reads, and
    # the one window's fused score (0.21) stays below the threshold
    events = [e for e in cerber_post_overwrite() if e.etype != EventType.WRITE]
    assert _alerts(events, trained_model) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_locker_without_children_is_not_detected(seed, trained_model):
    # the locker's own events alone: its start, ransom notes and image and
    # thread churn. No window scores above 0.25, while the whole trace,
    # children included, raises ML alerts
    _, events = synth_trace(SynthConfig(seed=seed, archetype="locker"))
    root = events[0].pid
    assert {a[0] for a in _alerts(events, trained_model)} == {Detector.ML_CLASSIFIER}
    assert _alerts([e for e in events if e.pid == root], trained_model) == []

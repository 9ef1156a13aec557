"""Engine orchestration: routing, windows, quarantine, reports."""

import dataclasses
import time

import numpy as np
import pytest

from peeler.cli import profile_trace
from peeler.commands import default_rules_path, load_rules_file
from peeler.errors import SchemaError
from peeler.events import Detector
from peeler.features import window_features
from peeler.fileio import PatternKind
from peeler.ml import FusedClassifier, train_mlr, train_svm
from peeler.pipeline import Engine, EngineConfig, detect_trace, run_trace
from peeler.synth import (
    DEFAULT_LOCKER_PROFILE,
    SynthConfig,
    synth_trace,
    synth_trace_detailed,
)
from peeler.trace_io import TraceLabel, TraceManifest, Window, save_trace, window_partition
from figures import cerber_post_overwrite
from helpers import ev_proc_start, ev_read
from oracles import ref_window_partition


def _manifest(events, label=TraceLabel.BENIGN, family="t", onset=0):
    return TraceManifest(label, family, 0, len(events),
                         events[-1].timestamp if events else 0, attack_onset=onset)


def test_command_alert_emitted_before_window_close():
    engine = Engine(EngineConfig())
    e = ev_proc_start(50, 1000, image="vssadmin.exe",
                      cmdline="vssadmin.exe delete shadows /all /quiet")
    alerts = engine.process_event(e)
    assert len(alerts) == 1
    assert alerts[0].detector is Detector.COMMAND_RULE
    assert alerts[0].event_timestamp == 1000


def test_cerber_transcript_alerts_on_eighth_event():
    engine = Engine(EngineConfig())
    events = cerber_post_overwrite()
    fired = []
    for i, e in enumerate(events):
        for a in engine.process_event(e):
            fired.append((i, a))
    assert len(fired) == 1
    idx, alert = fired[0]
    assert idx == 7
    assert alert.detector is Detector.FILE_IO_PATTERN
    assert alert.trigger == PatternKind.MEM_TO_FILE_POST_OVERWRITE.value


def test_benign_trace_is_quiet():
    manifest, events = synth_trace(SynthConfig(seed=8, archetype="benign_desktop",
                                               duration=40_000_000))
    report = detect_trace(EngineConfig(), manifest, events)
    assert report.verdict == "benign"
    assert report.alerts == []
    assert report.first_alert_latency is None
    assert report.events_processed == len(events)


def test_crypto_trace_detected_with_latency():
    cfg = SynthConfig(seed=9, archetype="crypto",
                      pattern=PatternKind.MEM_TO_FILE_PRE_OVERWRITE,
                      n_files=10, duration=30_000_000)
    manifest, events, info = synth_trace_detailed(cfg)
    report = detect_trace(EngineConfig(), manifest, events)
    assert report.verdict == "ransomware"
    assert report.detector_counts[Detector.FILE_IO_PATTERN] >= 1
    assert report.first_alert_latency is not None
    assert 0 <= report.first_alert_latency <= min(info.file_completions) - info.attack_onset


def test_quarantine_caps_alerts_per_pid():
    cfg = SynthConfig(seed=10, archetype="crypto",
                      pattern=PatternKind.MEM_TO_FILE_POST_OVERWRITE,
                      n_files=6, duration=20_000_000)
    manifest, events = synth_trace(cfg)
    with_q = detect_trace(EngineConfig(quarantine=True), manifest, events)
    without_q = detect_trace(EngineConfig(quarantine=False), manifest, events)
    pids = [a.pid for a in with_q.alerts]
    assert len(pids) == len(set(pids))
    assert len(without_q.alerts) >= 6 > len(with_q.alerts)


def test_detector_independence():
    cfg = SynthConfig(seed=11, archetype="crypto",
                      pattern=PatternKind.FILE_TO_FILE_DELETE,
                      n_files=5, duration=20_000_000, command_injection=True)
    manifest, events = synth_trace(cfg)
    base = EngineConfig(quarantine=False)
    no_cmd = EngineConfig(quarantine=False, enable_commands=False)
    no_file = EngineConfig(quarantine=False, enable_fileio=False)

    full = detect_trace(base, manifest, events)
    without_commands = detect_trace(no_cmd, manifest, events)
    without_fileio = detect_trace(no_file, manifest, events)

    def of(report, detector):
        return [a for a in report.alerts if a.detector is detector]

    assert of(full, Detector.FILE_IO_PATTERN) == of(without_commands, Detector.FILE_IO_PATTERN)
    assert of(full, Detector.COMMAND_RULE) == of(without_fileio, Detector.COMMAND_RULE)
    assert of(without_commands, Detector.COMMAND_RULE) == []
    assert of(without_fileio, Detector.FILE_IO_PATTERN) == []


def test_report_is_deterministic():
    cfg = SynthConfig(seed=12, archetype="crypto",
                      pattern=PatternKind.FILE_TO_FILE_RENAME_DELETE,
                      n_files=4, duration=20_000_000)
    manifest, events = synth_trace(cfg)
    r1 = detect_trace(EngineConfig(), manifest, events)
    r2 = detect_trace(EngineConfig(), manifest, events)
    assert r1.alerts == r2.alerts
    assert r1.verdict == r2.verdict
    assert r1.detector_counts == r2.detector_counts
    assert r1.first_alert_latency == r2.first_alert_latency


def test_engine_refuses_second_stream():
    manifest, events = synth_trace(SynthConfig(seed=13, archetype="benign_desktop",
                                               duration=10_000_000))
    engine = Engine(EngineConfig())
    run_trace(engine, manifest, events)
    with pytest.raises(ValueError):
        run_trace(engine, manifest, events)


def test_window_index_advances_across_gaps():
    events = [ev_read(1, 100, 0xA, 0xB), ev_read(1, 7_500_000, 0xA, 0xB)]
    windows = list(window_partition(events, 1_000_000))
    assert [(w.index, w.start, w.end) for w in windows] == [
        (0, 0, 1_000_000), (7, 7_000_000, 8_000_000)]


class _RecordingEngine(Engine):
    """Engine that records the bounds and size of every window it classifies,
    and how many alerts had been emitted when it did."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.windows = []

    def flush_window(self, window):
        self.windows.append((window.index, window.start, window.end, len(window.events),
                             len(self.alerts)))
        return super().flush_window(window)


def test_huge_timestamp_gap_is_one_jump(tmp_path):
    far = 2_500_000 + 2**62
    events = [ev_read(1, 100, 0xA, 0xB), ev_read(1, 2_500_000, 0xA, 0xB), ev_read(1, far, 0xA, 0xB)]
    far_index = far // 1_000_000
    expected = [(0, 0, 1_000_000), (2, 2_000_000, 3_000_000),
                (far_index, far_index * 1_000_000, (far_index + 1) * 1_000_000)]
    assert expected[2][1] <= far < expected[2][2]

    engine = _RecordingEngine(EngineConfig(window_len=1_000_000))
    start = time.perf_counter()
    run_trace(engine, _manifest(events), events)
    assert time.perf_counter() - start < 0.5
    assert engine.windows == [w + (1, 0) for w in expected]

    path = str(tmp_path / "gap.pt")
    save_trace(path, _manifest(events), events)
    rules = load_rules_file(default_rules_path())
    start = time.perf_counter()
    profile = profile_trace(path, 1_000_000, rules)
    assert time.perf_counter() - start < 0.5
    assert profile.window_ends.tolist() == [end for _, _, end in expected]
    assert profile.window_counts.tolist() == [1, 1, 1]


def _reference_run(engine, events):
    """Test driver: walk every window of the reference partition, empty ones
    included, and classify each non-empty one."""
    for w in ref_window_partition(events, engine.config.window_len):
        for e in w.events:
            engine.process_event(e)
        if w.events:
            engine.flush_window(w)
    return engine.alerts


def test_window_jump_matches_step_loop():
    model = _tiny_model()
    cfg = SynthConfig(seed=77, archetype="locker", spawn_profile=DEFAULT_LOCKER_PROFILE,
                      duration=60_000_000, command_injection=True)
    manifest, events = synth_trace(cfg)
    # each seventh of the trace starts 2.75 windows later than the one before
    shifted = []
    for i, e in enumerate(events):
        shift = (i * 7 // len(events)) * 13_750_000
        shifted.append(dataclasses.replace(e, timestamp=e.timestamp + shift))
    assert shifted[-1].timestamp - events[-1].timestamp == 6 * 13_750_000

    engine = _RecordingEngine(EngineConfig(), model=model)
    report = run_trace(engine, manifest, shifted)
    reference = _RecordingEngine(EngineConfig(), model=model)
    assert report.alerts == _reference_run(reference, shifted)
    assert engine.windows == reference.windows
    assert {a.detector for a in report.alerts} == {Detector.ML_CLASSIFIER, Detector.COMMAND_RULE}


def test_empty_window_skipped_without_model():
    engine = Engine(EngineConfig())
    assert engine.flush_window(Window(0, 0, 5_000_000, [ev_read(1, 10, 0xA, 0xB)])) == []
    events = [ev_read(1, ts, 0xA, 0xB) for ts in (0, 12_000_000, 12_000_001, 40_000_000)]
    windows = list(window_partition(events, 5_000_000))
    assert [w.index for w in windows] == [0, 2, 8]
    assert all(w.events for w in windows)


def test_run_trace_rejects_out_of_order_timestamps():
    events = [ev_read(1, 10, 0xA, 0xB), ev_read(1, 6_000_000, 0xA, 0xB), ev_read(1, 3, 0xA, 0xB)]
    with pytest.raises(SchemaError, match="non-monotonic timestamp"):
        detect_trace(EngineConfig(), _manifest(events), events)


def _tiny_model(seed=30):
    """Train on a few locker/benign traces; returns the fused classifier."""
    X_mlr, X_svm, y = [], [], []
    for i, (arch, label, extra) in enumerate([
        ("locker", 1, {"spawn_profile": DEFAULT_LOCKER_PROFILE}),
        ("benign_desktop", 0, {}),
        ("benign_spawner", 0, {"spawn_profile": None}),
    ] * 4):
        if arch == "benign_spawner":
            from peeler.synth import DEFAULT_SPAWNER_PROFILE

            extra = {"spawn_profile": DEFAULT_SPAWNER_PROFILE}
        cfg = SynthConfig(seed=seed + i, archetype=arch, duration=60_000_000, **extra)
        _, events = synth_trace(cfg)
        for w in window_partition(events, 5_000_000):
            if len(w.events) < 10 and label == 1:
                continue
            mlr, svm = window_features(w)
            X_mlr.append(mlr.as_vector())
            X_svm.append(svm.as_vector())
            y.append(label)
    y = np.array(y)
    return FusedClassifier(mlr=train_mlr(np.vstack(X_mlr), y),
                           svm=train_svm(np.vstack(X_svm), y))


def test_ml_stage_flags_locker_windows():
    model = _tiny_model()
    cfg = SynthConfig(seed=77, archetype="locker",
                      spawn_profile=DEFAULT_LOCKER_PROFILE, duration=60_000_000)
    manifest, events = synth_trace(cfg)
    report = detect_trace(EngineConfig(), manifest, events, model=model)
    ml_alerts = [a for a in report.alerts if a.detector is Detector.ML_CLASSIFIER]
    assert ml_alerts, "locker trace must trip the window classifier"
    assert report.first_alert_latency is not None
    assert report.first_alert_latency <= manifest.duration

    manifest_b, events_b = synth_trace(SynthConfig(seed=78, archetype="benign_desktop",
                                                   duration=60_000_000))
    report_b = detect_trace(EngineConfig(), manifest_b, events_b, model=model)
    assert [a for a in report_b.alerts if a.detector is Detector.ML_CLASSIFIER] == []


def test_threshold_override_controls_ml_alerts():
    model = _tiny_model(seed=40)
    cfg = SynthConfig(seed=79, archetype="locker",
                      spawn_profile=DEFAULT_LOCKER_PROFILE, duration=60_000_000)
    manifest, events = synth_trace(cfg)
    strict = detect_trace(EngineConfig(threshold=0.999999), manifest, events, model=model)
    ml_alerts = [a for a in strict.alerts if a.detector is Detector.ML_CLASSIFIER]
    lax = detect_trace(EngineConfig(threshold=0.5), manifest, events, model=model)
    assert len(ml_alerts) <= len([a for a in lax.alerts if a.detector is Detector.ML_CLASSIFIER])

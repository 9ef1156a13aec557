"""Detection engine: routes events to the per-event detectors, classifies
closed windows, and collects alerts.

The engine holds no window state: run_trace cuts the stream with
trace_io.window_partition, the same windowing that eval uses, feeds each
window's events to process_event and then hands the window to flush_window.
Command rules and the file I/O matcher see every event as it arrives and can
alert mid-window; the ML stage fires only when a window closes. A pid that
has alerted is quarantined (further alerts suppressed) when quarantine is
on; the stream itself is never stopped, so one run measures every detector.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .commands import CommandMatcher, RuleSet, default_rules_path, load_rules_file
from .events import Alert, Detector, Event, EventType, Provider
from .features import window_features
from .fileio import FileIoMatcher, is_exempt
from .ml import FusedClassifier, fuse
from .trace_io import TraceManifest, Window, window_partition


@dataclass
class EngineConfig:
    window_len: int = 5_000_000
    quarantine: bool = True

    def __post_init__(self):
        if self.window_len <= 0:
            raise ValueError("window_len must be positive")


@dataclass
class DetectionReport:
    alerts: List[Alert]
    detector_counts: Dict[Detector, int]
    first_alert_latency: Optional[int]
    events_processed: int
    events_per_second: float
    verdict: str

    @property
    def is_ransomware(self) -> bool:
        return self.verdict == "ransomware"


class Engine:
    """Single-stream detection state; feed one trace per instance.

    rules=None loads the bundled rule file; model=None turns the ML stage off.
    """

    def __init__(
        self,
        config: EngineConfig,
        rules: Optional[RuleSet] = None,
        model: Optional[FusedClassifier] = None,
    ):
        self.config = config
        if rules is None:
            rules = load_rules_file(default_rules_path())
        self.commands = CommandMatcher(rules)
        self.matcher = FileIoMatcher()
        self.model = model
        self.alerts: List[Alert] = []
        self.events_processed = 0
        self.quarantined = set()

    def _emit(self, alert: Optional[Alert], out: List[Alert]) -> None:
        if alert is None:
            return
        if alert.pid in self.quarantined:
            if self.config.quarantine:
                return
        else:
            self.quarantined.add(alert.pid)
        self.alerts.append(alert)
        out.append(alert)

    def process_event(self, e: Event) -> List[Alert]:
        """Feed one event to the per-event detectors; returns their alerts."""
        out: List[Alert] = []
        self.events_processed += 1
        prov = e.provider
        if prov is Provider.FILE:
            self._emit(self.matcher.ingest(e), out)
        elif prov is Provider.PROCESS:
            self.matcher.ingest(e)  # feeds the pid-image exemption map
            if e.etype is EventType.START:
                self._emit(self.commands.match(e), out)
        return out

    def flush_window(self, window: Window) -> List[Alert]:
        """Classify one closed window when the ML stage is on; returns its alerts.

        The alert is attributed to the pid contributing the most window
        events (system/explorer excluded), with the top contenders recorded
        in the trigger text.
        """
        out: List[Alert] = []
        events = window.events
        if self.model is None or not events:
            return out
        mlr, svm = window_features(window)
        score, verdict = fuse(self.model, mlr, svm)
        if verdict != "ransomware":
            return out
        pid_counts = Counter(e.pid for e in events)
        pid_images = self.matcher.pid_images
        ranked = [(n, p) for p, n in pid_counts.items() if not is_exempt(p, pid_images)]
        ranked.sort(key=lambda t: (-t[0], t[1]))
        top = [p for _, p in ranked[:3]]
        alert = Alert(
            detector=Detector.ML_CLASSIFIER,
            pid=top[0] if top else events[0].pid,
            trigger=f"score={score:.4f} top_pids={top}",
            event_timestamp=window.end,
            emitted_timestamp=window.end,
        )
        self._emit(alert, out)
        return out


def run_trace(engine: Engine, manifest: TraceManifest, events: Iterable[Event]) -> DetectionReport:
    """Immediate-mode run of one trace through a fresh engine."""
    if engine.events_processed:
        raise ValueError("engine has already consumed a stream")
    start = time.perf_counter()
    process = engine.process_event
    for window in window_partition(events, engine.config.window_len):
        for e in window.events:
            process(e)
        engine.flush_window(window)
    elapsed = time.perf_counter() - start
    alerts = engine.alerts
    counts = Counter(a.detector for a in alerts)
    latency = None
    if alerts and manifest.label.is_ransomware:
        latency = alerts[0].event_timestamp - manifest.attack_onset
    return DetectionReport(
        alerts=list(alerts),
        detector_counts={d: counts.get(d, 0) for d in Detector},
        first_alert_latency=latency,
        events_processed=engine.events_processed,
        events_per_second=engine.events_processed / elapsed if elapsed > 0 else 0.0,
        verdict="ransomware" if alerts else "benign",
    )

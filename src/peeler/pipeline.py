"""Detection engine: routes events to the per-event detectors, classifies
closed windows, and collects alerts.

The engine holds no window state: run_trace cuts the stream with
trace_io.window_partition at the fixed trace_io.WINDOW_LEN, the same
windowing loop that train and eval use, so a model always scores windows of
the length it was trained on. The loop folds each event into its window's
counts and passes it on to process_event, and hands each window to
flush_window once its last event is in; no event outlives its own step.
Command rules and the file I/O matcher see every event as it arrives and
can alert mid-window; the ML stage fires only when a window closes. The
model scores the window itself (ml.FusedClassifier.score_window), so this
module loads neither features nor ml, nor numpy. Each call returns its one
alert or None, since a File event reaches only the matcher, a Process Start
only the rules and a window only the classifier. A pid that has alerted is
quarantined (further alerts suppressed) when quarantine is on; the stream
itself is never stopped, so one run measures every detector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional

from .commands import CommandMatcher, CommandRule, default_rules_path, load_rules_file
from .events import Alert, Detector, Event, EventType, Provider
from .fileio import FileIoMatcher
from .trace_io import WINDOW_LEN, TraceManifest, Window, window_partition

if TYPE_CHECKING:
    from .ml import FusedClassifier

# module globals: on CPython 3.11 Provider.FILE goes through EnumType.__getattr__
_FILE, _PROCESS, _START = Provider.FILE, Provider.PROCESS, EventType.START


@dataclass
class EngineConfig:
    quarantine: bool = True


@dataclass
class DetectionReport:
    alerts: List[Alert]
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
        rules: Optional[List[CommandRule]] = None,
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

    def _emit(self, alert: Alert) -> Optional[Alert]:
        """Record alert unless quarantine suppresses it; returns what was recorded."""
        if self.config.quarantine:
            if alert.pid in self.quarantined:
                return None
            self.quarantined.add(alert.pid)
        self.alerts.append(alert)
        return alert

    def process_event(self, e: Event) -> Optional[Alert]:
        """Feed one event to the per-event detectors; returns its alert or None."""
        self.events_processed += 1
        prov = e.provider
        if prov is _FILE:
            alert = self.matcher.ingest(e)
        elif prov is _PROCESS:
            self.matcher.ingest(e)  # decides whether the pid is exempt
            alert = self.commands.match(e) if e.etype is _START else None
        else:
            return None
        return None if alert is None else self._emit(alert)

    def flush_window(self, window: Window) -> Optional[Alert]:
        """Classify one closed window when the ML stage is on; returns its alert or None.

        The alert is attributed to the pid contributing the most window
        events (the matcher's exempt_pids excluded), with the top contenders recorded
        in the trigger text; with none left, to the pid of the window's
        first event.
        """
        pid_events = window.pid_events
        if self.model is None or not pid_events:
            return None
        score, flagged = self.model.score_window(window)
        if not flagged:
            return None
        exempt_pids = self.matcher.exempt_pids
        ranked = [(-n, p) for p, n in pid_events.items() if p not in exempt_pids]
        ranked.sort()
        top = [p for _, p in ranked[:3]]
        return self._emit(Alert(
            detector=Detector.ML_CLASSIFIER,
            pid=top[0] if top else next(iter(pid_events)),
            trigger=f"score={score:.4f} top_pids={top}",
            event_timestamp=window.end,
        ))


def run_trace(engine: Engine, manifest: TraceManifest, events: Iterable[Event]) -> DetectionReport:
    """Immediate-mode run of one trace through a fresh engine.

    events may be a list or a stream such as trace_io.iter_trace's, which
    hands on each decoded block's events from C. The reported rate times
    the whole loop, so it includes the time the stream takes to produce
    each event.
    """
    if engine.events_processed:
        raise ValueError("engine has already consumed a stream")
    start = time.perf_counter()
    for window in window_partition(events, WINDOW_LEN, engine.process_event):
        engine.flush_window(window)
    elapsed = time.perf_counter() - start
    alerts = engine.alerts
    return DetectionReport(
        alerts=list(alerts),
        first_alert_latency=manifest.latency(alerts[0].event_timestamp) if alerts else None,
        events_processed=engine.events_processed,
        events_per_second=engine.events_processed / elapsed if elapsed > 0 else 0.0,
        verdict="ransomware" if alerts else "benign",
    )

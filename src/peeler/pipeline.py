"""Detection engine: routes events to the per-event detectors, accumulates
tumbling windows for the classifier, and collects alerts.

Command rules and the file I/O matcher see every event as it arrives and can
alert mid-window; the ML stage fires only when a window closes. A pid that
has alerted is quarantined (further alerts suppressed) when quarantine is
on; the stream itself is never stopped, so one run measures every detector.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from .commands import CommandMatcher, RuleSet, default_rules_path, load_rules_file
from .events import Alert, Detector, Event, EventType, Provider
from .features import extract_mlr_features, extract_svm_features, build_process_tree
from .fileio import FileIoMatcher, MatcherConfig
from .ml import FusedClassifier, fuse, load_model_file
from .trace_io import TraceManifest, Window


@dataclass
class EngineConfig:
    window_len: int = 5_000_000
    rules_path: Optional[str] = None  # None selects the bundled rule file
    model_path: Optional[str] = None  # ML stage disabled when absent
    threshold: Optional[float] = None  # overrides the model's fusion threshold
    quarantine: bool = True
    enable_commands: bool = True
    enable_fileio: bool = True
    matcher_config: Optional[MatcherConfig] = None

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
    """Single-stream detection state; feed one trace per instance."""

    def __init__(
        self,
        config: EngineConfig,
        rules: Optional[RuleSet] = None,
        model: Optional[FusedClassifier] = None,
    ):
        self.config = config
        self.commands: Optional[CommandMatcher] = None
        if config.enable_commands:
            if rules is None:
                rules = load_rules_file(config.rules_path or default_rules_path())
            self.commands = CommandMatcher(rules)
        self.matcher = FileIoMatcher(config.matcher_config) if config.enable_fileio else None
        self.model = model
        if self.model is None and config.model_path:
            self.model = load_model_file(config.model_path)
        if self.model is not None and config.threshold is not None:
            self.model.threshold = config.threshold
        self.alerts: List[Alert] = []
        self.events_processed = 0
        self.quarantined = set()
        self._win_start = 0
        self._win_end = config.window_len
        self._win_index = 0
        self._win_events: List[Event] = []

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
        """Feed one event (timestamp-ordered); returns alerts it produced."""
        out: List[Alert] = []
        ts = e.timestamp
        if ts >= self._win_end:
            self._emit(self.flush_window(), out)
            # the windows skipped over are empty and never classified, so
            # jump straight to the one holding ts, whatever the gap
            length = self.config.window_len
            skipped = (ts - self._win_end) // length
            self._win_index += skipped + 1
            self._win_start = self._win_end + skipped * length
            self._win_end = self._win_start + length
        self.events_processed += 1
        self._win_events.append(e)
        prov = e.provider
        if prov is Provider.FILE:
            if self.matcher is not None:
                self._emit(self.matcher.ingest(e), out)
        elif prov is Provider.PROCESS:
            if self.matcher is not None:
                self.matcher.ingest(e)  # feeds the pid-image exemption map
            if self.commands is not None and e.etype is EventType.START:
                self._emit(self.commands.match(e), out)
        return out

    def flush_window(self) -> Optional[Alert]:
        """Close the current window; classify it when the ML stage is on.

        Empty windows are skipped. The alert is attributed to the pid
        contributing the most window events (system/explorer excluded),
        with the top contenders recorded in the trigger text.
        """
        events = self._win_events
        if not events:
            return None
        self._win_events = []
        if self.model is None:
            return None
        window = Window(self._win_index, self._win_start, self._win_end, events)
        mlr = extract_mlr_features(build_process_tree(window))
        svm = extract_svm_features(window)
        score, verdict = fuse(self.model, mlr, svm)
        if verdict != "ransomware":
            return None
        pid_counts = Counter(e.pid for e in events)
        exempt_images = ("system", "explorer.exe")
        pid_images = self.matcher.pid_images if self.matcher is not None else {}
        ranked = [
            (n, p)
            for p, n in pid_counts.items()
            if p != 4 and pid_images.get(p, "") not in exempt_images
        ]
        ranked.sort(key=lambda t: (-t[0], t[1]))
        top = [p for _, p in ranked[:3]]
        pid = top[0] if top else (events[0].pid if events else 0)
        return Alert(
            detector=Detector.ML_CLASSIFIER,
            pid=pid,
            trigger=f"score={score:.4f} top_pids={top}",
            event_timestamp=self._win_end,
            emitted_timestamp=self._win_end,
        )

    def finish(self) -> List[Alert]:
        """End of stream: flush the trailing partial window."""
        out: List[Alert] = []
        self._emit(self.flush_window(), out)
        return out


def run_trace(engine: Engine, manifest: TraceManifest, events: List[Event]) -> DetectionReport:
    """Immediate-mode run of one trace through a fresh engine."""
    if engine.events_processed:
        raise ValueError("engine has already consumed a stream")
    start = time.perf_counter()
    process = engine.process_event
    for e in events:
        process(e)
    engine.finish()
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


def detect_trace(
    config: EngineConfig,
    manifest: TraceManifest,
    events: List[Event],
    rules: Optional[RuleSet] = None,
    model: Optional[FusedClassifier] = None,
) -> DetectionReport:
    return run_trace(Engine(config, rules=rules, model=model), manifest, events)

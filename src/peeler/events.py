"""Unified data model for kernel events and detection alerts.

Events are normalized records from four kernel providers (Process, File,
Image, Thread). Every detector in the engine consumes these records, and
trace files are just serialized lists of them. A record is one object of
its payload type's class, which holds the shared fields and the payload's
own, so the decoder builds one object per trace line. The class, not the
object, holds the provider, the one its rows of EVENT_CLASS name. The
classes are mutable slotted dataclasses, not frozen ones: a frozen one
costs about twice as much to build. Nothing hashes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar


class Provider(Enum):
    """Kernel subsystem that emitted an event."""

    PROCESS = "Process"
    FILE = "File"
    IMAGE = "Image"
    THREAD = "Thread"


class EventType(Enum):
    """Event name, scoped to its owning provider (see EVENT_CLASS)."""

    START = "Start"
    END = "End"
    READ = "Read"
    WRITE = "Write"
    RENAME = "Rename"
    DELETE = "Delete"
    FILE_CREATE = "FileCreate"
    FILE_DELETE = "FileDelete"
    LOAD = "Load"
    UNLOAD = "Unload"


@dataclass(slots=True)
class Event:
    """One kernel event, as an instance of its pair's EVENT_CLASS, which
    adds its payload's fields to these and fixes the provider.

    timestamp is integer microseconds since trace start and must be
    non-decreasing within a stream; pid/tid and all file keys are opaque
    unsigned 64-bit values.
    """

    provider: ClassVar[Provider]
    pid: int
    tid: int
    etype: EventType
    timestamp: int

    @property
    def attrs(self) -> "Event":
        """The event itself; perfbench/run.py reads its fields as e.attrs.<field>."""
        return self


@dataclass(slots=True)
class ProcessEvent(Event):
    """Process Start/End. parent_id 0 means "no parent known"."""

    session_id: int
    parent_id: int
    image_file_name: str
    command_line: str


@dataclass(slots=True)
class FileRwEvent(Event):
    """File Read/Write."""

    file_key: int
    file_object: int
    io_size: int


@dataclass(slots=True)
class FileRenDelEvent(Event):
    """File Rename/Delete."""

    file_key: int
    file_object: int


@dataclass(slots=True)
class FileNameEvent(Event):
    """File FileCreate/FileDelete. file_name is a full path."""

    file_object: int
    file_name: str


@dataclass(slots=True)
class ThreadEvent(Event):
    """Thread Start/End. parent_id is the creating process."""

    parent_id: int


@dataclass(slots=True)
class ImageEvent(Event):
    """Image Load/Unload."""

    image_size: int
    file_name: str


# The 12 valid (provider, etype) pairs and the class of their events.
EVENT_CLASS = {
    (Provider.PROCESS, EventType.START): ProcessEvent,
    (Provider.PROCESS, EventType.END): ProcessEvent,
    (Provider.FILE, EventType.READ): FileRwEvent,
    (Provider.FILE, EventType.WRITE): FileRwEvent,
    (Provider.FILE, EventType.RENAME): FileRenDelEvent,
    (Provider.FILE, EventType.DELETE): FileRenDelEvent,
    (Provider.FILE, EventType.FILE_CREATE): FileNameEvent,
    (Provider.FILE, EventType.FILE_DELETE): FileNameEvent,
    (Provider.THREAD, EventType.START): ThreadEvent,
    (Provider.THREAD, EventType.END): ThreadEvent,
    (Provider.IMAGE, EventType.LOAD): ImageEvent,
    (Provider.IMAGE, EventType.UNLOAD): ImageEvent,
}

for (_provider, _), _cls in EVENT_CLASS.items():
    _cls.provider = _provider


class Detector(Enum):
    """Which detection stage produced an alert."""

    COMMAND_RULE = "CommandRule"
    FILE_IO_PATTERN = "FileIoPattern"
    ML_CLASSIFIER = "MlClassifier"


@dataclass(frozen=True, slots=True)
class Alert:
    """Detection verdict for one process.

    "Halting" a flagged process is represented by this record (plus pipeline
    quarantine); no OS action is ever taken. Every detector emits its alert
    at event_timestamp, the trace time of the event or window end that
    decided it.
    """

    detector: Detector
    pid: int
    trigger: str
    event_timestamp: int


# Letters of the file I/O pattern alphabet, one per File event type.
# Delete and FileDelete both map to D: observed encryption flows express the
# removal step through either event, and the four patterns need both
# spellings to count as the same step.
PATTERN_LETTERS = {
    EventType.FILE_CREATE: "C",
    EventType.READ: "R",
    EventType.WRITE: "W",
    EventType.RENAME: "N",
    EventType.DELETE: "D",
    EventType.FILE_DELETE: "D",
}

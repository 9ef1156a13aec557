"""Unified data model for kernel events and detection alerts.

Events are normalized records from four kernel providers (Process, File,
Image, Thread). Every detector in the engine consumes this one event shape;
trace files are just serialized lists of these records. The records are
mutable slotted dataclasses, not frozen ones: the decoder builds two per
trace line, and a frozen one costs about twice as much to build. Nothing
hashes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union


class Provider(Enum):
    """Kernel subsystem that emitted an event."""

    PROCESS = "Process"
    FILE = "File"
    IMAGE = "Image"
    THREAD = "Thread"


class EventType(Enum):
    """Event name, scoped to its owning provider (see ATTRS_FOR)."""

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
class ProcessAttrs:
    """Payload of Process Start/End. parent_id 0 means "no parent known"."""

    session_id: int
    parent_id: int
    image_file_name: str
    command_line: str


@dataclass(slots=True)
class FileRwAttrs:
    """Payload of File Read/Write."""

    file_key: int
    file_object: int
    io_size: int


@dataclass(slots=True)
class FileRenDelAttrs:
    """Payload of File Rename/Delete."""

    file_key: int
    file_object: int


@dataclass(slots=True)
class FileNameAttrs:
    """Payload of File FileCreate/FileDelete. file_name is a full path."""

    file_object: int
    file_name: str


@dataclass(slots=True)
class ThreadAttrs:
    """Payload of Thread Start/End. parent_id is the creating process."""

    parent_id: int


@dataclass(slots=True)
class ImageAttrs:
    """Payload of Image Load/Unload."""

    image_size: int
    file_name: str


EventAttrs = Union[
    ProcessAttrs, FileRwAttrs, FileRenDelAttrs, FileNameAttrs, ThreadAttrs, ImageAttrs
]

# The 12 valid (provider, etype) pairs and their payload type.
ATTRS_FOR = {
    (Provider.PROCESS, EventType.START): ProcessAttrs,
    (Provider.PROCESS, EventType.END): ProcessAttrs,
    (Provider.FILE, EventType.READ): FileRwAttrs,
    (Provider.FILE, EventType.WRITE): FileRwAttrs,
    (Provider.FILE, EventType.RENAME): FileRenDelAttrs,
    (Provider.FILE, EventType.DELETE): FileRenDelAttrs,
    (Provider.FILE, EventType.FILE_CREATE): FileNameAttrs,
    (Provider.FILE, EventType.FILE_DELETE): FileNameAttrs,
    (Provider.THREAD, EventType.START): ThreadAttrs,
    (Provider.THREAD, EventType.END): ThreadAttrs,
    (Provider.IMAGE, EventType.LOAD): ImageAttrs,
    (Provider.IMAGE, EventType.UNLOAD): ImageAttrs,
}


@dataclass(slots=True)
class Event:
    """One kernel event.

    timestamp is integer microseconds since trace start and must be
    non-decreasing within a stream; pid/tid and all file keys are opaque
    unsigned 64-bit values.
    """

    pid: int
    tid: int
    provider: Provider
    etype: EventType
    timestamp: int
    attrs: EventAttrs


class Detector(Enum):
    """Which detection stage produced an alert."""

    COMMAND_RULE = "CommandRule"
    FILE_IO_PATTERN = "FileIoPattern"
    ML_CLASSIFIER = "MlClassifier"


@dataclass(frozen=True, slots=True)
class Alert:
    """Detection verdict for one process.

    "Halting" a flagged process is represented by this record (plus pipeline
    quarantine); no OS action is ever taken.
    """

    detector: Detector
    pid: int
    trigger: str
    event_timestamp: int
    emitted_timestamp: int


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

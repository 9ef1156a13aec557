"""Trace file reading/writing and the one window partitioning that detection
and evaluation share.

Wire format (bit-exact, UTF-8, \\n line endings):

    PEELER-TRACE v1 {"label":...,"family":...,"seed":...,...}
    {"ts":0,"pid":4321,"tid":1,"prov":"File","etype":"Read",...}
    ...

One JSON object per event line with keys ts, pid, tid, prov, etype plus the
provider-specific attribute keys (session_id, parent_id, image, cmdline,
file_key, file_object, io_size, file_name, image_size); absent keys are
omitted. file_key/file_object are written as 0x-prefixed lowercase hex
strings without leading zeros, and accepted only in that spelling or as
plain integers on ingestion. Decoding is strict by JSON type: integer
fields take only JSON integers (not booleans or floats) in [0, 2^64), and
string fields only strings. _WIRE is the one statement of each payload
type's keys, in wire order, with each key's attribute and check: the writer
and the line path both read it.

iter_trace decodes a file as it reads it, a block of whole lines (about
_BLOCK_BYTES) at a time, and yields the manifest, then the events, each
block's list handed on by itertools.chain; read_trace collects them into a
list. _block_events decodes a block in one loop: each event line goes to
orjson by itself, as the bytes it was read as, every check of the line path
and the timestamp order is made inline, each distinct hex key spelling is
checked once, and each line becomes one object of its EVENT_CLASS. A block
that any line or check fails, or whose "{" and "[" could nest deeper than
json accepts, is decoded again by line_to_event, the fault path, one line
at a time with json alone. So json decides every fault and its message,
and every event before a fault is yielded first. detect, train and eval
feed the stream to window_partition, so a consumer holds one block.

write_trace is the mirror image: it writes the header, then one line per
event as it takes the event from any iterable, so it holds one line, not the
file. Each line is orjson's bytes of the same object that event_to_line
passes to json.dumps; a line that orjson refuses (an int outside
[-2^63, 2^64), a lone surrogate) is written by event_to_line, so json alone
decides its bytes or its fault. Where both write, their bytes are equal.

window_partition cuts a stream lazily into tumbling windows aligned at t=0
and yields only the non-empty ones. A Window keeps no events: it folds each
one into the counts and maps the classifier reads, and passes it on to an
optional per-event callable. The engine (pipeline.run_trace, which passes
Engine.process_event) and the eval profiles (evaluate.profile_trace) both run
this one loop, always at WINDOW_LEN.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain
from typing import BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import orjson

from .errors import ParseError, SchemaError
from .events import (
    EVENT_CLASS,
    Event,
    EventType,
    FileNameEvent,
    FileRenDelEvent,
    FileRwEvent,
    ImageEvent,
    ProcessEvent,
    Provider,
    ThreadEvent,
)

HEADER_MAGIC = "PEELER-TRACE"
FORMAT_VERSION = "v1"

# The classifier's window, in microseconds. A model is trained on feature
# counts taken over windows of this length, so detect, train and eval must
# all cut the stream at it; a model file does not record it.
WINDOW_LEN = 5_000_000


class TraceLabel(Enum):
    BENIGN = "benign"
    CRYPTO = "crypto"
    SCREEN_LOCKER = "screen_locker"
    UNKNOWN = "unknown"

    @property
    def is_ransomware(self) -> bool:
        return self in (TraceLabel.CRYPTO, TraceLabel.SCREEN_LOCKER)


@dataclass
class TraceManifest:
    """Ground-truth record stored in a trace header.

    seed is 0 for captured traces and the generator seed for synthesized
    ones. attack_onset is the timestamp of the first malicious event in a
    synthesized attack trace (0 for benign traces); latency runs from it.
    """

    label: TraceLabel
    family: str
    seed: int
    event_count: int
    duration: int
    attack_onset: int = 0

    def latency(self, ts: int) -> Optional[int]:
        """The one latency rule, for detect and eval alike: how long after
        the attack onset an alert at ts fired, 0 when it fired before the
        onset, and None on a trace that is not ransomware."""
        return max(0, ts - self.attack_onset) if self.label.is_ransomware else None


_PROCESS, _FILE, _IMAGE, _THREAD = Provider.PROCESS, Provider.FILE, Provider.IMAGE, Provider.THREAD
_START, _END, _READ, _WRITE = EventType.START, EventType.END, EventType.READ, EventType.WRITE
_LOAD, _UNLOAD = EventType.LOAD, EventType.UNLOAD


class Window:
    """One tumbling window of the event stream, known by its end: the one
    that window_partition cuts holds the events end - window_len <= ts < end.
    It keeps all that the classifier and its alert read of those events.

    The events are folded in as they arrive (add) and not kept:
    pid_events counts each pid's events, in order of each pid's first event;
    started maps each pid's first Process Start to its parent_id; images
    holds each pid's first non-empty Process image; threads counts each
    pid's Thread Starts; and one counter per SvmFeatures field counts its
    (provider, etype) pair.
    """

    __slots__ = (
        "end", "pid_events", "started", "images", "threads",
        "n_process_start", "n_process_end", "n_image_load", "n_image_unload",
        "n_file_read", "n_file_write", "n_thread_start", "n_thread_end",
    )

    def __init__(self, end: int) -> None:
        self.end = end
        self.pid_events: Dict[int, int] = {}
        self.started: Dict[int, int] = {}
        self.images: Dict[int, str] = {}
        self.threads: Dict[int, int] = {}
        self.n_process_start = self.n_process_end = 0
        self.n_image_load = self.n_image_unload = 0
        self.n_file_read = self.n_file_write = 0
        self.n_thread_start = self.n_thread_end = 0

    @property
    def count(self) -> int:
        """Events folded into the window."""
        return sum(self.pid_events.values())

    def add(self, e: Event) -> None:
        """Fold one event into the window's counts and maps."""
        pid = e.pid
        counts = self.pid_events
        counts[pid] = counts.get(pid, 0) + 1
        prov = e.provider
        et = e.etype
        if prov is _FILE:
            if et is _READ:
                self.n_file_read += 1
            elif et is _WRITE:
                self.n_file_write += 1
        elif prov is _THREAD:
            if et is _START:
                self.n_thread_start += 1
                threads = self.threads
                threads[pid] = threads.get(pid, 0) + 1
            elif et is _END:
                self.n_thread_end += 1
        elif prov is _IMAGE:
            if et is _LOAD:
                self.n_image_load += 1
            elif et is _UNLOAD:
                self.n_image_unload += 1
        elif prov is _PROCESS:
            if e.image_file_name and pid not in self.images:
                self.images[pid] = e.image_file_name
            if et is _START:
                self.n_process_start += 1
                if pid not in self.started:
                    self.started[pid] = e.parent_id
            elif et is _END:
                self.n_process_end += 1


_ETYPE_BY_NAME = {t.value: t for t in EventType}


def _key_out(value: int) -> str:
    return "0x%x" % value


_U64 = 1 << 64


def _u64(value, name: str, lineno: int) -> int:
    """Check one JSON value is an unsigned 64-bit integer (not a bool or float)."""
    if type(value) is int and 0 <= value < _U64:
        return value
    got = "out of range" if type(value) is int else type(value).__name__
    raise ParseError(lineno, f"{name} must be an integer in [0, 2^64), got {got}")


def _str(value, name: str, lineno: int) -> str:
    if type(value) is str:
        return value
    raise ParseError(lineno, f"{name} must be a string, got {type(value).__name__}")


def _key_in(value, name: str, lineno: int) -> int:
    """A file key: a plain integer or the hex string _key_out writes, unsigned 64-bit.

    int(value, 16) alone also takes whitespace, a sign, underscores, "0X",
    no prefix and leading zeros; the round trip through hex() admits one
    spelling per key.
    """
    if type(value) is str:
        try:
            key = int(value, 16)
        except ValueError:
            key = -1
        if 0 <= key < _U64 and hex(key) == value:
            return key
        raise ParseError(lineno, f"{name} is not 0x and lowercase hex digits")
    return _u64(value, name, lineno)


def _name(value, name: str, lineno: int) -> str:
    """A FileCreate/FileDelete file name: a string, and not empty."""
    if _str(value, name, lineno):
        return value
    raise SchemaError(f"line {lineno}: invalid event: attrs.{name}: empty")


# Each event class's payload rows in wire order, which is also the order of
# the class's own fields: (wire key, field, check). The writer spells a
# _key_in row with _key_out; _event takes each key through its check, row
# by row, so the first fault in row order is the one raised.
_WIRE = {
    ProcessEvent: (("session_id", "session_id", _u64), ("parent_id", "parent_id", _u64),
                   ("image", "image_file_name", _str), ("cmdline", "command_line", _str)),
    FileRwEvent: (("file_key", "file_key", _key_in), ("file_object", "file_object", _key_in),
                  ("io_size", "io_size", _u64)),
    FileRenDelEvent: (("file_key", "file_key", _key_in), ("file_object", "file_object", _key_in)),
    FileNameEvent: (("file_object", "file_object", _key_in), ("file_name", "file_name", _name)),
    ThreadEvent: (("parent_id", "parent_id", _u64),),
    ImageEvent: (("image_size", "image_size", _u64), ("file_name", "file_name", _str)),
}


def _event_dict(e: Event) -> dict:
    """The wire line's object: its keys in wire order."""
    # _value_ is the member's own attribute; Enum.value is a Python-level property
    d = {
        "ts": e.timestamp,
        "pid": e.pid,
        "tid": e.tid,
        "prov": e.provider._value_,
        "etype": e.etype._value_,
    }
    for key, field, check in _WIRE[type(e)]:
        value = getattr(e, field)
        d[key] = _key_out(value) if check is _key_in else value
    return d


def event_to_line(e: Event) -> str:
    """Serialize one event as its canonical wire line (no newline)."""
    return json.dumps(_event_dict(e), separators=(",", ":"), ensure_ascii=False)


def _event_bytes(e: Event) -> bytes:
    """One event's wire line, newline included, as UTF-8 bytes.

    For the ints and strings an event holds, orjson writes the same bytes as
    json.dumps(..., separators=(",", ":"), ensure_ascii=False), and raises
    TypeError on an int outside [-2^63, 2^64) or a lone surrogate; such a
    line is written by event_to_line, which decides its bytes or its fault.
    """
    d = _event_dict(e)
    try:
        return orjson.dumps(d, option=orjson.OPT_APPEND_NEWLINE)
    except TypeError:
        return (event_to_line(e) + "\n").encode("utf-8")


# prov -> etype, as the wire spells them -> the two members and the event
# class: two lookups of strings, whose hashes are cached, per line
_PAIRS = {
    p.value: {t.value: (p, t, cls) for (q, t), cls in EVENT_CLASS.items() if q is p} for p in Provider
}

# iter_trace reads whole lines of about this many bytes at a time
_BLOCK_BYTES = 1 << 14

# at most this many "{" and "[" beyond one "{" per line in a block that
# _block_events takes. orjson reads any depth of nesting and json raises at
# about 1000 levels; each line the loop takes is an object, so none nests
# deeper than _MAX_NESTING + 1 levels, which json reads too. A brace in a
# string (a {GUID} path, bcdedit's {default}) counts against the bound.
_MAX_NESTING = 100


def _json_loads(text: str, lineno: int, what: str):
    """json.loads(text), with its fault as a ParseError naming the line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"{what}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # integer digit limit, nesting depth
        raise ParseError(lineno, f"{what}: {exc}") from None


def _event(obj, lineno: int) -> Event:
    """The Event that one decoded line's JSON value holds, or the first
    fault of the line, its checks made in a fixed order."""
    if type(obj) is not dict:
        raise ParseError(lineno, "event line is not an object")
    try:
        pairs = _PAIRS[obj["prov"]]
        etype = _ETYPE_BY_NAME[obj["etype"]]
        pid, tid, ts = obj["pid"], obj["tid"], obj["ts"]
    except KeyError as exc:
        raise ParseError(lineno, f"missing or unknown key/value {exc.args[0]!r}") from None
    except TypeError:  # a list or object where prov/etype belongs
        raise ParseError(lineno, "prov and etype must be strings") from None
    for name, value in (("pid", pid), ("tid", tid), ("ts", ts)):
        _u64(value, name, lineno)
    pair = pairs.get(obj["etype"])
    if pair is None:
        raise ParseError(lineno, f"etype {etype.value} invalid for provider {obj['prov']}")
    cls = pair[2]
    try:
        fields = [check(obj[key], key, lineno) for key, _, check in _WIRE[cls]]
    except KeyError as exc:
        raise ParseError(lineno, f"missing attribute key {exc.args[0]!r}") from None
    return cls(pid, tid, etype, ts, *fields)


def line_to_event(raw: bytes, lineno: int = 0) -> Event:
    """Parse one wire line, as read from the file, back into an Event:
    json.loads and _event, the fault path. Raises ParseError for a malformed
    line and SchemaError for a FileCreate or FileDelete with an empty file
    name.
    """
    return _event(_json_loads(_line_text(raw, lineno), lineno, "invalid JSON"), lineno)


def _block_events(lines: List[bytes], prev_ts: int) -> Optional[List[Event]]:
    """The events of a block of event lines, or None if line_to_event must
    decode the block: where the block holds more than len(lines) +
    _MAX_NESTING "{" and "[" in all, or a line fails orjson or a check of
    _event and its _WIRE rows, or a timestamp lies below its predecessor's
    (prev_ts, at least 0, for the first line).

    Every check is made inline, with no call per line but orjson's, the
    builtins' and the event class's: this loop is most of the cost of
    decode. Each distinct hex spelling of a file key is checked once per
    block; one that fails is never stored, and the block is declined.
    """
    blob = b"".join(lines)
    if blob.count(b"{") + blob.count(b"[") > len(lines) + _MAX_NESTING:
        return None
    events = []
    append = events.append
    loads = orjson.loads
    keys = {}
    try:
        for raw in lines:
            obj = loads(raw)
            provider, etype, cls = _PAIRS[obj["prov"]][obj["etype"]]
            pid = obj["pid"]
            tid = obj["tid"]
            ts = obj["ts"]
            # orjson's ints lie in [-2^63, 2^64), so one >= 0 is unsigned 64-bit
            if not (type(pid) is int and type(tid) is int and type(ts) is int
                    and pid >= 0 and tid >= 0 and ts >= prev_ts):
                return None
            prev_ts = ts
            if provider is _FILE:
                # a file key: an int, or the one hex spelling _key_in takes.
                # keys maps each spelling that passed in this block to its
                # int; keys[s] = s = value stores under s before rebinding it
                file_object = obj["file_object"]
                file_object = keys.get(file_object, file_object)
                if type(file_object) is str:
                    value = int(file_object, 16)
                    if not (0 <= value < _U64 and hex(value) == file_object):
                        return None
                    keys[file_object] = file_object = value
                elif type(file_object) is not int or file_object < 0:
                    return None
                if cls is FileNameEvent:
                    file_name = obj["file_name"]
                    if type(file_name) is not str or not file_name:
                        return None
                    append(FileNameEvent(pid, tid, etype, ts, file_object, file_name))
                    continue
                file_key = obj["file_key"]
                file_key = keys.get(file_key, file_key)
                if type(file_key) is str:
                    value = int(file_key, 16)
                    if not (0 <= value < _U64 and hex(value) == file_key):
                        return None
                    keys[file_key] = file_key = value
                elif type(file_key) is not int or file_key < 0:
                    return None
                if cls is FileRwEvent:
                    io_size = obj["io_size"]
                    if type(io_size) is not int or io_size < 0:
                        return None
                    append(FileRwEvent(pid, tid, etype, ts, file_key, file_object, io_size))
                else:
                    append(FileRenDelEvent(pid, tid, etype, ts, file_key, file_object))
            elif cls is ThreadEvent:
                parent_id = obj["parent_id"]
                if type(parent_id) is not int or parent_id < 0:
                    return None
                append(ThreadEvent(pid, tid, etype, ts, parent_id))
            elif cls is ImageEvent:
                image_size = obj["image_size"]
                file_name = obj["file_name"]
                if type(image_size) is not int or image_size < 0 or type(file_name) is not str:
                    return None
                append(ImageEvent(pid, tid, etype, ts, image_size, file_name))
            else:
                session_id = obj["session_id"]
                parent_id = obj["parent_id"]
                image = obj["image"]
                cmdline = obj["cmdline"]
                if not (type(session_id) is int and type(parent_id) is int and session_id >= 0
                        and parent_id >= 0 and type(image) is str and type(cmdline) is str):
                    return None
                append(ProcessEvent(pid, tid, etype, ts, session_id, parent_id, image, cmdline))
    except (ValueError, KeyError, TypeError):
        # bad JSON (orjson's JSONDecodeError is a ValueError) or hex digits,
        # a missing key or unknown pair, a line that is not an object: the
        # line path finds and names the fault
        return None
    return events


def _manifest_to_json(m: TraceManifest) -> str:
    d = {**asdict(m), "label": m.label.value}  # the fields in their order
    return json.dumps(d, separators=(",", ":"), ensure_ascii=False)


def _manifest_from_json(text: str, lineno: int) -> TraceManifest:
    d = _json_loads(text, lineno, "invalid manifest JSON")
    if type(d) is not dict:
        raise ParseError(lineno, "manifest is not an object")
    try:
        return TraceManifest(
            label=TraceLabel(_str(d["label"], "label", lineno)),
            family=_str(d["family"], "family", lineno),
            seed=_u64(d["seed"], "seed", lineno),
            event_count=_u64(d["event_count"], "event_count", lineno),
            duration=_u64(d["duration"], "duration", lineno),
            attack_onset=_u64(d.get("attack_onset", 0), "attack_onset", lineno),
        )
    except KeyError as exc:
        raise ParseError(lineno, f"manifest missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ParseError(lineno, f"bad manifest value: {exc}") from None


def write_trace(manifest: TraceManifest, events: Iterable[Event], sink: BinaryIO) -> None:
    """Write a trace, one line at a time; output re-reads to equal content
    via read_trace.

    events may be any iterable, and only the line being written is held. An
    event that cannot be written (a string with a lone surrogate raises
    UnicodeEncodeError) fails when its line is reached, after the lines
    before it are in sink; read back, that prefix fails the manifest's
    event count check.
    """
    sink.write(f"{HEADER_MAGIC} {FORMAT_VERSION} {_manifest_to_json(manifest)}\n".encode("utf-8"))
    sink.writelines(map(_event_bytes, events))


def _line_text(raw: bytes, lineno: int) -> str:
    """One line of a trace file as text, without its line break."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(lineno, "invalid UTF-8") from None
    return text[:-1] if text[-1:] == "\n" else text


def iter_trace(source: BinaryIO) -> Iterator[Union[TraceManifest, Event]]:
    """Decode a trace as it is read: yield its manifest, then its events.

    The file is read a block of whole lines (about _BLOCK_BYTES) at a time,
    so a consumer that keeps no events holds one block in memory. A block
    is decoded by _block_events, or, where it declines, by line_to_event one
    line at a time: the fault path. Raises ParseError for a malformed line
    (invalid UTF-8 or JSON, a missing key, a value of the wrong JSON type
    or out of range) and SchemaError for an invariant violation (an empty
    FileCreate/FileDelete file name, a non-monotonic timestamp), each after
    the events of the lines before it are yielded; so the first fault in
    line order is the one reported. The checks against the manifest (event
    count, duration) run after the last line, so they raise after every
    event has been yielded. The stream is itertools.chain over _blocks' lists
    of events, so no Python frame resumes per event outside the fault path.
    """
    return chain.from_iterable(_blocks(source))


def _blocks(source: BinaryIO) -> Iterator[Sequence[Union[TraceManifest, Event]]]:
    first = source.readline()
    if not first:
        raise ParseError(1, "empty trace file")
    header = _line_text(first, 1)
    if not header.startswith(HEADER_MAGIC + " "):
        raise ParseError(1, "missing trace header magic")
    version, _, manifest_json = header[len(HEADER_MAGIC) + 1 :].partition(" ")
    if version != FORMAT_VERSION:
        raise ParseError(1, f"unsupported trace format version {version!r}")
    manifest = _manifest_from_json(manifest_json, 1)
    yield (manifest,)

    lineno = 2  # of the next line to decode
    prev_ts = 0  # no event has a timestamp below 0
    while lines := source.readlines(_BLOCK_BYTES):
        events = _block_events(lines, prev_ts)
        if events is not None:
            prev_ts = events[-1].timestamp
            lineno += len(lines)
            yield events
            continue
        for raw in lines:
            e = line_to_event(raw, lineno)
            if e.timestamp < prev_ts:
                raise SchemaError(f"line {lineno}: non-monotonic timestamp")
            prev_ts = e.timestamp
            lineno += 1
            yield (e,)

    count = lineno - 2
    if manifest.event_count != count:
        raise SchemaError(f"manifest event_count {manifest.event_count} != body event count {count}")
    if count and manifest.duration < prev_ts:
        raise SchemaError("manifest duration precedes last event timestamp")


def read_trace(source: BinaryIO) -> Tuple[TraceManifest, List[Event]]:
    """Read and validate a whole trace: iter_trace, collected."""
    stream = iter_trace(source)
    manifest = next(stream)
    return manifest, list(stream)


def load_trace(path) -> Tuple[TraceManifest, List[Event]]:
    with open(path, "rb") as f:
        return read_trace(f)


def save_trace(path, manifest: TraceManifest, events: Iterable[Event]) -> None:
    with open(path, "wb") as f:
        write_trace(manifest, events, f)


def window_partition(
    events: Iterable[Event], window_len: int, process: Optional[Callable[[Event], object]] = None
) -> Iterator[Window]:
    """Split a timestamp-ordered stream into tumbling windows from t=0.

    Lazily yields the non-empty windows in order, each with its events
    folded in (Window.add). When process is given, each event is passed to
    it after it is folded in, so a window is yielded after process has seen
    its last event and before it sees the next window's first. Windows are
    half-open [end - window_len, end), with end a multiple of window_len, so
    a gap in the timestamps skips windows and costs nothing whatever its
    length. Raises ValueError on a non-positive window_len (at the call) and
    SchemaError on a timestamp below its predecessor's or below 0.
    """
    if window_len <= 0:
        raise ValueError("window_len must be > 0")
    return _windows(events, window_len, process)


def _windows(events: Iterable[Event], window_len: int, process) -> Iterator[Window]:
    window = None
    end = prev = 0
    for e in events:
        ts = e.timestamp
        if ts < prev:
            raise SchemaError(f"timestamp {ts} after {prev}: non-monotonic timestamp")
        prev = ts
        if ts >= end:
            if window is not None:
                yield window
            end = (ts // window_len + 1) * window_len
            window = Window(end)
            add = window.add
        add(e)
        if process is not None:
            process(e)
    if window is not None:
        yield window

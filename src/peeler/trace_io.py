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
string fields only strings.

window_partition cuts a stream lazily into tumbling windows aligned at t=0
and yields only the non-empty ones; the engine (pipeline.run_trace) and the
eval profiles (cli.profile_trace) both consume it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import BinaryIO, Iterable, Iterator, List, Tuple

from .errors import ParseError, SchemaError
from .events import (
    ATTRS_FOR,
    Event,
    EventType,
    FileNameAttrs,
    FileRenDelAttrs,
    FileRwAttrs,
    ImageAttrs,
    ProcessAttrs,
    Provider,
    ThreadAttrs,
)

HEADER_MAGIC = "PEELER-TRACE"
FORMAT_VERSION = "v1"


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
    synthesized attack trace (0 for benign traces); detection latency is
    measured against it.
    """

    label: TraceLabel
    family: str
    seed: int
    event_count: int
    duration: int
    attack_onset: int = 0


@dataclass
class Window:
    """One tumbling window of the event stream: start <= ts < end."""

    index: int
    start: int
    end: int
    events: List[Event] = field(default_factory=list)


_PROVIDER_BY_NAME = {p.value: p for p in Provider}
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


def _attrs_to_fields(attrs) -> List[Tuple[str, object]]:
    if type(attrs) is FileRwAttrs:
        return [
            ("file_key", _key_out(attrs.file_key)),
            ("file_object", _key_out(attrs.file_object)),
            ("io_size", attrs.io_size),
        ]
    if type(attrs) is FileNameAttrs:
        return [("file_object", _key_out(attrs.file_object)), ("file_name", attrs.file_name)]
    if type(attrs) is FileRenDelAttrs:
        return [("file_key", _key_out(attrs.file_key)), ("file_object", _key_out(attrs.file_object))]
    if type(attrs) is ProcessAttrs:
        return [
            ("session_id", attrs.session_id),
            ("parent_id", attrs.parent_id),
            ("image", attrs.image_file_name),
            ("cmdline", attrs.command_line),
        ]
    if type(attrs) is ThreadAttrs:
        return [("parent_id", attrs.parent_id)]
    return [("image_size", attrs.image_size), ("file_name", attrs.file_name)]


def event_to_line(e: Event) -> str:
    """Serialize one event as its canonical wire line (no newline)."""
    d = {
        "ts": e.timestamp,
        "pid": e.pid,
        "tid": e.tid,
        "prov": e.provider.value,
        "etype": e.etype.value,
    }
    for key, value in _attrs_to_fields(e.attrs):
        d[key] = value
    return json.dumps(d, separators=(",", ":"), ensure_ascii=False)


def _parse_attrs(provider: Provider, etype: EventType, obj: dict, lineno: int):
    cls = ATTRS_FOR.get((provider, etype))
    if cls is None:
        raise ParseError(lineno, f"etype {etype.value} invalid for provider {provider.value}")
    try:
        if cls is FileRwAttrs:
            return FileRwAttrs(
                file_key=_key_in(obj["file_key"], "file_key", lineno),
                file_object=_key_in(obj["file_object"], "file_object", lineno),
                io_size=_u64(obj["io_size"], "io_size", lineno),
            )
        if cls is FileNameAttrs:
            file_object = _key_in(obj["file_object"], "file_object", lineno)
            file_name = _str(obj["file_name"], "file_name", lineno)
            if not file_name:
                raise SchemaError(f"line {lineno}: invalid event: attrs.file_name: empty")
            return FileNameAttrs(file_object=file_object, file_name=file_name)
        if cls is FileRenDelAttrs:
            return FileRenDelAttrs(
                file_key=_key_in(obj["file_key"], "file_key", lineno),
                file_object=_key_in(obj["file_object"], "file_object", lineno),
            )
        if cls is ProcessAttrs:
            return ProcessAttrs(
                session_id=_u64(obj["session_id"], "session_id", lineno),
                parent_id=_u64(obj["parent_id"], "parent_id", lineno),
                image_file_name=_str(obj["image"], "image", lineno),
                command_line=_str(obj["cmdline"], "cmdline", lineno),
            )
        if cls is ThreadAttrs:
            return ThreadAttrs(parent_id=_u64(obj["parent_id"], "parent_id", lineno))
        return ImageAttrs(
            image_size=_u64(obj["image_size"], "image_size", lineno),
            file_name=_str(obj["file_name"], "file_name", lineno),
        )
    except KeyError as exc:
        raise ParseError(lineno, f"missing attribute key {exc.args[0]!r}") from None


def _json_loads(text: str, lineno: int, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"{what}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # integer digit limit, nesting depth
        raise ParseError(lineno, f"{what}: {exc}") from None


def line_to_event(line: str, lineno: int = 0) -> Event:
    """Parse one wire line back into an Event.

    Raises ParseError for a malformed line and SchemaError for a FileCreate
    or FileDelete with an empty file name.
    """
    obj = _json_loads(line, lineno, "invalid JSON")
    if type(obj) is not dict:
        raise ParseError(lineno, "event line is not an object")
    try:
        provider = _PROVIDER_BY_NAME[obj["prov"]]
        etype = _ETYPE_BY_NAME[obj["etype"]]
        pid = obj["pid"]
        tid = obj["tid"]
        ts = obj["ts"]
    except KeyError as exc:
        raise ParseError(lineno, f"missing or unknown key/value {exc.args[0]!r}") from None
    except TypeError:  # a list or object where prov/etype belongs
        raise ParseError(lineno, "prov and etype must be strings") from None
    # one inline test for the three fields every event has; _u64 names the culprit
    if not (type(pid) is int and type(tid) is int and type(ts) is int
            and 0 <= pid < _U64 and 0 <= tid < _U64 and 0 <= ts < _U64):
        for name in ("pid", "tid", "ts"):
            _u64(obj[name], name, lineno)
    attrs = _parse_attrs(provider, etype, obj, lineno)
    return Event(pid=pid, tid=tid, provider=provider, etype=etype, timestamp=ts, attrs=attrs)


def _manifest_to_json(m: TraceManifest) -> str:
    d = {
        "label": m.label.value,
        "family": m.family,
        "seed": m.seed,
        "event_count": m.event_count,
        "duration": m.duration,
        "attack_onset": m.attack_onset,
    }
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


def write_trace(manifest: TraceManifest, events: List[Event], sink: BinaryIO) -> None:
    """Write a trace; output re-reads to equal content via read_trace."""
    out = [f"{HEADER_MAGIC} {FORMAT_VERSION} {_manifest_to_json(manifest)}\n"]
    out.extend(event_to_line(e) + "\n" for e in events)
    sink.write("".join(out).encode("utf-8"))


def read_trace(source: BinaryIO) -> Tuple[TraceManifest, List[Event]]:
    """Read and validate a whole trace.

    Raises ParseError for malformed lines (invalid UTF-8 or JSON, a missing
    key, a value of the wrong JSON type or out of range) and SchemaError for
    invariant violations (an empty FileCreate/FileDelete file name,
    non-monotonic timestamps, count/duration mismatch). Both abort the read.
    """
    try:
        text = source.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(exc.object.count(b"\n", 0, exc.start) + 1, "invalid UTF-8") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "empty trace file")
    header = lines[0]
    if not header.startswith(HEADER_MAGIC + " "):
        raise ParseError(1, "missing trace header magic")
    rest = header[len(HEADER_MAGIC) + 1 :]
    version, _, manifest_json = rest.partition(" ")
    if version != FORMAT_VERSION:
        raise ParseError(1, f"unsupported trace format version {version!r}")
    manifest = _manifest_from_json(manifest_json, 1)

    events: List[Event] = []
    prev_ts = -1
    for i, line in enumerate(lines[1:], start=2):
        e = line_to_event(line, i)
        if e.timestamp < prev_ts:
            raise SchemaError(f"line {i}: non-monotonic timestamp")
        prev_ts = e.timestamp
        events.append(e)

    if manifest.event_count != len(events):
        raise SchemaError(
            f"manifest event_count {manifest.event_count} != body event count {len(events)}"
        )
    if events and manifest.duration < events[-1].timestamp:
        raise SchemaError("manifest duration precedes last event timestamp")
    return manifest, events


def load_trace(path) -> Tuple[TraceManifest, List[Event]]:
    with open(path, "rb") as f:
        return read_trace(f)


def save_trace(path, manifest: TraceManifest, events: List[Event]) -> None:
    with open(path, "wb") as f:
        write_trace(manifest, events, f)


def window_partition(events: Iterable[Event], window_len: int) -> Iterator[Window]:
    """Split a timestamp-ordered stream into tumbling windows from t=0.

    Lazily yields the non-empty windows in order. Windows are half-open
    [start, start+window_len) with index start // window_len, so a gap in
    the timestamps skips indices and costs nothing whatever its length.
    Raises ValueError on a non-positive window_len (at the call) and
    SchemaError on a timestamp below its predecessor's or below 0.
    """
    if window_len <= 0:
        raise ValueError("window_len must be > 0")
    return _windows(events, window_len)


def _windows(events: Iterable[Event], window_len: int) -> Iterator[Window]:
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
            index = ts // window_len
            end = (index + 1) * window_len
            window = Window(index, end - window_len, end, [])
            add = window.events.append
        add(e)
    if window is not None:
        yield window

"""Data model: pairing rules and pattern letters, checked through the strict
decoder: an event is valid when its wire line reads back equal to it."""

import dataclasses
import itertools

import pytest

from peeler.errors import ParseError, SchemaError
from peeler.events import (
    EVENT_CLASS,
    EventType,
    FileNameEvent,
    FileRenDelEvent,
    FileRwEvent,
    ImageEvent,
    ProcessEvent,
    Provider,
    ThreadEvent,
    PATTERN_LETTERS,
)
from peeler.trace_io import event_to_line, line_to_event
from helpers import ev_create, ev_proc_start

# sample payload fields of each event class
_SAMPLE_FIELDS = {
    ProcessEvent: (1, 0, "app.exe", "app.exe /x"),
    FileRwEvent: (0xA, 0xB, 512),
    FileRenDelEvent: (0xA, 0xB),
    FileNameEvent: (0xA, "c:/u/f.txt"),
    ThreadEvent: (42,),
    ImageEvent: (1024, "c:/w/x.dll"),
}


def _round_trip(e):
    return line_to_event(event_to_line(e).encode())


def _rejected(e):
    """True when the decoder refuses e's wire line or reads back another event."""
    try:
        return _round_trip(e) != e
    except (ParseError, SchemaError):
        return True


def test_schema_conforming_process_start_is_valid():
    e = ev_proc_start(10, 0, cmdline="app.exe")
    assert _round_trip(e) == e


def test_forbidden_provider_etype_pairing():
    e = ImageEvent(1, 1, EventType.READ, 0, *_SAMPLE_FIELDS[ImageEvent])
    with pytest.raises(ParseError, match="invalid for provider"):
        _round_trip(e)


def test_event_class_mismatch():
    e = FileNameEvent(1, 1, EventType.READ, 0, 0xA, "f")
    with pytest.raises(ParseError, match="missing attribute key 'file_key'"):
        _round_trip(e)
    # a Rename's wire keys are a subset of FileRwEvent's: the extra key is lost
    e = FileRwEvent(1, 1, EventType.RENAME, 0, 0xA, 0xB, 512)
    assert _round_trip(e) == FileRenDelEvent(1, 1, EventType.RENAME, 0, 0xA, 0xB)


def test_exactly_table_schema_triples_validate():
    # Enumerate every (etype, event class) pair, the class fixing the
    # provider; exactly the 12 schema rows must round-trip, each with its
    # own class only.
    ok = set()
    for et, cls in itertools.product(EventType, _SAMPLE_FIELDS):
        if not _rejected(cls(1, 1, et, 0, *_SAMPLE_FIELDS[cls])):
            ok.add((cls.provider, et, cls))
    assert ok == {(p, t, cls) for (p, t), cls in EVENT_CLASS.items()}
    assert len(ok) == 12


def test_event_class_fixes_provider():
    for (provider, etype), cls in EVENT_CLASS.items():
        assert cls.provider is provider
        assert "provider" not in {f.name for f in dataclasses.fields(cls)}
        line = event_to_line(cls(1, 1, etype, 0, *_SAMPLE_FIELDS[cls]))
        assert f'"prov":"{provider.value}"' in line
        assert line_to_event(line.encode()).provider is provider


def test_negative_fields_flagged():
    for pid, tid, ts, field in [(-1, 1, 5, "pid"), (1, -1, 5, "tid"), (1, 1, -5, "ts")]:
        e = FileRwEvent(pid, tid, EventType.READ, ts, 1, 2, 3)
        with pytest.raises(ParseError, match=f"{field} must be an integer"):
            _round_trip(e)


def test_empty_file_name_flagged():
    with pytest.raises(SchemaError, match="attrs.file_name: empty"):
        _round_trip(ev_create(1, 0, 0xA, ""))


def test_pattern_letters():
    assert PATTERN_LETTERS[EventType.FILE_CREATE] == "C"
    assert PATTERN_LETTERS[EventType.FILE_DELETE] == "D"
    assert PATTERN_LETTERS[EventType.DELETE] == "D"
    assert PATTERN_LETTERS[EventType.READ] == "R"
    assert PATTERN_LETTERS[EventType.WRITE] == "W"
    assert PATTERN_LETTERS[EventType.RENAME] == "N"


def test_pattern_letter_defined_exactly_on_file_events():
    file_types = {t for (p, t) in EVENT_CLASS if p is Provider.FILE}
    assert set(PATTERN_LETTERS) == file_types
    assert len(file_types) == 6

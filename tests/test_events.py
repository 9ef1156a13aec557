"""Data model: event validation, pairing rules, pattern letters."""

import itertools

from peeler.events import (
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
    PATTERN_LETTERS,
    VALID_PAIRS,
    validate_event,
)
from helpers import ev_create, ev_proc_start

_SAMPLE_ATTRS = {
    ProcessAttrs: ProcessAttrs(1, 0, "app.exe", "app.exe /x"),
    FileRwAttrs: FileRwAttrs(0xA, 0xB, 512),
    FileRenDelAttrs: FileRenDelAttrs(0xA, 0xB),
    FileNameAttrs: FileNameAttrs(0xA, "c:/u/f.txt"),
    ThreadAttrs: ThreadAttrs(42),
    ImageAttrs: ImageAttrs(1024, "c:/w/x.dll"),
}


def test_schema_conforming_process_start_is_valid():
    assert validate_event(ev_proc_start(10, 0, cmdline="app.exe")) == []


def test_forbidden_provider_etype_pairing():
    e = Event(1, 1, Provider.IMAGE, EventType.READ, 0, _SAMPLE_ATTRS[ImageAttrs])
    violations = validate_event(e)
    assert violations and "invalid for provider" in violations[0]


def test_attrs_variant_mismatch():
    e = Event(1, 1, Provider.FILE, EventType.READ, 0, FileNameAttrs(0xA, "f"))
    violations = validate_event(e)
    assert violations and "variant" in violations[0]


def test_exactly_table_schema_triples_validate():
    # Enumerate every (provider, etype, attrs variant) triple; exactly the
    # 12 schema rows must validate, each with its own variant only.
    ok = set()
    for prov, et, attrs_cls in itertools.product(Provider, EventType, _SAMPLE_ATTRS):
        e = Event(1, 1, prov, et, 0, _SAMPLE_ATTRS[attrs_cls])
        if validate_event(e) == []:
            ok.add((prov, et, attrs_cls))
    assert ok == {(p, t, cls) for (p, t), cls in ATTRS_FOR.items()}
    assert len(VALID_PAIRS) == 12


def test_negative_fields_flagged():
    e = Event(-1, 1, Provider.FILE, EventType.READ, -5, FileRwAttrs(1, 2, 3))
    violations = validate_event(e)
    assert any("pid" in v for v in violations)
    assert any("timestamp" in v for v in violations)


def test_empty_file_name_flagged():
    assert validate_event(ev_create(1, 0, 0xA, "")) == ["attrs.file_name: empty"]


def test_pattern_letters():
    assert PATTERN_LETTERS[EventType.FILE_CREATE] == "C"
    assert PATTERN_LETTERS[EventType.FILE_DELETE] == "D"
    assert PATTERN_LETTERS[EventType.DELETE] == "D"
    assert PATTERN_LETTERS[EventType.READ] == "R"
    assert PATTERN_LETTERS[EventType.WRITE] == "W"
    assert PATTERN_LETTERS[EventType.RENAME] == "N"


def test_pattern_letter_defined_exactly_on_file_events():
    file_types = {t for (p, t) in VALID_PAIRS if p is Provider.FILE}
    assert set(PATTERN_LETTERS) == file_types
    assert len(file_types) == 6

"""Trace format round-trips and window partitioning."""

import dataclasses
import hashlib
import io
import json
import os
import re
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from peeler import trace_io
from peeler.commands import default_rules_path, load_rules_file
from peeler.errors import ParseError, SchemaError
from peeler.pipeline import Engine, EngineConfig, run_trace
from peeler.events import (
    EVENT_CLASS,
    EventType,
    FileNameEvent,
    FileRenDelEvent,
    FileRwEvent,
    ImageEvent,
    ProcessEvent,
    ThreadEvent,
)
from peeler.fileio import PatternKind
from peeler.synth import DEFAULT_LOCKER_PROFILE, DEFAULT_SPAWNER_PROFILE, SynthConfig, synth_trace
from peeler.trace_io import (
    TraceLabel,
    TraceManifest,
    Window,
    event_to_line,
    iter_trace,
    line_to_event,
    read_trace,
    window_partition,
    write_trace,
)
from helpers import ev_proc_start, ev_read, ev_write, random_events
from oracles import ref_event_to_line, ref_read_trace, ref_window_partition, ref_write_trace
from test_cli import HOSTILE_EDITS, _VALID_TRACE


def _manifest(events, label=TraceLabel.BENIGN, family="test", seed=1):
    duration = events[-1].timestamp if events else 0
    return TraceManifest(label, family, seed, len(events), duration)


def _round_trip(manifest, events):
    buf = io.BytesIO()
    write_trace(manifest, events, buf)
    buf.seek(0)
    return read_trace(buf)


def test_read_counts_body_lines():
    events = [ev_read(1, 0, 0xA, 0xB), ev_write(1, 5, 0xA, 0xB), ev_read(1, 9, 0xA, 0xB)]
    m2, e2 = _round_trip(_manifest(events), events)
    assert m2.event_count == 3 and len(e2) == 3


def test_decreasing_timestamps_rejected():
    events = [ev_read(1, 10, 0xA, 0xB), ev_read(1, 3, 0xA, 0xB)]
    buf = io.BytesIO()
    write_trace(TraceManifest(TraceLabel.BENIGN, "t", 0, 2, 10), events, buf)
    buf.seek(0)
    with pytest.raises(SchemaError, match="non-monotonic"):
        read_trace(buf)


def test_event_count_mismatch_rejected():
    events = [ev_read(1, 0, 0xA, 0xB)]
    buf = io.BytesIO()
    write_trace(TraceManifest(TraceLabel.BENIGN, "t", 0, 7, 10), events, buf)
    buf.seek(0)
    with pytest.raises(SchemaError, match="event_count"):
        read_trace(buf)


def test_empty_trace_is_header_only():
    buf = io.BytesIO()
    write_trace(_manifest([]), [], buf)
    assert buf.getvalue().count(b"\n") == 1
    buf.seek(0)
    m2, e2 = read_trace(buf)
    assert m2.event_count == 0 and e2 == []


def test_single_event_single_body_line():
    buf = io.BytesIO()
    write_trace(_manifest([ev_read(1, 0, 0xA, 0xB)]), [ev_read(1, 0, 0xA, 0xB)], buf)
    assert buf.getvalue().count(b"\n") == 2


def test_malformed_line_reports_line_number():
    data = b'PEELER-TRACE v1 {"label":"benign","family":"t","seed":0,"event_count":1,"duration":0,"attack_onset":0}\nnot json\n'
    with pytest.raises(ParseError) as exc:
        read_trace(io.BytesIO(data))
    assert exc.value.line == 2


def test_unknown_version_rejected():
    data = b"PEELER-TRACE v9 {}\n"
    with pytest.raises(ParseError, match="version"):
        read_trace(io.BytesIO(data))


def test_round_trip_random_traces():
    rng = np.random.default_rng(7)
    for trial in range(25):
        events = random_events(rng, int(rng.integers(0, 120)))
        manifest = TraceManifest(
            TraceLabel.CRYPTO, "Cerber", int(rng.integers(2**63)), len(events),
            (events[-1].timestamp if events else 0) + int(rng.integers(1000)),
        )
        m2, e2 = _round_trip(manifest, events)
        assert m2 == manifest
        assert e2 == events


def test_rewrite_is_byte_identical():
    rng = np.random.default_rng(11)
    events = random_events(rng, 60)
    manifest = _manifest(events)
    buf1 = io.BytesIO()
    write_trace(manifest, events, buf1)
    buf1.seek(0)
    m2, e2 = read_trace(buf1)
    buf2 = io.BytesIO()
    write_trace(m2, e2, buf2)
    assert hashlib.sha256(buf1.getvalue()).digest() == hashlib.sha256(buf2.getvalue()).digest()


GOLDEN = (
    'PEELER-TRACE v1 {"label":"crypto","family":"Cerber","seed":7,"event_count":2,'
    '"duration":1500,"attack_onset":0}\n'
    '{"ts":1000,"pid":10,"tid":100,"prov":"Process","etype":"Start","session_id":1,'
    '"parent_id":4,"image":"mal.exe","cmdline":"mal.exe /go"}\n'
    '{"ts":1500,"pid":10,"tid":100,"prov":"File","etype":"Read","file_key":"0xffffb203afd146f0",'
    '"file_object":"0xb10","io_size":4096}\n'
)


def _golden_trace():
    events = [
        ev_proc_start(10, 1000, image="mal.exe", cmdline="mal.exe /go", parent=4),
        ev_read(10, 1500, 0xFFFFB203AFD146F0, 0xB10),
    ]
    return TraceManifest(TraceLabel.CRYPTO, "Cerber", 7, 2, 1500), events


def test_golden_format_is_stable():
    buf = io.BytesIO()
    write_trace(*_golden_trace(), buf)
    assert buf.getvalue().decode("utf-8") == GOLDEN


def test_hex_and_int_keys_accepted_on_ingestion():
    line = b'{"ts":0,"pid":1,"tid":1,"prov":"File","etype":"Read","file_key":255,"file_object":"0xff","io_size":1}'
    e = line_to_event(line)
    assert e.file_key == 255 and e.file_object == 255
    assert 'file_key":"0xff"' in event_to_line(e)


def test_window_boundary_is_half_open():
    events = [ev_read(1, 0, 0xA, 0xB), ev_read(1, 4_900_000, 0xA, 0xB), ev_read(1, 5_000_000, 0xA, 0xB)]
    windows = list(window_partition(events, 5_000_000))
    assert len(windows) == 2
    assert [w.count for w in windows] == [2, 1]
    assert [w.end for w in windows] == [5_000_000, 10_000_000]


def test_window_partition_empty_input():
    assert list(window_partition([], 5_000_000)) == []


def test_window_partition_rejects_zero_length():
    with pytest.raises(ValueError):
        window_partition([], 0)


@pytest.mark.parametrize("stamps", [(10, 3), (0, 7_000_000, 6_999_999), (-1,)])
def test_window_partition_rejects_out_of_order_timestamps(stamps):
    events = [ev_read(1, ts, 0xA, 0xB) for ts in stamps]
    with pytest.raises(SchemaError, match="non-monotonic timestamp"):
        list(window_partition(events, 5_000_000))


def test_window_partition_is_disjoint_contiguous_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        events = random_events(rng, int(rng.integers(1, 400)))
        wlen = int(rng.integers(1_000, 2_000_000))
        # push later events up to 20 windows further out at a few points
        gap = 0
        for i, e in enumerate(events):
            if rng.random() < 0.02:
                gap += int(rng.integers(1, 20 * wlen))
            events[i] = dataclasses.replace(e, timestamp=e.timestamp + gap)
        # each window is yielded after its last event reaches process and
        # before the next window's first does, which cuts seen into windows
        seen = []
        windows, cuts = [], [0]
        for w in window_partition(events, wlen, seen.append):
            windows.append(w)
            cuts.append(len(seen))
        window_events = [seen[a:b] for a, b in zip(cuts, cuts[1:])]
        expected = [w for w in ref_window_partition(events, wlen) if w.events]
        assert [w.end for w in windows] == [w.end for w in expected]
        assert window_events == [w.events for w in expected]
        rejoined = [e for evs in window_events for e in evs]
        assert rejoined == events
        for w, evs in zip(windows, window_events):
            assert evs and w.count == len(evs)
            assert w.end % wlen == 0
            assert all(w.end - wlen <= e.timestamp < w.end for e in evs)
        assert all(a.end < b.end for a, b in zip(windows, windows[1:]))


_SWAP_VALUES = (True, None, 1.5, -1, 2**64, "x", "0x5", [1], {"a": 1})


def _mutate_line(line: bytes, rng) -> bytes:
    """One random mutation: swap a value's JSON type, drop a key, truncate
    the line, or flip a byte."""
    kind = int(rng.integers(4))
    if kind == 2:
        return line[: int(rng.integers(len(line)))]
    if kind == 3:
        i = int(rng.integers(len(line)))
        return line[:i] + bytes([line[i] ^ int(rng.integers(1, 256))]) + line[i + 1 :]
    prefix, _, body = line.rpartition(b" ") if line.startswith(b"PEELER") else (b"", b"", line)
    obj = json.loads(body)
    key = sorted(obj)[int(rng.integers(len(obj)))]
    if kind == 0:
        obj[key] = _SWAP_VALUES[int(rng.integers(len(_SWAP_VALUES)))]
    else:
        del obj[key]
    body = json.dumps(obj, separators=(",", ":")).encode()
    return prefix + b" " + body if prefix else body


def test_mutated_lines_raise_only_parse_or_schema_errors():
    rng = np.random.default_rng(97)
    events = random_events(rng, 30)
    buf = io.BytesIO()
    write_trace(_manifest(events), events, buf)
    lines = buf.getvalue().split(b"\n")[:-1]
    rules = load_rules_file(default_rules_path())
    rejected = 0
    for _ in range(300):
        mutated = list(lines)
        i = int(rng.integers(len(lines)))
        mutated[i] = _mutate_line(lines[i], rng)
        try:
            manifest, decoded = read_trace(io.BytesIO(b"\n".join(mutated) + b"\n"))
        except (ParseError, SchemaError):
            rejected += 1
            continue
        run_trace(Engine(EngineConfig(), rules=rules), manifest, decoded)
    assert 150 <= rejected < 300


def _decoded(read, data: bytes):
    """What a decoder makes of a file: its manifest and events, or its
    exception's type and message."""
    try:
        return read(io.BytesIO(data))
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc)


def test_decoder_matches_reference_on_fuzz_and_hostile_input():
    # the 300 files of test_mutated_lines_raise_only_parse_or_schema_errors
    rng = np.random.default_rng(97)
    events = random_events(rng, 30)
    buf = io.BytesIO()
    write_trace(_manifest(events), events, buf)
    lines = buf.getvalue().split(b"\n")[:-1]
    files = []
    for _ in range(300):
        mutated = list(lines)
        i = int(rng.integers(len(lines)))
        mutated[i] = _mutate_line(lines[i], rng)
        files.append(b"\n".join(mutated) + b"\n")
    files += [_VALID_TRACE.replace(old, new) for old, new in HOSTILE_EDITS.values()]
    outcomes = set()
    for data in files:
        decoded = _decoded(read_trace, data)
        assert decoded == _decoded(ref_read_trace, data), data[:200]
        outcomes.add(decoded[0] if type(decoded[0]) is type else TraceManifest)
    assert outcomes == {ParseError, SchemaError, TraceManifest}


PADDINGS = {
    "crlf": lambda line: line + b"\r",
    "spaces": lambda line: b"  " + line + b" ",
    "tabs_and_cr": lambda line: b"\t" + line + b"\t\r",
    "bom": lambda line: b"\xef\xbb\xbf" + line,
    "trailing_data": lambda line: line + b" 0",
}


@pytest.mark.parametrize("name", sorted(PADDINGS))
def test_padded_lines_decode_as_reference(name):
    # JSON whitespace around an event or the manifest is accepted, a BOM or
    # trailing data is not, exactly as json.loads has it
    lines = _VALID_TRACE.split(b"\n")[:-1]
    pad = PADDINGS[name]
    files = [b"\n".join([pad(lines[0])] + lines[1:]) + b"\n",
             b"\n".join(lines[:2] + [pad(lines[2])] + lines[3:]) + b"\n",
             b"\n".join(lines[:1] + [pad(line) for line in lines[1:]])]  # no final break
    for data in files:
        assert _decoded(read_trace, data) == _decoded(ref_read_trace, data)
    accepted = type(_decoded(read_trace, files[2])[0]) is TraceManifest
    assert accepted == (name in ("crlf", "spaces", "tabs_and_cr"))


@pytest.mark.parametrize("data", [
    b"", b"\n", b"\n\n", _VALID_TRACE + b"\n", _VALID_TRACE + b"garbage",
    _VALID_TRACE[:-1], _VALID_TRACE.replace(b"\n", b"\n\n", 1),
])
def test_blank_and_short_files_decode_as_reference(data):
    assert _decoded(read_trace, data) == _decoded(ref_read_trace, data)


# one line of each payload shape, numbered as read_trace numbers them
_EVERY_SHAPE = (
    b'PEELER-TRACE v1 {"label":"benign","family":"test","seed":1,"event_count":6,'
    b'"duration":6,"attack_onset":0}\n'
    b'{"ts":1,"pid":10,"tid":100,"prov":"Process","etype":"Start","session_id":1,'
    b'"parent_id":4,"image":"a.exe","cmdline":"a.exe /go"}\n'
    b'{"ts":2,"pid":10,"tid":101,"prov":"Thread","etype":"Start","parent_id":10}\n'
    b'{"ts":3,"pid":10,"tid":100,"prov":"Image","etype":"Load","image_size":4096,'
    b'"file_name":"c:/a.dll"}\n'
    b'{"ts":4,"pid":10,"tid":100,"prov":"File","etype":"FileCreate","file_object":"0xb10",'
    b'"file_name":"c:/a.docx"}\n'
    b'{"ts":5,"pid":10,"tid":100,"prov":"File","etype":"Read","file_key":"0xa",'
    b'"file_object":"0xb10","io_size":4096}\n'
    b'{"ts":6,"pid":10,"tid":100,"prov":"File","etype":"Rename","file_key":"0xa",'
    b'"file_object":"0xb10"}\n'
)
_INT_FIELDS = [(2, "session_id"), (2, "parent_id"), (3, "parent_id"), (4, "image_size"),
               (6, "ts"), (6, "pid"), (6, "tid"), (6, "file_key"), (6, "file_object"),
               (6, "io_size")]
_DEEP = b"[" * 2000 + b"]" * 2000


def _nested(depth: int) -> bytes:
    """A JSON value depth levels deep, objects and arrays in turn."""
    opens = b"".join(b"[" if i % 2 else b'{"a":' for i in range(depth))
    return opens + b"0" + b"".join(b"]" if i % 2 else b"}" for i in reversed(range(depth)))


def _set_value(lineno: int, key: str, literal: bytes, data: bytes = _EVERY_SHAPE) -> bytes:
    """data with one key of one line set to a raw JSON literal; a key the
    line lacks is added at its end."""
    lines = data.split(b"\n")
    obj = json.loads(lines[lineno - 1])
    obj[key] = "@SLOT@"
    lines[lineno - 1] = json.dumps(obj, separators=(",", ":")).encode().replace(b'"@SLOT@"', literal)
    return b"\n".join(lines)


def _edit(lineno: int, old: bytes, new: bytes) -> bytes:
    lines = _EVERY_SHAPE.split(b"\n")
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new)
    return b"\n".join(lines)


# inputs where orjson and json part ways: a value one reads and the other
# rejects or reads otherwise, nesting past json's depth, or bytes that are
# not UTF-8; each file must decode as the json-only reference has it
DECODER_CASES = {
    **{f"{key}_line{n}_{name}": _set_value(n, key, literal)
       for n, key in _INT_FIELDS
       for name, literal in (("2^64", b"%d" % 2**64), ("-2^63-1", b"%d" % (-2**63 - 1)))},
    "extra_300_digits": _set_value(6, "extra", b"9" * 300),
    "extra_5000_digits": _set_value(6, "extra", b"9" * 5000),
    "extra_1e999": _set_value(6, "extra", b"1e999"),
    "extra_nan": _set_value(6, "extra", b"NaN"),
    "extra_infinity": _set_value(6, "extra", b"Infinity"),
    "file_name_lone_surrogate": _set_value(5, "file_name", b'"\\ud800"'),
    "file_name_cesu_surrogate": _set_value(5, "file_name", b'"c:/\xed\xa0\x80"'),
    "file_name_overlong": _set_value(5, "file_name", b'"c:/\xc0\xaf"'),
    "file_name_over_u10ffff": _set_value(5, "file_name", b'"c:/\xf4\x90\x80\x80"'),
    "file_name_bom": _set_value(5, "file_name", b'"\xef\xbb\xbfc:/a.docx"'),
    "bom_before_line": _edit(6, b'{"ts":5', b'\xef\xbb\xbf{"ts":5'),
    "extra_deep_array": _set_value(6, "extra", _DEEP),
    "pid_deep_array_overwritten": _edit(6, b'{"ts":5', b'{"pid":' + _DEEP + b',"ts":5'),
    "prov_duplicate_last_valid": _edit(6, b'{"ts":5', b'{"prov":"Thread","ts":5'),
    "prov_duplicate_last_invalid": _edit(6, b'"io_size":4096}', b'"io_size":4096,"prov":"Thread"}'),
    "pid_minus_zero": _set_value(6, "pid", b"-0"),
    "io_size_minus_zero": _set_value(6, "io_size", b"-0"),
    "io_size_minus_zero_float": _set_value(6, "io_size", b"-0.0"),
    # the block loop's bound: openers beyond one "{" per line up to it, and past it
    "extra_nested_to_bound": _set_value(6, "extra", _nested(trace_io._MAX_NESTING)),
    "extra_nested_past_bound": _set_value(6, "extra", _nested(trace_io._MAX_NESTING + 1)),
}


@pytest.mark.parametrize("name", sorted(DECODER_CASES))
def test_decoder_matches_reference_where_orjson_and_json_differ(name):
    data = DECODER_CASES[name]
    assert _decoded(read_trace, data) == _decoded(ref_read_trace, data)


def test_block_loop_takes_nesting_up_to_its_bound():
    # the bound holds a line of a taken block to _MAX_NESTING + 1 levels,
    # which json reads as orjson does
    depth = trace_io._MAX_NESTING + 1
    value = json.loads(b"[" * depth + b"]" * depth)
    for _ in range(depth - 1):
        (value,) = value
    assert value == []
    (block,) = _body_blocks(DECODER_CASES["extra_nested_to_bound"])
    assert trace_io._block_events(block, 0) == read_trace(io.BytesIO(_EVERY_SHAPE))[1]
    (block,) = _body_blocks(DECODER_CASES["extra_nested_past_bound"])
    assert trace_io._block_events(block, 0) is None


def _streamed(data: bytes):
    """What iter_trace makes of a file: the events it yields, and then its
    manifest or its exception's type and message."""
    events = []
    stream = iter_trace(io.BytesIO(data))
    try:
        manifest = next(stream)
        events.extend(stream)
    except (ParseError, SchemaError) as exc:
        return events, (type(exc), str(exc))
    return events, manifest


def _body_blocks(data: bytes):
    """The blocks of event lines that iter_trace reads from data."""
    source = io.BytesIO(data)
    source.readline()
    return list(iter(lambda: source.readlines(trace_io._BLOCK_BYTES), []))


def _block_starts(data: bytes):
    """The body line indices at which iter_trace's blocks of data start."""
    return list(accumulate((len(block) for block in _body_blocks(data)), initial=0))[:-1]


def _ref_prefix(data: bytes, n: int):
    """The reference's events of data's first n body lines."""
    lines = data.split(b"\n")[1:1 + n]
    buf = io.BytesIO()
    write_trace(TraceManifest(TraceLabel.BENIGN, "t", 0, n, 2**64 - 1), [], buf)
    return ref_read_trace(io.BytesIO(buf.getvalue() + b"".join(line + b"\n" for line in lines)))[1]


def _assert_decodes_as_reference(data: bytes):
    """iter_trace gives the reference's manifest and events or its fault, and
    before a fault yields the reference's events of every line before it.
    Returns the manifest, or the fault's type and message."""
    events, outcome = _streamed(data)
    expected = _decoded(ref_read_trace, data)
    if type(outcome) is TraceManifest:
        assert (outcome, events) == expected
        return outcome
    assert outcome == expected
    at_line = re.match(r"line (\d+): ", outcome[1])
    # a fault after the last line (a count or a duration) follows every event
    assert len(events) == (max(int(at_line[1]) - 2, 0) if at_line else data.count(b"\n") - 1)
    assert events == _ref_prefix(data, len(events))
    return outcome


# where a test puts its faulty lines: (body line count, block starts) -> the first's index
FAULT_POSITIONS = {
    "first_body_line": lambda n, starts: 0,
    "block_first": lambda n, starts: starts[1],
    "block_middle": lambda n, starts: (starts[1] + starts[2]) // 2,
    "block_last": lambda n, starts: starts[2] - 1,
    "last_line": lambda n, starts: n - 1,
}


def _with_fault(data: bytes, position: str, edit):
    """data, a valid trace of three blocks or more, with edit(line) in place
    of the body line at position (and of the lines after it, where edit
    gives more than one; their first is then placed as far as it goes).

    Each new line is padded with spaces (JSON whitespace) to the length of
    the line it replaces, so the block boundaries up to it do not move."""
    lines = data.split(b"\n")
    body = lines[1:-1]
    starts = _block_starts(data)
    assert len(starts) >= 3 and lines[-1] == b""
    k = FAULT_POSITIONS[position](len(body), starts)
    new_lines = edit(body[k])
    k = min(k, len(body) - len(new_lines))
    for i, new in enumerate(new_lines):
        body[k + i] = new.ljust(len(body[k + i]))
    return b"\n".join([lines[0], *body, b""])


_HEADER, *_BODY_TEMPLATE = _VALID_TRACE.split(b"\n")[:4]  # body: ts 1000, 1200 and 1500
_HEADER_EDITS = {name for name, (old, _) in HOSTILE_EDITS.items() if old in _HEADER}
# faults besides HOSTILE_EDITS -> the body lines that hold them
BLOCK_FAULTS = {
    # three lines that json reads as three events when they are joined into
    # one array, but of which the first is not a JSON value by itself
    "split_merge": [
        b'{"ts":1200,"pid":10,"tid":100,"prov":"Thread"',
        b'"etype":"Start","parent_id":4}',
        b'{"ts":1200,"pid":10,"tid":101,"prov":"Thread","etype":"End","parent_id":4},'
        b'{"ts":1200,"pid":10,"tid":102,"prov":"Thread","etype":"Start","parent_id":4}',
    ],
    # below the ts 1000 of the lines before it, which may be another block's
    "ts_backwards": [_BODY_TEMPLATE[2].replace(b'"ts":1500', b'"ts":999')],
    # a check of the block loop that no HOSTILE_EDITS case reaches (those
    # hold the key faults for file_key, and the sign faults for io_size)
    **{f"file_object_{name}": [_BODY_TEMPLATE[2].replace(b'"file_object":"0xb10"', b'"file_object":' + value)]
       for name, value in (("negative_hex", b'"-0xb10"'), ("leading_zero", b'"0x0b10"'),
                           ("over_64_bits", b'"0x1ffffffffffffffff"'))},
    "session_id_negative": [_BODY_TEMPLATE[0].replace(b'"session_id":1', b'"session_id":-1')],
    "parent_id_negative": [_BODY_TEMPLATE[0].replace(b'"parent_id":4', b'"parent_id":-4')],
}


def _hostile_long_trace(name: str, position: str) -> bytes:
    """_VALID_TRACE's body lines repeated over several blocks, with one
    fault: a HOSTILE_EDITS edit, in the header or on the one body line that
    it edits, or the lines of a BLOCK_FAULTS case, placed at position. The
    lines before the fault hold ts 1000, and those after it ts 1500."""
    n = 600
    header = _HEADER.replace(*HOSTILE_EDITS[name]) if name in _HEADER_EDITS else _HEADER
    header = header.replace(b'"event_count":3,', b'"event_count":%d,' % n)
    body = [re.sub(rb'"ts":\d+', b'"ts":1000', _BODY_TEMPLATE[i % 3]) for i in range(n)]
    data = b"\n".join([header, *body, b""])
    if name in _HEADER_EDITS:
        return data
    if name in BLOCK_FAULTS:
        new_lines = BLOCK_FAULTS[name]
    else:
        old, new = HOSTILE_EDITS[name]
        new_lines = [next(line for line in _BODY_TEMPLATE if old in line).replace(old, new)]
    lines = _with_fault(data, position, lambda line: new_lines).split(b"\n")
    k = next(i for i, line in enumerate(lines) if line.startswith(new_lines[0]))
    for i in range(k + len(new_lines), len(lines) - 1):
        lines[i] = lines[i].replace(b'"ts":1000', b'"ts":1500')
    return b"\n".join(lines)


@pytest.mark.parametrize("name, position", [
    (name, position)
    for name in sorted(HOSTILE_EDITS) + sorted(BLOCK_FAULTS)
    for position in (["header"] if name in _HEADER_EDITS else sorted(FAULT_POSITIONS))
    if (name, position) != ("ts_backwards", "first_body_line")  # no line goes before it
])
def test_block_decode_matches_reference_on_hostile_edits(name, position):
    fault = _assert_decodes_as_reference(_hostile_long_trace(name, position))
    assert type(fault) is tuple


@pytest.mark.parametrize("position", sorted(FAULT_POSITIONS))
def test_block_decode_matches_reference_on_fuzz(position):
    rng = np.random.default_rng(sorted(FAULT_POSITIONS).index(position))
    events = random_events(rng, 500)
    buf = io.BytesIO()
    write_trace(_manifest(events), events, buf)
    faults = 0
    for _ in range(40):
        mutated = _with_fault(buf.getvalue(), position, lambda line: [_mutate_line(line, rng)])
        faults += type(_assert_decodes_as_reference(mutated)) is tuple
    assert faults >= 20


def test_first_fault_in_line_order_is_reported():
    # a JSON fault on line 2 and invalid UTF-8 on line 4: the stream reaches
    # line 2 first (the whole-file reference decoded all bytes first)
    lines = _VALID_TRACE.split(b"\n")
    lines[1] = lines[1][:-1]
    lines[3] = lines[3].replace(b"4096", b"\xff")
    with pytest.raises(ParseError) as exc:
        read_trace(io.BytesIO(b"\n".join(lines)))
    assert exc.value.line == 2 and "invalid JSON" in exc.value.reason


# two faults on one line of _EVERY_SHAPE: the line's number, and each key
# set to a value, or dropped where None
TWO_FAULTS = {
    "prov_unknown_pid_missing": (6, {"prov": "Disk", "pid": None}),
    "etype_list_pid_missing": (6, {"etype": [1], "pid": None}),
    "ts_missing_pid_bool": (6, {"ts": None, "pid": True}),
    "pid_missing_tid_negative": (6, {"pid": None, "tid": -1}),
    "pid_bool_tid_negative": (6, {"pid": True, "tid": -1}),
    "tid_float_ts_negative": (6, {"tid": 1.5, "ts": -1}),
    "pair_invalid_pid_negative": (6, {"etype": "Start", "pid": -1}),
    "pair_invalid_io_size_missing": (6, {"etype": "Start", "io_size": None}),
    "file_key_upper_io_size_bool": (6, {"file_key": "0XA", "io_size": True}),
    # one line of each other payload type, its faults on two attributes
    # (Thread has one attribute, so its other fault is on tid); on the
    # FileCreate line the ParseError must come before the SchemaError
    "process_parent_id_bool_cmdline_missing": (2, {"parent_id": True, "cmdline": None}),
    "thread_tid_float_parent_id_missing": (3, {"tid": 1.5, "parent_id": None}),
    "image_image_size_float_file_name_int": (4, {"image_size": 1.5, "file_name": 7}),
    "file_create_file_object_upper_file_name_empty": (5, {"file_object": "0XB10", "file_name": ""}),
    "rename_file_key_negative_file_object_bare": (7, {"file_key": -1, "file_object": "b10"}),
}


@pytest.mark.parametrize("name", sorted(TWO_FAULTS))
def test_line_path_names_the_first_fault_in_check_order(name):
    lineno, edits = TWO_FAULTS[name]
    lines = _EVERY_SHAPE.split(b"\n")
    obj = {**json.loads(lines[lineno - 1]), **edits}
    lines[lineno - 1] = json.dumps({k: v for k, v in obj.items() if v is not None},
                                   separators=(",", ":")).encode()
    fault = _assert_decodes_as_reference(b"\n".join(lines))
    assert fault[1].startswith(f"line {lineno}: ")


# a file key's valid spelling on line 6 of _EVERY_SHAPE, then another
# spelling of the same key on line 7, in the same block: (line 6's key,
# its value there, line 7's key, its value there)
SPELLING_PAIRS = {
    "upper_digit": ("file_key", b'"0xa"', "file_key", b'"0xA"'),
    "leading_zero": ("file_key", b'"0xa"', "file_key", b'"0x0a"'),
    "upper_prefix": ("file_key", b'"0x1"', "file_key", b'"0X1"'),
    "leading_space": ("file_key", b'"0x1"', "file_key", b'" 0x1"'),
    # the block's spellings are shared between file_key and file_object
    "object_then_key": ("file_object", b'"0xb10"', "file_key", b'"0xB10"'),
}


def _two_spellings(key6: str, value6: bytes, key7: str, value7: bytes) -> bytes:
    return _set_value(7, key7, value7, _set_value(6, key6, value6))


@pytest.mark.parametrize("name", sorted(SPELLING_PAIRS))
def test_other_spelling_of_a_checked_key_declines_the_block(name):
    # the block's memo of checked spellings holds only spellings that
    # passed, so another spelling of the same key is checked and refused
    data = _two_spellings(*SPELLING_PAIRS[name])
    (block,) = _body_blocks(data)
    assert trace_io._block_events(block, 0) is None
    key = SPELLING_PAIRS[name][2]
    fault = _assert_decodes_as_reference(data)
    assert fault == (ParseError, f"line 7: {key} is not 0x and lowercase hex digits")


def test_hex_and_int_spellings_of_a_key_decode_equal():
    data = _two_spellings("file_key", b'"0xa"', "file_key", b"10")
    (block,) = _body_blocks(data)
    events = trace_io._block_events(block, 0)
    assert events is not None and events[4].file_key == events[5].file_key == 10
    assert _assert_decodes_as_reference(data) == read_trace(io.BytesIO(data))[0]


@pytest.mark.parametrize("key, old, new", [
    ("file_object", b'"0xb10"', b'"0xB10"'),
    ("file_key", b'"0xffffb203afd146f0"', b'"0xffffb203afd146f0 "'),
])
def test_key_spelling_checked_in_one_block_is_checked_again_in_the_next(key, old, new):
    # every line holds a Read of the same two keys, and the first line of
    # the second block spells one of them as new
    n = 600
    header = _HEADER.replace(b'"event_count":3,', b'"event_count":%d,' % n)
    body = [re.sub(rb'"ts":\d+', b'"ts":1000', _BODY_TEMPLATE[2]) for _ in range(n)]
    data = _with_fault(b"\n".join([header, *body, b""]), "block_first", lambda line: [line.replace(old, new)])
    first, second = _body_blocks(data)[:2]
    assert old in first[0] and trace_io._block_events(first, 0) is not None
    assert trace_io._block_events(second, 0) is None
    fault = _assert_decodes_as_reference(data)
    assert fault == (ParseError, f"line {2 + len(first)}: {key} is not 0x and lowercase hex digits")


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_run_holds_no_event_list():
    manifest, events = synth_trace(SynthConfig(
        seed=3, archetype="benign_desktop", duration=900_000_000, intensity=20.0))
    assert len(events) > 80_000
    buf = io.BytesIO()
    write_trace(manifest, events, buf)
    data = buf.getvalue()
    del events
    rules = load_rules_file(default_rules_path())

    def streamed():
        stream = iter_trace(io.BytesIO(data))
        run_trace(Engine(EngineConfig(), rules=rules), next(stream), stream)

    def listed():
        run_trace(Engine(EngineConfig(), rules=rules), *read_trace(io.BytesIO(data)))

    decoded = _peak_bytes(lambda: read_trace(io.BytesIO(data)))
    # both runs hold the engine's state; only the listed one holds every event
    assert _peak_bytes(listed) - _peak_bytes(streamed) > decoded / 2


def _every_field_event(i: int, text: str):
    """One event of each payload shape, every int field i, every string text."""
    return [
        ProcessEvent(i, i, EventType.START, i, i, i, text, text),
        ProcessEvent(i, i, EventType.END, i, i, i, text, text),
        FileRwEvent(i, i, EventType.READ, i, i, i, i),
        FileRwEvent(i, i, EventType.WRITE, i, i, i, i),
        FileRenDelEvent(i, i, EventType.RENAME, i, i, i),
        FileRenDelEvent(i, i, EventType.DELETE, i, i, i),
        FileNameEvent(i, i, EventType.FILE_CREATE, i, i, text),
        FileNameEvent(i, i, EventType.FILE_DELETE, i, i, text),
        ThreadEvent(i, i, EventType.START, i, i),
        ThreadEvent(i, i, EventType.END, i, i),
        ImageEvent(i, i, EventType.LOAD, i, i, text),
        ImageEvent(i, i, EventType.UNLOAD, i, i, text),
    ]


# every C0 control, the JSON escapes, braces and brackets, DEL, the
# JavaScript line breaks, BMP and astral characters
_HARD_TEXT = (
    "".join(map(chr, range(0x20))) + '"\\/{}[]\x7f\u2028\u2029 é中\ufeff\uffff'
    + "\U0001f600\U00010000\U0010ffff"
)


def _writer_cases():
    """(name, manifest, events) traces that the two writers must write alike."""
    rng = np.random.default_rng(14)
    for trial in range(200):
        events = random_events(rng, int(rng.integers(0, 60)))
        yield f"random-{trial}", _manifest(events, seed=int(rng.integers(2**63))), events
    yield "golden", *_golden_trace()
    archetypes = [("crypto", {"pattern": kind, "n_files": 6}) for kind in PatternKind] + [
        ("locker", {"spawn_profile": DEFAULT_LOCKER_PROFILE}),
        ("benign_crypto_like", {"n_files": 6}),
        ("benign_spawner", {"spawn_profile": DEFAULT_SPAWNER_PROFILE}),
        ("benign_desktop", {}),
    ]
    for archetype, extra in archetypes:
        cfg = SynthConfig(seed=14, archetype=archetype, duration=10_000_000, **extra)
        yield f"synth-{archetype}-{extra.get('pattern')}", *synth_trace(cfg)
    events = _every_field_event(7, _HARD_TEXT)
    yield "hard-text", _manifest(events, family=_HARD_TEXT), events
    every = "".join(chr(c) for c in range(0x110000) if not 0xD800 <= c < 0xE000)
    events = [e for i in range(0, len(every), 4096) for e in _every_field_event(i, every[i:i + 4096])]
    yield "all-code-points", _manifest(events), events
    for value in (0, 2**63 - 1, 2**63, 2**64 - 1, -1, -(2**63)):
        events = _every_field_event(value, "x")
        yield f"int-{value}", _manifest(events), events
    # past what orjson writes: json decides the bytes or the fault
    for value in (2**64, -(2**63) - 1):
        events = _every_field_event(value, "x")
        yield f"int-{value}", _manifest(events), events
    events = _every_field_event(1, "c:/users/u/\ud800.docx")
    yield "lone-surrogate", _manifest(events), events


def _outcome(fn, *args):
    """fn's result, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type with the reference's
        return type(exc)


def _written(write, manifest, events):
    def run():
        buf = io.BytesIO()
        write(manifest, events, buf)
        return buf.getvalue()

    return _outcome(run)


def test_writer_matches_reference():
    outcomes = {}
    for name, manifest, events in _writer_cases():
        expected = _written(ref_write_trace, manifest, events)
        assert _written(write_trace, manifest, events) == expected, name
        assert _written(write_trace, manifest, iter(events)) == expected, name
        for e in events:
            assert _outcome(event_to_line, e) == _outcome(ref_event_to_line, e), name
        outcomes[name] = expected
    assert len(outcomes) == 200 + 1 + 8 + 2 + 6 + 2 + 1
    assert outcomes["golden"] == GOLDEN.encode()
    assert type(outcomes[f"int-{2**64}"]) is bytes
    assert outcomes["lone-surrogate"] is UnicodeEncodeError


def test_write_holds_no_output_copy():
    manifest, events = synth_trace(SynthConfig(
        seed=3, archetype="benign_desktop", duration=900_000_000, intensity=20.0))
    assert len(events) > 80_000
    with open(os.devnull, "wb") as sink:
        peak = _peak_bytes(lambda: write_trace(manifest, events, sink))
    # the whole-file writer holds the lines, their join and its encoding: ~36 MB
    assert peak < 1 << 20


def test_block_loop_takes_every_pair_the_writer_writes():
    # every int field at each edge of [0, 2^64), every string with braces
    # and brackets: one block, and no fallback
    events = [e for i in (0, 1, 2**63, 2**64 - 1) for e in _every_field_event(i, _HARD_TEXT)]
    assert {(e.provider, e.etype) for e in events} == set(EVENT_CLASS)
    buf = io.BytesIO()
    write_trace(_manifest(events), events, buf)
    (block,) = _body_blocks(buf.getvalue())
    assert trace_io._block_events(block, 0) == events


def test_block_loop_takes_every_archetype_trace():
    # no block falls back to line_to_event, not even those holding the
    # `bcdedit.exe /set {default} recoveryenabled No` that seed 17 injects
    # into each crypto trace
    archetypes = [("crypto", {"pattern": kind, "n_files": 40, "command_injection": True})
                  for kind in PatternKind] + [
        ("locker", {"spawn_profile": DEFAULT_LOCKER_PROFILE, "command_injection": True}),
        ("benign_crypto_like", {"n_files": 40}),
        ("benign_spawner", {"spawn_profile": DEFAULT_SPAWNER_PROFILE}),
        ("benign_desktop", {"intensity": 5.0}),
    ]
    with_braces = 0
    for archetype, extra in archetypes:
        manifest, events = synth_trace(SynthConfig(seed=17, archetype=archetype, duration=60_000_000, **extra))
        buf = io.BytesIO()
        write_trace(manifest, events, buf)
        decoded = []
        for block in _body_blocks(buf.getvalue()):
            block_events = trace_io._block_events(block, decoded[-1].timestamp if decoded else 0)
            assert block_events is not None, archetype
            decoded += block_events
            with_braces += b"{default}" in b"".join(block)
        assert decoded == events
    assert with_braces >= 4


def test_decode_holds_one_block():
    # 108k events, 13 MB of lines, decoded and let go one at a time
    def events():
        for i in range(9000):
            yield from _every_field_event(i, "c:/users/u/documents/report.docx")

    buf = io.BytesIO()
    write_trace(TraceManifest(TraceLabel.BENIGN, "t", 0, 108_000, 8999), events(), buf)
    source = io.BytesIO(buf.getvalue())
    del buf
    assert len(source.getbuffer()) > 10 << 20

    def decode():
        for _ in iter_trace(source):
            pass

    assert _peak_bytes(decode) < 1 << 20

"""Trace format round-trips, replay ordering, and window partitioning."""

import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

from peeler.commands import default_rules_path, load_rules_file
from peeler.errors import ParseError, SchemaError
from peeler.pipeline import Engine, EngineConfig, run_trace
from peeler.trace_io import (
    ReplayStats,
    TraceLabel,
    TraceManifest,
    Window,
    event_to_line,
    line_to_event,
    read_trace,
    replay,
    window_partition,
    write_trace,
)
from helpers import ev_proc_start, ev_read, ev_write, random_events
from oracles import ref_window_partition


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


def test_golden_format_is_stable():
    events = [
        ev_proc_start(10, 1000, image="mal.exe", cmdline="mal.exe /go", parent=4),
        ev_read(10, 1500, 0xFFFFB203AFD146F0, 0xB10),
    ]
    manifest = TraceManifest(TraceLabel.CRYPTO, "Cerber", 7, 2, 1500)
    buf = io.BytesIO()
    write_trace(manifest, events, buf)
    assert buf.getvalue().decode("utf-8") == GOLDEN


def test_hex_and_int_keys_accepted_on_ingestion():
    line = '{"ts":0,"pid":1,"tid":1,"prov":"File","etype":"Read","file_key":255,"file_object":"0xff","io_size":1}'
    e = line_to_event(line)
    assert e.attrs.file_key == 255 and e.attrs.file_object == 255
    assert 'file_key":"0xff"' in event_to_line(e)


def test_replay_immediate_preserves_order():
    rng = np.random.default_rng(3)
    events = random_events(rng, 500)
    seen = []
    stats = replay(events, seen.append, mode="immediate")
    assert seen == events
    assert stats.events == 500 and stats.events_per_second > 0


def test_replay_timed_zero_scale_equals_immediate():
    rng = np.random.default_rng(4)
    events = random_events(rng, 50)
    a, b = [], []
    replay(events, a.append, mode="immediate")
    replay(events, b.append, mode="timed", scale=0.0)
    assert a == b


def test_replay_timed_honors_gaps():
    import time

    events = [ev_read(1, 0, 0xA, 0xB), ev_read(1, 1_000_000, 0xA, 0xB)]
    stamps = []
    replay(events, lambda e: stamps.append(time.perf_counter()), mode="timed", scale=0.05)
    assert stamps[1] - stamps[0] >= 0.045  # 1 s gap x 0.05, minus scheduler slack


def test_replay_stops_at_consumer_failure():
    events = [ev_read(1, 0, 0xA, 0xB)] * 5
    calls = []

    def consumer(e):
        calls.append(e)
        if len(calls) == 3:
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        replay(events, consumer)
    assert len(calls) == 3


def test_replay_rejects_unknown_mode():
    with pytest.raises(ValueError):
        replay([], lambda e: None, mode="warp")


def test_window_boundary_is_half_open():
    events = [ev_read(1, 0, 0xA, 0xB), ev_read(1, 4_900_000, 0xA, 0xB), ev_read(1, 5_000_000, 0xA, 0xB)]
    windows = list(window_partition(events, 5_000_000))
    assert len(windows) == 2
    assert [len(w.events) for w in windows] == [2, 1]
    assert windows[1].start == 5_000_000 and windows[1].end == 10_000_000


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
        windows = list(window_partition(events, wlen))
        assert windows == [w for w in ref_window_partition(events, wlen) if w.events]
        rejoined = [e for w in windows for e in w.events]
        assert rejoined == events
        for w in windows:
            assert w.events
            assert w.index == w.start // wlen and w.end == w.start + wlen
            assert all(w.start <= e.timestamp < w.end for e in w.events)
        assert [w.index for w in windows] == sorted({w.index for w in windows})


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

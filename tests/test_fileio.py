"""Streaming file I/O pattern matcher vs the brute-force oracle."""

import itertools

import numpy as np
import pytest

from peeler import fileio
from peeler.events import Detector
from peeler.fileio import (
    _FTFD_T,
    _FTFRD_T,
    _POST_T,
    _PRE_T,
    _STEP,
    FileEventsList,
    FileIoMatcher,
    PatternKind,
    match_letters,
    stage3_filter,
)
from figures import (
    FIGURE_TRANSCRIPTS,
    cerber_post_overwrite,
    infinitycrypt_file_to_file,
    locky_pre_overwrite,
)
from helpers import (
    ev_create,
    ev_fdelete,
    ev_proc_start,
    ev_read,
    ev_rename,
    ev_write,
)
from oracles import ACCEPTOR_REGEXES, brute_force_alerts
from stream_gen import gen_random_stream


def run_matcher(events):
    matcher = FileIoMatcher()
    fired = []
    for i, e in enumerate(events):
        alert = matcher.ingest(e)
        if alert is not None:
            fired.append((i, PatternKind(alert.trigger), alert))
    return matcher, fired


# --- match_letters ---------------------------------------------------------


def test_match_letters_examples():
    assert match_letters("CRRWWNDC", multi_file=False) is PatternKind.MEM_TO_FILE_POST_OVERWRITE
    assert match_letters("CRWRWD", multi_file=True) is PatternKind.FILE_TO_FILE_DELETE
    assert match_letters("CRW", multi_file=False) is None
    assert match_letters("CNDCRW", multi_file=False) is PatternKind.MEM_TO_FILE_PRE_OVERWRITE
    assert match_letters("CRCWNDC", multi_file=True) is PatternKind.FILE_TO_FILE_RENAME_DELETE


def test_match_letters_multi_file_gates_file_to_file_kinds():
    assert match_letters("CRWRWD", multi_file=False) is None
    assert match_letters("CRCWNDC", multi_file=False) is None


def test_mem_to_file_kinds_win_ties():
    # "CRWNDC" is in both the post-overwrite and rename-delete languages.
    assert match_letters("CRWNDC", multi_file=True) is PatternKind.MEM_TO_FILE_POST_OVERWRITE


def _regex_reference(letters, multi_file):
    for kind, rx, needs_multi in ACCEPTOR_REGEXES:
        if needs_multi and not multi_file:
            continue
        if rx.fullmatch(letters):
            return kind
    return None


def test_match_letters_equals_regexes_exhaustive():
    alphabet = "CRWND"
    for n in range(0, 8):
        for tup in itertools.product(alphabet, repeat=n):
            s = "".join(tup)
            for multi in (False, True):
                assert match_letters(s, multi) is _regex_reference(s, multi), (s, multi)


def test_match_letters_equals_regexes_random_long():
    rng = np.random.default_rng(21)
    alphabet = np.array(list("CRWND"))
    for _ in range(4000):
        n = int(rng.integers(8, 40))
        s = "".join(alphabet[rng.integers(0, 5, size=n)])
        for multi in (False, True):
            assert match_letters(s, multi) is _regex_reference(s, multi), (s, multi)


# --- identity resolution ---------------------------------------------------


def test_create_then_read_share_identity():
    matcher, _ = run_matcher([ev_create(1, 0, 0xA, "c:/u/d/D_186.wav"), ev_read(1, 1, 0xA, 0xB)])
    [lst] = matcher.lists()
    assert lst.file_objects == {0xA, 0xB}
    assert lst.file_keys == {0xA}
    assert lst.letters == "CR"


def test_distinct_creates_make_distinct_identities():
    matcher, _ = run_matcher([ev_create(1, 0, 0xA, "c:/u/d/x"), ev_create(1, 1, 0xB, "c:/u/d/y")])
    assert [(l.file_objects, l.file_names) for l in matcher.lists()] == [
        ({0xA}, {"c:/u/d/x"}),
        ({0xB}, {"c:/u/d/y"}),
    ]


def test_rename_bridges_new_create_into_lineage():
    matcher, _ = run_matcher([
        ev_create(1, 0, 0xA, "x"),
        ev_rename(1, 1, 0xA, 0xB),
        ev_create(1, 2, 0xB, "x.enc"),
    ])
    [lst] = matcher.lists()
    assert lst.file_names == {"x", "x.enc"}
    assert lst.letters == "CNC"


# --- ingest on the figure transcripts --------------------------------------


@pytest.mark.parametrize("name,builder,kind,fire_index", FIGURE_TRANSCRIPTS)
def test_figure_transcripts_fire(name, builder, kind, fire_index):
    events = builder()
    _, fired = run_matcher(events)
    assert len(fired) == 1
    idx, got_kind, alert = fired[0]
    assert idx == fire_index
    assert got_kind.value == kind
    assert alert.detector is Detector.FILE_IO_PATTERN
    assert alert.pid == events[0].pid


def test_unique_etype_gate_blocks_short_lists():
    events = [
        ev_create(1, 0, 0xA, "c:/u/d/f"),
        ev_read(1, 1, 0xA, 0xB),
        ev_read(1, 2, 0xA, 0xB),
        ev_write(1, 3, 0xA, 0xB),
    ]
    _, fired = run_matcher(events)
    assert fired == []


def test_one_alert_per_file():
    events = cerber_post_overwrite()
    # keep encrypting the same lineage after the match
    extra = [
        ev_read(2816, 9000, 0xFFFFB203AFD146F0, 0xB10),
        ev_write(2816, 9100, 0xFFFFB203AFD146F0, 0xB20),
        ev_rename(2816, 9200, 0xFFFFB203AFD146F0, 0xE00),
    ]
    _, fired = run_matcher(events + extra)
    assert len(fired) == 1


def test_single_object_lineage_cannot_fire_file_to_file():
    # letters CRRWWD form a file-to-file word, but every event shares one
    # FileObject, so only memory-to-file kinds are eligible and none match.
    pid, a = 31, 0x500
    events = [
        ev_create(pid, 0, a, "c:/u/d/f"),
        ev_read(pid, 1, a, a),
        ev_read(pid, 2, a, a),
        ev_write(pid, 3, a, a),
        ev_write(pid, 4, a, a),
        ev_fdelete(pid, 5, a, "c:/u/d/f"),
    ]
    matcher, fired = run_matcher(events)
    assert fired == []
    assert all(len(l.file_objects) == 1 for l in matcher.lists())


def test_compression_tool_flow_never_alerts():
    # read source intact, write a fresh archive: two disjoint lineages
    pid = 60
    events = []
    ts = 0
    events.append(ev_create(pid, ts, 0x10, "c:/u/docs/src.txt"))
    events.append(ev_create(pid, ts + 1, 0x20, "c:/u/docs/src.zip"))
    for k in range(30):
        events.append(ev_read(pid, ts + 2 + 2 * k, 0x10, 0x11))
        events.append(ev_write(pid, ts + 3 + 2 * k, 0x20, 0x21))
    _, fired = run_matcher(events)
    assert fired == []


# --- stage 3 filters --------------------------------------------------------


def _matched_list(events):
    matcher = FileIoMatcher()
    for e in events:
        matcher.ingest(e)
    return matcher.lists()[0], matcher


def test_stage3_same_dir_single_pid_keeps():
    lst, m = _matched_list(cerber_post_overwrite())
    assert stage3_filter(lst, m.pid_images)


def test_stage3_system_pid_exempt():
    events = cerber_post_overwrite()
    events.insert(3, ev_read(4, events[3].timestamp, 0xFFFFB203AFD146F0, 0xB10))
    _, fired = run_matcher(events)
    assert len(fired) == 1
    assert fired[0][2].pid == 2816  # system pid never blamed


def test_stage3_two_ordinary_pids_suppress():
    events = cerber_post_overwrite()
    events.insert(3, ev_read(9876, events[3].timestamp, 0xFFFFB203AFD146F0, 0xB10))
    _, fired = run_matcher(events)
    assert fired == []


def test_stage3_explorer_exempt_when_image_known():
    events = [ev_proc_start(700, 0, image=r"C:\Windows\explorer.exe")]
    tail = cerber_post_overwrite(t0=10)
    tail.insert(3, ev_read(700, tail[3].timestamp, 0xFFFFB203AFD146F0, 0xB10))
    events += tail
    _, fired = run_matcher(events)
    assert len(fired) == 1


def test_stage3_explorer_not_exempt_when_image_unknown():
    tail = cerber_post_overwrite(t0=10)
    tail.insert(3, ev_read(700, tail[3].timestamp, 0xFFFFB203AFD146F0, 0xB10))
    _, fired = run_matcher(tail)
    assert fired == []


def test_stage3_cross_directory_suppresses():
    events = cerber_post_overwrite()
    # the renamed file lands in a different directory
    events[-2] = ev_fdelete(2816, events[-2].timestamp, 0xE00, "c:/users/u/music/D_186.wav")
    events[-1] = ev_create(2816, events[-1].timestamp, 0xE00, "c:/other/place/D_186.enc")
    _, fired = run_matcher(events)
    assert fired == []


# --- state hygiene ----------------------------------------------------------


def test_ingest_does_not_touch_other_lineages():
    matcher = FileIoMatcher()
    for e in locky_pre_overwrite(pid=100)[:4]:
        matcher.ingest(e)
    before = [(id(l), l.letters) for l in matcher.lists()]
    matcher.ingest(ev_create(200, 10_000, 0x9999, "c:/u/pictures/other.png"))
    after = [(id(l), l.letters) for l in matcher.lists()[:-1]]
    assert before == after


def test_idle_identities_evicted(monkeypatch):
    monkeypatch.setattr(fileio, "MAX_IDLE_EVENTS", 10)
    monkeypatch.setattr(fileio, "MAX_IDLE_US", 10**12)
    monkeypatch.setattr(fileio, "SWEEP_INTERVAL", 4)
    matcher = FileIoMatcher()
    matcher.ingest(ev_create(1, 0, 0xA, "c:/u/d/old.txt"))
    for k in range(40):
        matcher.ingest(ev_read(2, 10 + k, 0x1000 + k, 0x1000 + k))
    names = {n for l in matcher.lists() for n in l.file_names}
    assert "c:/u/d/old.txt" not in names


def test_time_based_eviction(monkeypatch):
    monkeypatch.setattr(fileio, "MAX_IDLE_EVENTS", 10**9)
    monkeypatch.setattr(fileio, "MAX_IDLE_US", 1000)
    monkeypatch.setattr(fileio, "SWEEP_INTERVAL", 2)
    matcher = FileIoMatcher()
    matcher.ingest(ev_create(1, 0, 0xA, "c:/u/d/old.txt"))
    matcher.ingest(ev_read(2, 5_000, 0xB, 0xB))
    matcher.ingest(ev_read(2, 5_001, 0xC, 0xC))
    matcher.ingest(ev_read(2, 5_002, 0xD, 0xD))
    names = {n for l in matcher.lists() for n in l.file_names}
    assert "c:/u/d/old.txt" not in names


# --- product automaton --------------------------------------------------------


def _component_walks(letters):
    """Walk each acceptor table on its own; -1 is dead and stays dead."""
    states = []
    for table in (_POST_T, _PRE_T, _FTFD_T, _FTFRD_T):
        s = 0
        for ch in letters:
            if s < 0:
                break
            s = table[s]["CRWND".index(ch)]
        states.append(s)
    return tuple(states)


def test_product_state_equals_component_walks():
    rng = np.random.default_rng(5)
    alphabet = np.array(list("CRWND"))
    # bias towards encryption-shaped words so accepting states are reached
    shapes = ["CRRWWNDC", "CNDCRRWW", "CRRCWWD", "CRRCWWNDC"]
    strings = ["".join(t) for n in range(6) for t in itertools.product("CRWND", repeat=n)]
    for _ in range(3000):
        s = "".join(alphabet[rng.integers(0, 5, size=int(rng.integers(0, 30)))])
        strings.append(s)
        strings.append(shapes[int(rng.integers(0, 4))][: int(rng.integers(1, 10))] + s)
    for letters in strings:
        lst = FileEventsList()
        for ch in letters:
            lst.state = _STEP[lst.state][ch]
        assert lst.dfa == _component_walks(letters), letters
    for seed in range(100):
        matcher, _ = run_matcher(gen_random_stream(seed))
        for lst in matcher.lists():
            assert lst.dfa == _component_walks(lst.letters), (seed, lst.letters)


def test_lineage_starting_with_read_is_dead_for_good():
    a = 0xFFFFB203AFD146F0
    # the read registers the create's FileObject, so the whole cerber flow
    # that follows joins a lineage whose first letter is R
    events = [ev_read(2816, 0, 0x77, a)] + cerber_post_overwrite(t0=10)
    matcher, fired = run_matcher(events)
    assert fired == [] == brute_force_alerts(events)
    [lst] = [l for l in matcher.lists() if a in l.file_objects]
    assert "c:/users/u/music/D_186.wav" in lst.file_names
    assert lst.letters == "R"
    assert lst.dfa == (-1, -1, -1, -1)
    assert lst.matched is None


# --- oracle equivalence ------------------------------------------------------


def test_figures_match_oracle():
    for name, builder, _, _ in FIGURE_TRANSCRIPTS:
        events = builder()
        _, fired = run_matcher(events)
        assert [(i, k) for i, k, _ in fired] == brute_force_alerts(events), name


def test_streaming_matcher_equals_oracle_on_random_streams():
    disagreements = []
    for seed in range(300):
        events = gen_random_stream(seed)
        _, fired = run_matcher(events)
        got = [(i, k) for i, k, _ in fired]
        expected = brute_force_alerts(events)
        if got != expected:
            disagreements.append((seed, got, expected))
    assert not disagreements, disagreements[:3]


def test_random_streams_do_fire_and_do_suppress():
    # guard the generator itself: both outcomes must be represented
    outcomes = {True: 0, False: 0}
    for seed in range(300):
        outcomes[bool(brute_force_alerts(gen_random_stream(seed)))] += 1
    assert outcomes[True] >= 40
    assert outcomes[False] >= 40

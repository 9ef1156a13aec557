"""Streaming per-file I/O pattern matcher for crypto-ransomware detection.

Every File-provider event is folded into the events list of the user file it
operates on; the letter sequence of each list (C/R/W/N/D) is matched online
against four encryption-shaped acceptors:

    post-overwrite   C (R+ W+ R*)+ N D C     overwrite in place, rename after
    pre-overwrite    C N D C (R+ W+ R*)+     rename first, then overwrite
    file-to-file     C+ (R+ C? W+ R*)+ D     copy to new file, delete original
    file-to-file+ren C+ (R+ C? W+ R*)+ N D C copy to new file, rename it too

The acceptors are reconstructions from observed ransomware I/O transcripts
(Cerber, Locky, InfinityCrypt, WannaCry); they are the whole-sequence
languages of a file's event list, matched anchored at the list's first event.
The four acceptor tables are compiled at import into one product DFA over
their reachable joint states, with each state's alert kind precomputed, so
matching is one table step per event and each list carries one state. All
four acceptors anchor on C, so a lineage whose first letter is R/W/N/D is
dead from its first event and is never matched: it gets no events list,
only a tombstone that keeps its keys registered (so its later events stay
dead) and its eviction stamps (so it is evicted like a list).

A pid is exempt from the multi-process filter when it is in exempt_pids:
pid 4, the system process, always is, and so is any pid whose latest image
is "system" or explorer.exe.
"""

from __future__ import annotations

import sys
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple, Union

from .events import (
    Alert,
    Detector,
    Event,
    EventType,
    PATTERN_LETTERS,
    Provider,
)


class PatternKind(Enum):
    MEM_TO_FILE_POST_OVERWRITE = "MemToFilePostOverwrite"
    MEM_TO_FILE_PRE_OVERWRITE = "MemToFilePreOverwrite"
    FILE_TO_FILE_DELETE = "FileToFileDelete"
    FILE_TO_FILE_RENAME_DELETE = "FileToFileRenameDelete"


_LETTER_INDEX = {"C": 0, "R": 1, "W": 2, "N": 3, "D": 4}

# DFA transition tables, one row per state, one column per letter CRWND;
# -1 is the dead state. Accepting states listed alongside.
_POST_T = (
    (1, -1, -1, -1, -1),
    (-1, 2, -1, -1, -1),
    (-1, 2, 3, -1, -1),
    (-1, 4, 3, 5, -1),
    (-1, 4, 3, 5, -1),
    (-1, -1, -1, -1, 6),
    (7, -1, -1, -1, -1),
    (-1, -1, -1, -1, -1),
)
_POST_ACCEPT = frozenset({7})

_PRE_T = (
    (1, -1, -1, -1, -1),
    (-1, -1, -1, 2, -1),
    (-1, -1, -1, -1, 3),
    (4, -1, -1, -1, -1),
    (-1, 5, -1, -1, -1),
    (-1, 5, 6, -1, -1),
    (-1, 7, 6, -1, -1),
    (-1, 7, 6, -1, -1),
)
_PRE_ACCEPT = frozenset({6, 7})

_FTFD_T = (
    (1, -1, -1, -1, -1),
    (1, 2, -1, -1, -1),
    (3, 2, 4, -1, -1),
    (-1, -1, 4, -1, -1),
    (-1, 5, 4, -1, 6),
    (3, 5, 4, -1, 6),
    (-1, -1, -1, -1, -1),
)
_FTFD_ACCEPT = frozenset({6})

_FTFRD_T = (
    (1, -1, -1, -1, -1),
    (1, 2, -1, -1, -1),
    (3, 2, 4, -1, -1),
    (-1, -1, 4, -1, -1),
    (-1, 5, 4, 6, -1),
    (3, 5, 4, 6, -1),
    (-1, -1, -1, -1, 7),
    (8, -1, -1, -1, -1),
    (-1, -1, -1, -1, -1),
)
_FTFRD_ACCEPT = frozenset({8})

# Check order is the enum order; memory-to-file kinds take precedence when a
# sequence is in several languages.
_ACCEPTORS = (
    (PatternKind.MEM_TO_FILE_POST_OVERWRITE, _POST_T, _POST_ACCEPT, False),
    (PatternKind.MEM_TO_FILE_PRE_OVERWRITE, _PRE_T, _PRE_ACCEPT, False),
    (PatternKind.FILE_TO_FILE_DELETE, _FTFD_T, _FTFD_ACCEPT, True),
    (PatternKind.FILE_TO_FILE_RENAME_DELETE, _FTFRD_T, _FTFRD_ACCEPT, True),
)


def _build_product():
    """Compile the four acceptors into one DFA over their joint states.

    Breadth-first from the joint start state, so state 0 is the start and
    only reachable joint states get a row. Returns the step table (one
    {letter: next state} row per state), each state's four component states
    in _ACCEPTORS order, and each state's hit for (single-file, multi-file):
    the first accepting kind in enum order that the FileObject count allows.
    """
    tables = [table for _, table, _, _ in _ACCEPTORS]
    components = [(0, 0, 0, 0)]
    index = {components[0]: 0}
    step = []
    for comp in components:  # grows while it is walked
        row = {}
        for letter, li in _LETTER_INDEX.items():
            nxt = tuple(t[s][li] if s >= 0 else -1 for t, s in zip(tables, comp))
            if nxt not in index:
                index[nxt] = len(components)
                components.append(nxt)
            row[letter] = index[nxt]
        step.append(row)
    def first_hit(comp, multi_file):
        return next((
            kind
            for (kind, _, accept, needs_multi), s in zip(_ACCEPTORS, comp)
            if s in accept and (multi_file or not needs_multi)
        ), None)

    hit = [(first_hit(comp, False), first_hit(comp, True)) for comp in components]
    return tuple(step), tuple(components), tuple(hit), index[(-1, -1, -1, -1)]


_STEP, _COMPONENTS, _HIT, _DEAD = _build_product()

# Members as module globals and letters keyed by each etype's wire string:
# on CPython 3.11 a load through the Enum class goes through
# EnumType.__getattr__, and a member's hash is a Python-level call.
_FILE, _PROCESS = Provider.FILE, Provider.PROCESS
_FILE_CREATE, _FILE_DELETE = EventType.FILE_CREATE, EventType.FILE_DELETE
_LETTERS = {et._value_: letter for et, letter in PATTERN_LETTERS.items()}


def match_letters(letters: str, multi_file: bool) -> Optional[PatternKind]:
    """Match a complete letter sequence against the four acceptors.

    File-to-file kinds only apply when multi_file is set (the list spans at
    least two FileObject keys). Returns the first matching kind in enum
    order, or None.
    """
    state = 0
    for ch in letters:
        state = _STEP[state][ch]
    return _HIT[state][multi_file]


class FileEventsList:
    """One user file that began with a FileCreate: its identity and its
    matching state.

    A file accumulates several FileObject keys (per-open handles) and names
    (renames). Of the handles only the create's is kept, with multi_file set
    once another one shows up: the file-to-file acceptors read no more. Of
    the names only their shared parent directory is kept, None once two
    differ: the directory filter reads no more. The letters are folded into
    the product DFA state as they arrive, so per-file state does not grow
    with its events. The flag, the directory and the contributing pids stop
    changing once the list has matched or is dead in all four acceptors,
    since none of them can change an alert after that.
    """

    __slots__ = (
        "file_object",
        "multi_file",
        "directory",
        "contributing_pids",
        "state",
        "matched",
        "kept_to_sweep",
        "last_seen_ts",
    )

    def __init__(self, file_object: int, directory: str) -> None:
        self.file_object = file_object
        self.multi_file = False
        self.directory: Optional[str] = directory
        self.contributing_pids: Set[int] = set()
        self.state = 0  # product DFA state; 0 is the start
        self.matched: Optional[PatternKind] = None
        self.kept_to_sweep = 0
        self.last_seen_ts = 0

    @property
    def dfa(self) -> Tuple[int, int, int, int]:
        """The four acceptors' states, in _ACCEPTORS order; -1 is dead."""
        return _COMPONENTS[self.state]


class _Tombstone:
    """A lineage whose first letter is not C, which no acceptor can match:
    only its eviction stamps are kept."""

    __slots__ = ("kept_to_sweep", "last_seen_ts")
    state = _DEAD
    matched = None


def _parent_dir(path: str) -> str:
    p = path.lower().replace("\\", "/").rstrip("/")
    return p.rpartition("/")[0]


_Record = Union[FileEventsList, _Tombstone]

_EXEMPT_IMAGES = frozenset({"system", "explorer.exe"})
_SYSTEM_PID = 4


def blame(lst: FileEventsList, pid: int, exempt_pids: Set[int]) -> Optional[int]:
    """False-positive suppression and blame in one pass over the list.

    Returns None to suppress the hit when the list's file names do not share
    one parent directory (its directory is None), or when more than one
    process contributed events after exempting the members of exempt_pids:
    the system process (pid 4) and the pids whose latest image is "system"
    or explorer.exe.
    Otherwise returns the pid the alert names: the one non-exempt
    contributor, or pid, the hit event's, when every contributor is exempt.
    """
    if lst.directory is None:
        return None
    blamed = None
    for p in lst.contributing_pids:
        if p not in exempt_pids:
            if blamed is not None:
                return None
            blamed = p
    return pid if blamed is None else blamed


# Eviction policy for idle per-file state: a list idle for more than
# MAX_IDLE_EVENTS File events or MAX_IDLE_US of trace time is dropped at the
# next sweep, one every SWEEP_INTERVAL File events; unbounded per-file state
# would otherwise leak on long benign traces.
MAX_IDLE_EVENTS = 1_000_000
MAX_IDLE_US = 600_000_000
SWEEP_INTERVAL = 65_536


class FileIoMatcher:
    """Streaming matcher state. Confine one instance to one consumer task.

    The three key maps point each FileObject, file_key and file name at its
    lineage's record: a FileEventsList, or a tombstone for a dead-born
    lineage. They are the only registry: lists() gives the FileEventsLists
    they reach, and a list that no key reaches, which can never alert, is
    freed at once. exempt_pids is the one set of pids that the multi-process
    filter does not count: the system process, pid 4, from the start and for
    good, and each pid whose latest image is "system" or explorer.exe.
    """

    def __init__(self) -> None:
        self._by_object: Dict[int, _Record] = {}
        self._by_key: Dict[int, _Record] = {}
        self._by_name: Dict[str, _Record] = {}
        self.exempt_pids: Set[int] = {_SYSTEM_PID}
        self._count = 0

    def lists(self) -> List[FileEventsList]:
        maps = (self._by_object, self._by_key, self._by_name)
        return list(dict.fromkeys(r for m in maps for r in m.values() if isinstance(r, FileEventsList)))

    def ingest(self, e: Event) -> Optional[Alert]:
        """Fold one event into matcher state; returns an alert on detection.

        Non-File events are accepted and ignored, except that a Process
        Start/End event that reports an image decides whether its pid is
        exempt, until the next one for that pid. Pid 4 stays exempt whatever
        image it reports.
        """
        prov = e.provider
        if prov is not _FILE:
            if prov is _PROCESS:
                image = e.image_file_name
                if image:
                    if image.replace("\\", "/").rpartition("/")[2].lower() in _EXEMPT_IMAGES:
                        self.exempt_pids.add(e.pid)
                    elif e.pid != _SYSTEM_PID:
                        self.exempt_pids.discard(e.pid)
            return None

        self._count = count = self._count + 1
        if count % SWEEP_INTERVAL == 0:
            self._sweep(e.timestamp)

        # Resolve the event's lineage and register its keys. A
        # FileCreate/FileDelete joins on its FileObject, then its file name.
        # Read/Write/Rename/Delete carry (file_key, file_object): the
        # file_key joins against the create event's FileObject first, then
        # against previously seen file_keys, then the event's own FileObject.
        # A record stays registered when it dies, so a later event on its
        # lineage resolves to it and stays dead.
        et = e.etype
        obj = e.file_object
        by_object = self._by_object
        name = None
        if et is _FILE_CREATE or et is _FILE_DELETE:
            name = e.file_name
            lst = by_object.get(obj)
            if lst is None:
                lst = self._by_name.get(name)
                if lst is None:
                    if et is _FILE_CREATE:
                        # interned: a trace's files share few directories
                        lst = FileEventsList(obj, sys.intern(_parent_dir(name)))
                    else:
                        lst = _Tombstone()  # a lineage that begins with D is dead
            self._by_name[name] = lst
        else:
            fk = e.file_key
            lst = by_object.get(fk)
            if lst is None:
                lst = self._by_key.get(fk)
                if lst is None:
                    lst = by_object.get(obj)
                    if lst is None:
                        lst = _Tombstone()  # no acceptor begins with R, W, N or D
            self._by_key[fk] = lst
        by_object[obj] = lst
        # the last sweep k that keeps the record by its count (count + MAX_IDLE_EVENTS
        # >= k * SWEEP_INTERVAL): a small int that records share, not one per record
        lst.kept_to_sweep = (count + MAX_IDLE_EVENTS) // SWEEP_INTERVAL
        lst.last_seen_ts = e.timestamp
        state = lst.state
        if state == _DEAD or lst.matched is not None:
            return None

        if obj != lst.file_object:
            lst.multi_file = True
        # a list with no pid yet is new: its directory came from this very name
        if (name is not None and lst.contributing_pids and lst.directory is not None
                and _parent_dir(name) != lst.directory):
            lst.directory = None
        lst.contributing_pids.add(e.pid)
        lst.state = state = _STEP[state][_LETTERS[et._value_]]
        hit = _HIT[state][lst.multi_file]
        if hit is None:
            return None
        pid = blame(lst, e.pid, self.exempt_pids)
        if pid is None:
            return None
        lst.matched = hit
        return Alert(
            detector=Detector.FILE_IO_PATTERN,
            pid=pid,
            trigger=hit.value,
            event_timestamp=e.timestamp,
        )

    def _sweep(self, now_ts: int) -> None:
        """Drop every record idle for more than MAX_IDLE_EVENTS File events or
        MAX_IDLE_US of trace time, with every key that points at it."""
        sweep = self._count // SWEEP_INTERVAL
        min_ts = now_ts - MAX_IDLE_US

        def fresh(records):
            return {k: r for k, r in records.items()
                    if r.kept_to_sweep >= sweep and r.last_seen_ts >= min_ts}

        self._by_object = fresh(self._by_object)
        self._by_key = fresh(self._by_key)
        self._by_name = fresh(self._by_name)

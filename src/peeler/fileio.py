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
four acceptors anchor on C, so a list whose first letter is R/W/N/D enters
the all-dead state at once and is never matched again.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Mapping, Optional, Set, Tuple

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
    """One user file: its identity, its letters and its matching state.

    A file accumulates several FileObject keys (per-open handles), names
    (renames) and file_keys (a stable per-file join key); the sets only grow
    for the lifetime of the list. The letters and contributing pids stop growing
    once the list has matched or is dead in all four acceptors, since
    neither can change an alert after that.
    """

    __slots__ = (
        "file_objects",
        "file_names",
        "file_keys",
        "contributing_pids",
        "_letters",
        "state",
        "matched",
        "last_seen_count",
        "last_seen_ts",
    )

    def __init__(self) -> None:
        self.file_objects: Set[int] = set()
        self.file_names: Set[str] = set()
        self.file_keys: Set[int] = set()
        self.contributing_pids: Set[int] = set()
        self._letters: List[str] = []
        self.state = 0  # product DFA state; 0 is the start
        self.matched: Optional[PatternKind] = None
        self.last_seen_count = 0
        self.last_seen_ts = 0

    @property
    def letters(self) -> str:
        return "".join(self._letters)

    @property
    def dfa(self) -> Tuple[int, int, int, int]:
        """The four acceptors' states, in _ACCEPTORS order; -1 is dead."""
        return _COMPONENTS[self.state]


def _parent_dir(path: str) -> str:
    p = path.lower().replace("\\", "/").rstrip("/")
    return p.rpartition("/")[0]


_EXEMPT_IMAGES = frozenset({"system", "explorer.exe"})
_SYSTEM_PID = 4


def is_exempt(pid: int, pid_images: Mapping[int, str]) -> bool:
    """True for the system process (pid 4 / image "system") and explorer.exe."""
    return pid == _SYSTEM_PID or pid_images.get(pid, "") in _EXEMPT_IMAGES


def stage3_filter(lst: FileEventsList, pid_images: Mapping[int, str]) -> bool:
    """False-positive suppression; True means keep the alert.

    Suppresses when the list's file names do not share one parent directory,
    or when more than one process contributed events after exempting the
    system process (pid 4 / image "system") and explorer.exe.
    """
    names = lst.file_names
    if len(names) > 1:
        parents = {_parent_dir(n) for n in names}
        if len(parents) > 1:
            return False
    involved = 0
    for pid in lst.contributing_pids:
        if not is_exempt(pid, pid_images):
            involved += 1
            if involved > 1:
                return False
    return True


# Eviction policy for idle per-file state: a list idle for more than
# MAX_IDLE_EVENTS File events or MAX_IDLE_US of trace time is dropped at the
# next sweep, one every SWEEP_INTERVAL File events; unbounded per-file state
# would otherwise leak on long benign traces.
MAX_IDLE_EVENTS = 1_000_000
MAX_IDLE_US = 600_000_000
SWEEP_INTERVAL = 65_536


class FileIoMatcher:
    """Streaming matcher state. Confine one instance to one consumer task."""

    def __init__(self) -> None:
        self._by_object: Dict[int, FileEventsList] = {}
        self._by_key: Dict[int, FileEventsList] = {}
        self._by_name: Dict[str, FileEventsList] = {}
        self._lists: List[FileEventsList] = []
        self._pid_images: Dict[int, str] = {}
        self._count = 0

    @property
    def pid_images(self) -> Mapping[int, str]:
        return self._pid_images

    def lists(self) -> List[FileEventsList]:
        return list(self._lists)

    def _new_list(self) -> FileEventsList:
        lst = FileEventsList()
        self._lists.append(lst)
        return lst

    def _resolve(self, e: Event) -> FileEventsList:
        attrs = e.attrs
        et = e.etype
        if et is EventType.FILE_CREATE or et is EventType.FILE_DELETE:
            obj = attrs.file_object
            name = attrs.file_name
            lst = self._by_object.get(obj)
            if lst is None:
                lst = self._by_name.get(name)
            if lst is None:
                lst = self._new_list()
            lst.file_objects.add(obj)
            self._by_object[obj] = lst
            lst.file_names.add(name)
            self._by_name[name] = lst
            return lst
        # Read/Write/Rename/Delete carry (file_key, file_object): the
        # file_key joins against the create event's FileObject first, then
        # against previously seen file_keys, then the event's own FileObject.
        fk = attrs.file_key
        obj = attrs.file_object
        lst = self._by_object.get(fk)
        if lst is None:
            lst = self._by_key.get(fk)
        if lst is None:
            lst = self._by_object.get(obj)
        if lst is None:
            lst = self._new_list()
        lst.file_keys.add(fk)
        self._by_key[fk] = lst
        lst.file_objects.add(obj)
        self._by_object[obj] = lst
        return lst

    def ingest(self, e: Event) -> Optional[Alert]:
        """Fold one event into matcher state; returns an alert on detection.

        Non-File events are accepted and ignored, except that Process
        Start/End events feed the pid-to-image map used by the
        system/explorer exemption.
        """
        if e.provider is not Provider.FILE:
            if e.provider is Provider.PROCESS:
                image = e.attrs.image_file_name
                if image:
                    self._pid_images[e.pid] = image.replace("\\", "/").rpartition("/")[2].lower()
            return None

        self._count += 1
        if self._count % SWEEP_INTERVAL == 0:
            self._sweep(e.timestamp)

        # A dead list stays registered, so a later event on its lineage
        # resolves to it and stays dead.
        lst = self._resolve(e)
        lst.last_seen_count = self._count
        lst.last_seen_ts = e.timestamp
        state = lst.state
        if state == _DEAD or lst.matched is not None:
            return None

        letter = PATTERN_LETTERS[e.etype]
        lst._letters.append(letter)
        lst.contributing_pids.add(e.pid)
        lst.state = state = _STEP[state][letter]
        hit = _HIT[state][len(lst.file_objects) >= 2]
        if hit is None or not stage3_filter(lst, self._pid_images):
            return None
        lst.matched = hit
        return Alert(
            detector=Detector.FILE_IO_PATTERN,
            pid=self._offending_pid(lst, e),
            trigger=hit.value,
            event_timestamp=e.timestamp,
            emitted_timestamp=e.timestamp,
        )

    def _offending_pid(self, lst: FileEventsList, e: Event) -> int:
        candidates = [p for p in lst.contributing_pids if not is_exempt(p, self._pid_images)]
        if len(candidates) == 1:
            return candidates[0]
        return e.pid

    def _sweep(self, now_ts: int) -> None:
        keep: List[FileEventsList] = []
        for lst in self._lists:
            idle_events = self._count - lst.last_seen_count
            idle_us = now_ts - lst.last_seen_ts
            if idle_events > MAX_IDLE_EVENTS or idle_us > MAX_IDLE_US:
                self._unregister(lst)
            else:
                keep.append(lst)
        self._lists = keep

    def _unregister(self, lst: FileEventsList) -> None:
        for obj in lst.file_objects:
            if self._by_object.get(obj) is lst:
                del self._by_object[obj]
        for fk in lst.file_keys:
            if self._by_key.get(fk) is lst:
                del self._by_key[fk]
        for name in lst.file_names:
            if self._by_name.get(name) is lst:
                del self._by_name[name]

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
Matching is O(1) per event: each list carries one DFA state per acceptor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class FileIdentity:
    """All keys and names observed for one user file.

    A file accumulates multiple FileObject keys (per-open handles) and names
    (renames); file_key is treated as a stable per-file join key. Sets only
    grow for the lifetime of the identity.
    """

    canonical_id: int
    file_objects: Set[int] = field(default_factory=set)
    file_names: Set[str] = field(default_factory=set)
    file_keys: Set[int] = field(default_factory=set)


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


def match_letters(letters: str, multi_file: bool) -> Optional[PatternKind]:
    """Match a complete letter sequence against the four acceptors.

    File-to-file kinds only apply when multi_file is set (the list spans at
    least two FileObject keys). Returns the first matching kind in enum
    order, or None.
    """
    for kind, table, accept, needs_multi in _ACCEPTORS:
        if needs_multi and not multi_file:
            continue
        state = 0
        for ch in letters:
            state = table[state][_LETTER_INDEX[ch]]
            if state < 0:
                break
        if state in accept:
            return kind
    return None


@dataclass
class FileEventsList:
    """Accumulated I/O events and online matching state for one file."""

    identity: FileIdentity
    events: List[Tuple[Event, str]] = field(default_factory=list)
    contributing_pids: Set[int] = field(default_factory=set)
    matched: Optional[PatternKind] = None
    etypes: Set[EventType] = field(default_factory=set)
    # one DFA state per acceptor, in _ACCEPTORS order
    dfa: List[int] = field(default_factory=lambda: [0, 0, 0, 0])
    last_seen_count: int = 0
    last_seen_ts: int = 0

    @property
    def letters(self) -> str:
        return "".join(letter for _, letter in self.events)


def _parent_dir(path: str) -> str:
    p = path.lower().replace("\\", "/").rstrip("/")
    return p.rpartition("/")[0]


_EXEMPT_IMAGES = frozenset({"system", "explorer.exe"})
_SYSTEM_PID = 4


def is_exempt(pid: int, pid_images: Mapping[int, str]) -> bool:
    """True for the system process (pid 4 / image "system") and explorer.exe."""
    return pid == _SYSTEM_PID or pid_images.get(pid, "") in _EXEMPT_IMAGES


def stage3_filter(
    lst: FileEventsList,
    candidate: PatternKind,
    pid_images: Mapping[int, str] = {},
) -> bool:
    """False-positive suppression; True means keep the alert.

    Suppresses when the list's file names do not share one parent directory,
    or when more than one process contributed events after exempting the
    system process (pid 4 / image "system") and explorer.exe. The candidate
    kind does not influence the filters; it is part of the contract so
    call sites stay explicit about what is being filtered.
    """
    del candidate
    names = lst.identity.file_names
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


@dataclass
class MatcherConfig:
    """Eviction policy for idle per-file state.

    An identity idle for more than max_idle_events File events or
    max_idle_us of trace time is dropped; unbounded per-file state would
    otherwise leak on long benign traces.
    """

    max_idle_events: int = 1_000_000
    max_idle_us: int = 600_000_000
    sweep_interval: int = 65_536


class FileIoMatcher:
    """Streaming matcher state. Confine one instance to one consumer task."""

    def __init__(self, config: Optional[MatcherConfig] = None):
        self.config = config or MatcherConfig()
        self._by_object: Dict[int, FileEventsList] = {}
        self._by_key: Dict[int, FileEventsList] = {}
        self._by_name: Dict[str, FileEventsList] = {}
        self._lists: List[FileEventsList] = []
        self._pid_images: Dict[int, str] = {}
        self._next_id = 0
        self._count = 0

    @property
    def pid_images(self) -> Mapping[int, str]:
        return self._pid_images

    def lists(self) -> List[FileEventsList]:
        return list(self._lists)

    def _new_list(self) -> FileEventsList:
        self._next_id += 1
        lst = FileEventsList(identity=FileIdentity(canonical_id=self._next_id))
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
            ident = lst.identity
            ident.file_objects.add(obj)
            self._by_object[obj] = lst
            ident.file_names.add(name)
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
        ident = lst.identity
        ident.file_keys.add(fk)
        self._by_key[fk] = lst
        ident.file_objects.add(obj)
        self._by_object[obj] = lst
        return lst

    def resolve_identity(self, e: Event) -> FileIdentity:
        """Resolve (and register) the file identity a File event belongs to."""
        if e.provider is not Provider.FILE:
            raise ValueError("resolve_identity requires a File-provider event")
        return self._resolve(e).identity

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
        if self._count % self.config.sweep_interval == 0:
            self._sweep(e.timestamp)

        lst = self._resolve(e)
        lst.last_seen_count = self._count
        lst.last_seen_ts = e.timestamp
        if lst.matched is not None:
            return None

        letter = PATTERN_LETTERS[e.etype]
        lst.events.append((e, letter))
        lst.contributing_pids.add(e.pid)
        lst.etypes.add(e.etype)

        li = _LETTER_INDEX[letter]
        dfa = lst.dfa
        s = dfa[0]
        if s >= 0:
            dfa[0] = _POST_T[s][li]
        s = dfa[1]
        if s >= 0:
            dfa[1] = _PRE_T[s][li]
        s = dfa[2]
        if s >= 0:
            dfa[2] = _FTFD_T[s][li]
        s = dfa[3]
        if s >= 0:
            dfa[3] = _FTFRD_T[s][li]

        # The unique-etype gate saves the acceptance/filter work on short
        # lists; any full acceptor word necessarily holds >= 4 unique etypes.
        if len(lst.etypes) < 4:
            return None

        multi_file = len(lst.identity.file_objects) >= 2
        hit = None
        for idx, (kind, _, accept, needs_multi) in enumerate(_ACCEPTORS):
            if dfa[idx] in accept and (multi_file or not needs_multi):
                hit = kind
                break
        if hit is None:
            return None
        if not stage3_filter(lst, hit, self._pid_images):
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
        cfg = self.config
        keep: List[FileEventsList] = []
        for lst in self._lists:
            idle_events = self._count - lst.last_seen_count
            idle_us = now_ts - lst.last_seen_ts
            if idle_events > cfg.max_idle_events or idle_us > cfg.max_idle_us:
                self._unregister(lst)
            else:
                keep.append(lst)
        self._lists = keep

    def _unregister(self, lst: FileEventsList) -> None:
        ident = lst.identity
        for obj in ident.file_objects:
            if self._by_object.get(obj) is lst:
                del self._by_object[obj]
        for fk in ident.file_keys:
            if self._by_key.get(fk) is lst:
                del self._by_key[fk]
        for name in ident.file_names:
            if self._by_name.get(name) is lst:
                del self._by_name[name]

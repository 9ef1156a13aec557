"""Deterministic labeled-trace synthesis.

Five archetypes: crypto ransomware (one of the four encryption I/O shapes
per file), screen-locker ransomware (process-spawn waves with coupled
image/thread churn), and three benign profiles (compression tool, IDE-style
process spawner, interleaved desktop use). A fixed seed reproduces a trace
byte for byte.

Crypto lineages use the key choreography observed in real traces: Read and
Write events join their file through file_key == the create event's
FileObject, rename tails share one handle object, and file-to-file copies
bridge the target into the source's lineage through handle reuse. Benign
profiles never complete an encryption shape on any single lineage: sources
stay intact and archive/temp flows skip the read-then-write cycle on the
same lineage.

Event-count couplings (reads vs writes, process starts vs image loads,
ends vs unloads, thread starts vs ends) come from per-entity mechanics plus
the noise-level constants below; they are calibrated so the default corpus
lands near the observed per-pair coefficients. That calibration reproduces
the statistics of the measurement pipeline, not real malware.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParseError, decode_utf8
from .events import (
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
from .fileio import PatternKind
from .trace_io import WINDOW_LEN, TraceLabel, TraceManifest, save_trace

CRYPTO_FAMILIES = {
    PatternKind.MEM_TO_FILE_POST_OVERWRITE: "Cerber",
    PatternKind.MEM_TO_FILE_PRE_OVERWRITE: "Locky",
    PatternKind.FILE_TO_FILE_DELETE: "InfinityCrypt",
    PatternKind.FILE_TO_FILE_RENAME_DELETE: "WannaCry",
}

USER_DIRS = (
    "c:/users/user/documents",
    "c:/users/user/documents/projects",
    "c:/users/user/music",
    "c:/users/user/pictures",
    "c:/users/user/pictures/2019",
)
USER_EXTS = (".docx", ".xlsx", ".pptx", ".pdf", ".jpg", ".png", ".mp4", ".wav", ".cpp", ".py")

# Process Start command lines injected into attack traces (stock recovery
# inhibition, registry tampering, and task persistence commands).
INJECTED_COMMANDS = (
    ("vssadmin.exe", "vssadmin.exe delete shadows /all /quiet"),
    ("bcdedit.exe", "bcdedit.exe /set {default} recoveryenabled No"),
    ("wmic.exe", "wmic.exe shadowcopy delete"),
    ("powershell.exe", "powershell.exe Set-MpPreference -DisableArchiveScanning $true;"),
    ("schtasks.exe", "schtasks /create /sc onlogon /tn Updater /rl highest /tr C:/ProgramData/svc.exe"),
)
LOCKER_REG_COMMANDS = (
    r"reg add HKCU\Software\Microsoft\Windows\CurrentVersion\Explorer\Advanced /f /v HideFileExt /t REG_DWORD /d 1",
    r"reg add HKCU\Software\Microsoft\Windows\CurrentVersion\Explorer\Advanced /f /v Hidden /t REG_DWORD /d 2",
    r"reg add HKCU\Software\Microsoft\Windows\CurrentVersion\Explorer\Advanced /f /v EnableLUA /d 0 /t REG_DWORD /f",
)


@dataclass(frozen=True)
class SpawnProfile:
    n_processes: int
    depth: int
    n_threads: int


# Noise levels behind the four tracked event-pair correlations.
WRITE_RATIO_LOW = 0.6  # writes per read burst, lower bound
WRITE_RATIO_HIGH = 1.4
SCAN_READ_LEVEL = 0.72  # crypto directory-scan read bursts (no writes)
DESKTOP_RW_COUPLING = 0.12  # benign write counts tracking reads
DESKTOP_RW_NOISE = 5.0

# Gap between consecutive events of one encryption lineage, in microseconds.
LINEAGE_GAP_LO = 150
LINEAGE_GAP_HI = 2500

# Every INJECT_EVERY-th attack trace of the default corpus carries injected
# attack commands.
INJECT_EVERY = 4


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    archetype: str
    pattern: Optional[PatternKind] = None
    n_files: int = 25
    spawn_profile: Optional[SpawnProfile] = None  # None: the archetype's DEFAULT_*_PROFILE
    duration: int = 60_000_000
    command_injection: bool = False
    intensity: float = 1.0  # activity multiplier (desktop profile)

    def validate(self) -> None:
        # the trace reader takes a manifest seed only in [0, 2^64)
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed {self.seed} is not an integer in [0, 2^64)")
        if self.archetype not in ARCHETYPES:
            raise ValueError(f"unknown archetype {self.archetype!r}")
        if self.archetype == "crypto":
            if self.pattern is None:
                raise ValueError("crypto archetype requires a pattern kind")
            if self.n_files < 1:
                raise ValueError("crypto archetype requires n_files >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


DEFAULT_LOCKER_PROFILE = SpawnProfile(n_processes=44, depth=3, n_threads=352)
DEFAULT_SPAWNER_PROFILE = SpawnProfile(n_processes=140, depth=4, n_threads=993)


@dataclass
class GenInfo:
    """Generator-side ground truth used by the evaluation harness."""

    attack_onset: int = 0
    file_completions: List[int] = field(default_factory=list)
    injected_command_times: List[int] = field(default_factory=list)


class _Alloc:
    """Monotone allocators keep keys and pids unique within one trace."""

    def __init__(self, rng: np.random.Generator):
        self._key = 0x1000
        self._pid = int(rng.integers(1200, 4000))
        self._tid = 7000

    def key(self) -> int:
        self._key += 0x10
        return self._key

    def pid(self) -> int:
        self._pid += 4
        return self._pid

    def tid(self) -> int:
        self._tid += 1
        return self._tid


def _proc_start(pid, ts, image, cmdline, parent, alloc):
    return Event(pid, alloc.tid(), Provider.PROCESS, EventType.START, ts,
                 ProcessAttrs(1, parent, image, cmdline))


def _proc_end(pid, ts, image, alloc):
    return Event(pid, alloc.tid(), Provider.PROCESS, EventType.END, ts,
                 ProcessAttrs(1, 0, image, ""))


def _image(pid, ts, etype, name, size, alloc):
    return Event(pid, alloc.tid(), Provider.IMAGE, etype, ts, ImageAttrs(size, name))


def _thread(pid, ts, etype, parent, tid):
    return Event(pid, tid, Provider.THREAD, etype, ts, ThreadAttrs(parent))


def _read(pid, ts, fk, obj, size, tid):
    return Event(pid, tid, Provider.FILE, EventType.READ, ts, FileRwAttrs(fk, obj, size))


def _write(pid, ts, fk, obj, size, tid):
    return Event(pid, tid, Provider.FILE, EventType.WRITE, ts, FileRwAttrs(fk, obj, size))


def _create(pid, ts, obj, name, tid):
    return Event(pid, tid, Provider.FILE, EventType.FILE_CREATE, ts, FileNameAttrs(obj, name))


def _fdelete(pid, ts, obj, name, tid):
    return Event(pid, tid, Provider.FILE, EventType.FILE_DELETE, ts, FileNameAttrs(obj, name))


def _rename(pid, ts, fk, obj, tid):
    return Event(pid, tid, Provider.FILE, EventType.RENAME, ts, FileRenDelAttrs(fk, obj))


def _delete(pid, ts, fk, obj, tid):
    return Event(pid, tid, Provider.FILE, EventType.DELETE, ts, FileRenDelAttrs(fk, obj))


def _file_name(rng: np.random.Generator, directory: str) -> str:
    stem = f"f{int(rng.integers(0, 100000)):05d}"
    ext = USER_EXTS[int(rng.integers(len(USER_EXTS)))]
    return f"{directory}/{stem}{ext}"


def _dll(rng: np.random.Generator) -> str:
    return f"c:/windows/system32/lib{int(rng.integers(0, 400)):03d}.dll"


# --- crypto lineages ---------------------------------------------------------


def _lineage(kind, rng, pid, tid, alloc, name, t):
    """Emit one complete encryption lineage starting at time t.

    Returns (events, end_time). The letter word of the lineage is a word of
    the kind's acceptor; burst lengths and round counts are randomized.
    """
    events = []

    def adv():
        nonlocal t
        t += int(rng.integers(LINEAGE_GAP_LO, LINEAGE_GAP_HI))
        return t

    def rw_rounds(read_fk, read_obj, write_fk, write_obj):
        rounds = int(rng.integers(1, 4))
        for _ in range(rounds):
            n_r = int(rng.integers(2, 9))
            ratio = rng.uniform(WRITE_RATIO_LOW, WRITE_RATIO_HIGH)
            n_w = max(1, int(round(n_r * ratio)))
            for _ in range(n_r):
                events.append(_read(pid, adv(), read_fk, read_obj, int(rng.integers(1, 257)) * 4096, tid))
            for _ in range(n_w):
                events.append(_write(pid, adv(), write_fk, write_obj, int(rng.integers(1, 257)) * 4096, tid))
            if rng.random() < 0.3:
                events.append(_read(pid, adv(), read_fk, read_obj, 4096, tid))

    if kind is PatternKind.MEM_TO_FILE_POST_OVERWRITE:
        a, b1, b2, e = alloc.key(), alloc.key(), alloc.key(), alloc.key()
        events.append(_create(pid, adv(), a, name, tid))
        rw_rounds(a, b1, a, b2)
        events.append(_rename(pid, adv(), a, e, tid))
        events.append(_fdelete(pid, adv(), e, name, tid))
        events.append(_create(pid, adv(), e, name + ".8cbe", tid))
    elif kind is PatternKind.MEM_TO_FILE_PRE_OVERWRITE:
        a, b, e = alloc.key(), alloc.key(), alloc.key()
        events.append(_create(pid, adv(), a, name, tid))
        events.append(_rename(pid, adv(), a, e, tid))
        events.append(_fdelete(pid, adv(), e, name, tid))
        events.append(_create(pid, adv(), e, name + ".locky", tid))
        rw_rounds(a, b, a, b)
    else:  # file to file: the copy gets its own create, then the source goes
        rename = kind is PatternKind.FILE_TO_FILE_RENAME_DELETE
        a, b, g = alloc.key(), alloc.key(), alloc.key()
        e = alloc.key() if rename else None
        events.append(_create(pid, adv(), a, name, tid))
        n_r = int(rng.integers(2, 7))
        for _ in range(n_r):
            events.append(_read(pid, adv(), a, b, int(rng.integers(1, 257)) * 4096, tid))
        events.append(_create(pid, adv(), b, name + (".tmp" if rename else ".crypt"), tid))
        n_w = max(1, int(round(n_r * rng.uniform(WRITE_RATIO_LOW, WRITE_RATIO_HIGH))))
        for _ in range(n_w):
            events.append(_write(pid, adv(), b, g, int(rng.integers(1, 257)) * 4096, tid))
        for _ in range(int(rng.integers(0, 3))):
            rw_rounds(a, b, b, g)
        if rename:
            events.append(_rename(pid, adv(), b, e, tid))
            events.append(_fdelete(pid, adv(), a, name, tid))
            events.append(_create(pid, adv(), e, name + ".locked", tid))
        else:
            events.append(_delete(pid, adv(), a, b, tid))
    return events, t


def _background_churn(events, rng, pid, alloc, t0, t1):
    """Low-rate image/thread noise decoupled from process lifecycles."""
    t = t0
    while True:
        t += int(rng.integers(400_000, 1_600_000))
        if t >= t1:
            break
        roll = rng.random()
        if roll < 0.45:
            events.append(_image(pid, t, EventType.LOAD, _dll(rng), 65536, alloc))
        elif roll < 0.70:
            events.append(_image(pid, t, EventType.UNLOAD, _dll(rng), 65536, alloc))
        elif roll < 0.75:
            events.append(_thread(pid, t, EventType.START, pid, alloc.tid()))
        elif roll < 0.80:
            events.append(_thread(pid, t, EventType.END, pid, alloc.tid()))


def _inject_commands(events, info, rng, alloc, parent_pid, t0, commands):
    n = int(rng.integers(1, min(3, len(commands)) + 1))
    picks = rng.choice(len(commands), size=n, replace=False)
    t = t0
    for idx in picks:
        t += int(rng.integers(20_000, 400_000))
        cmdline = commands[int(idx)]
        image = cmdline.split()[0].split("/")[-1].split("\\")[-1]
        if not image.endswith(".exe"):
            image += ".exe"
        pid = alloc.pid()
        events.append(_proc_start(pid, t, image, cmdline, parent_pid, alloc))
        info.injected_command_times.append(t)


def _gen_crypto(cfg: SynthConfig, rng: np.random.Generator) -> Tuple[List[Event], GenInfo, str]:
    alloc = _Alloc(rng)
    info = GenInfo()
    events: List[Event] = []
    family = CRYPTO_FAMILIES[cfg.pattern]

    onset = int(rng.integers(500_000, 3_000_000))
    info.attack_onset = onset
    # light desktop noise before the attack
    noise_pid = alloc.pid()
    _background_churn(events, rng, noise_pid, alloc, 0, onset)

    mal_pid = alloc.pid()
    events.append(_proc_start(mal_pid, onset, f"{family.lower()}.exe", f"{family.lower()}.exe", noise_pid, alloc))
    t = onset
    for _ in range(int(rng.integers(3, 8))):
        t += int(rng.integers(1_000, 30_000))
        events.append(_image(mal_pid, t, EventType.LOAD, _dll(rng), 131072, alloc))
    if cfg.command_injection:
        _inject_commands(events, info, rng, alloc, mal_pid, onset,
                         [c for _, c in INJECTED_COMMANDS])

    span = max(cfg.duration - onset - 2_000_000, 4_000_000)
    starts = onset + 1_000_000 + np.sort(rng.integers(0, span, size=cfg.n_files))
    tid = alloc.tid()
    for i in range(cfg.n_files):
        directory = USER_DIRS[int(rng.integers(len(USER_DIRS)))]
        name = _file_name(rng, directory)
        lineage, end = _lineage(cfg.pattern, rng, mal_pid, tid, alloc, name, int(starts[i]))
        events.extend(lineage)
        info.file_completions.append(end)
    # directory enumeration between encryption rounds: bursty read-only
    # scans on their own handles, decoupled from the write stream
    t = onset
    while t < cfg.duration - 1_000_000:
        t += int(rng.integers(1_200_000, 5_000_000))
        if rng.random() < 0.85:
            burst = int(rng.integers(4, 44) * SCAN_READ_LEVEL)
            obj = alloc.key()
            for k in range(burst):
                events.append(_read(mal_pid, t + 350 * k, obj, alloc.key(), 4096, tid))
    _background_churn(events, rng, mal_pid, alloc, onset, cfg.duration)
    return events, info, family


# --- screen locker -----------------------------------------------------------


def _gen_locker(cfg: SynthConfig, rng: np.random.Generator) -> Tuple[List[Event], GenInfo, str]:
    alloc = _Alloc(rng)
    info = GenInfo()
    events: List[Event] = []
    profile = cfg.spawn_profile or DEFAULT_LOCKER_PROFILE

    onset = int(rng.integers(500_000, 3_000_000))
    info.attack_onset = onset
    n_target = max(3, int(round(profile.n_processes * rng.uniform(0.8, 1.25))))
    threads_per_proc = max(1, round(profile.n_threads / max(profile.n_processes, 1)))

    root = alloc.pid()
    parents: List[Tuple[int, int]] = [(root, 1)]  # (pid, depth)
    events.append(_proc_start(root, onset, "locker.exe", "locker.exe /silent", 0, alloc))
    if cfg.command_injection:
        _inject_commands(events, info, rng, alloc, root, onset, LOCKER_REG_COMMANDS)

    spawned = 1
    t = onset
    ended: List[Tuple[int, int, int]] = []  # (pid, end_ts, n_loads)
    note_seq = 0
    while spawned < n_target and t < cfg.duration - 2_000_000:
        t += int(rng.integers(1_000_000, 5_000_000))
        wave = int(rng.integers(2, 7))
        for _ in range(wave):
            if spawned >= n_target:
                break
            parent, pdepth = parents[int(rng.integers(len(parents)))]
            child = alloc.pid()
            depth = pdepth + 1
            ts_start = t + int(rng.integers(0, 800_000))
            events.append(_proc_start(child, ts_start, "locker.exe", "locker.exe /replicate", parent, alloc))
            spawned += 1
            if depth < profile.depth + 1:
                parents.append((child, depth))
            n_loads = 2 + int(rng.poisson(1.6))
            tl = ts_start
            for _ in range(n_loads):
                tl += int(rng.integers(2_000, 60_000))
                events.append(_image(child, tl, EventType.LOAD, _dll(rng), 131072, alloc))
            n_thr = max(1, threads_per_proc + int(rng.integers(-2, 3)))
            for _ in range(n_thr):
                tt = ts_start + int(rng.integers(10_000, 1_500_000))
                tid = alloc.tid()
                events.append(_thread(child, tt, EventType.START, parent, tid))
                te = tt + int(rng.integers(100_000, 2_800_000))
                if te < cfg.duration:
                    events.append(_thread(child, te, EventType.END, parent, tid))
            if rng.random() < 0.5:
                end_ts = ts_start + int(rng.integers(4_000_000, 30_000_000))
                if end_ts < cfg.duration:
                    ended.append((child, end_ts, n_loads))
        # periodic ransom-note drops: create + write, never read back
        if rng.random() < 0.7:
            note_seq += 1
            obj = alloc.key()
            tid = alloc.tid()
            name = f"c:/users/user/desktop/readme_{note_seq:03d}.txt"
            tn = t + int(rng.integers(0, 500_000))
            events.append(_create(root, tn, obj, name, tid))
            for k in range(int(rng.integers(1, 4))):
                events.append(_write(root, tn + 1_000 * (k + 1), obj, alloc.key(), 4096, tid))

    for pid, end_ts, n_loads in ended:
        events.append(_proc_end(pid, end_ts, "locker.exe", alloc))
        tu = end_ts
        for _ in range(n_loads):
            tu += int(rng.integers(1_000, 40_000))
            events.append(_image(pid, tu, EventType.UNLOAD, _dll(rng), 131072, alloc))
    _background_churn(events, rng, root, alloc, onset, cfg.duration)
    return events, info, "VirLock"


# --- benign profiles ----------------------------------------------------------


def _gen_crypto_like(cfg: SynthConfig, rng: np.random.Generator) -> Tuple[List[Event], GenInfo, str]:
    alloc = _Alloc(rng)
    info = GenInfo()
    events: List[Event] = []
    pid = alloc.pid()
    events.append(_proc_start(pid, int(rng.integers(100_000, 800_000)), "7zg.exe",
                              "7zG.exe a -tzip backup.zip c:/users/user/documents", 0, alloc))
    tid = alloc.tid()
    archive_obj = alloc.key()
    archive_name = "c:/users/user/documents/backup.zip"
    events.append(_create(pid, int(rng.integers(900_000, 1_200_000)), archive_obj, archive_name, tid))

    n_files = max(1, cfg.n_files)
    span = max(cfg.duration - 4_000_000, 4_000_000)
    starts = 1_500_000 + np.sort(rng.integers(0, span, size=n_files))
    pending_writes = []  # (due_ts, count)
    for i in range(n_files):
        t = int(starts[i])
        src_obj = alloc.key()
        name = _file_name(rng, USER_DIRS[int(rng.integers(len(USER_DIRS)))])
        events.append(_create(pid, t, src_obj, name, tid))
        n_r = int(rng.integers(2, 7))
        for _ in range(n_r):
            t += int(rng.integers(300, 3_000))
            events.append(_read(pid, t, src_obj, alloc.key(), int(rng.integers(1, 129)) * 4096, tid))
        # archive output is buffered and flushed a few seconds later
        due = t + int(rng.integers(3_000_000, 9_000_000))
        pending_writes.append((due, max(1, int(n_r * rng.uniform(0.3, 0.6)))))
    for due, count in pending_writes:
        t = min(due, cfg.duration - 1_000)
        for _ in range(count):
            t += int(rng.integers(200, 2_000))
            events.append(_write(pid, t, archive_obj, alloc.key(), int(rng.integers(1, 129)) * 4096, tid))
    _background_churn(events, rng, pid, alloc, 0, cfg.duration)
    return events, info, "7zip"


def _gen_spawner(cfg: SynthConfig, rng: np.random.Generator) -> Tuple[List[Event], GenInfo, str]:
    alloc = _Alloc(rng)
    info = GenInfo()
    events: List[Event] = []
    profile = cfg.spawn_profile or DEFAULT_SPAWNER_PROFILE

    n_target = max(3, int(round(profile.n_processes * rng.uniform(0.85, 1.15))))
    threads_per_proc = max(1, round(profile.n_threads / max(profile.n_processes, 1)))
    startup_span = int(cfg.duration * rng.uniform(0.15, 0.3))

    root = alloc.pid()
    t0 = int(rng.integers(200_000, 900_000))
    events.append(_proc_start(root, t0, "pycharm64.exe", "pycharm64.exe c:/users/user/documents/projects", 0, alloc))
    parents: List[Tuple[int, int]] = [(root, 1)]
    helper_images = ["java.exe", "fsnotifier64.exe", "conhost.exe", "node.exe", "git.exe"]
    spawned = 1
    while spawned < n_target:
        t = t0 + int(rng.integers(0, max(startup_span, 1)))
        parent, pdepth = parents[int(rng.integers(len(parents)))]
        child = alloc.pid()
        image = helper_images[int(rng.integers(len(helper_images)))]
        events.append(_proc_start(child, t, image, image, parent, alloc))
        spawned += 1
        if pdepth + 1 < profile.depth + 1:
            parents.append((child, pdepth + 1))
        n_loads = 2 + int(rng.poisson(1.6))
        tl = t
        for _ in range(n_loads):
            tl += int(rng.integers(2_000, 60_000))
            events.append(_image(child, tl, EventType.LOAD, _dll(rng), 131072, alloc))
        n_thr = max(1, threads_per_proc + int(rng.integers(-3, 4)))
        for _ in range(n_thr):
            tt = t + int(rng.integers(10_000, 2_000_000))
            tid = alloc.tid()
            events.append(_thread(child, tt, EventType.START, parent, tid))
            te = tt + int(rng.integers(100_000, 2_800_000))
            if te < cfg.duration:
                events.append(_thread(child, te, EventType.END, parent, tid))
    # post-startup: indexing reads, sparse config writes
    t = t0 + startup_span
    tid = alloc.tid()
    while t < cfg.duration - 500_000:
        t += int(rng.integers(400_000, 2_400_000))
        roll = rng.random()
        if roll < 0.7:
            obj = alloc.key()
            events.append(_create(root, t, obj, _file_name(rng, USER_DIRS[1]), tid))
            for k in range(int(rng.integers(1, 5))):
                events.append(_read(root, t + 500 * (k + 1), obj, alloc.key(), 8192, tid))
        elif roll < 0.85:
            obj = alloc.key()
            events.append(_create(root, t, obj, "c:/users/user/appdata/pycharm/workspace.xml", tid))
            events.append(_write(root, t + 700, obj, alloc.key(), 8192, tid))
    _background_churn(events, rng, root, alloc, 0, cfg.duration)
    return events, info, "Pycharm"


def _gen_desktop(cfg: SynthConfig, rng: np.random.Generator) -> Tuple[List[Event], GenInfo, str]:
    alloc = _Alloc(rng)
    info = GenInfo()
    events: List[Event] = []
    apps = [
        ("chrome.exe", 0.9),
        ("winword.exe", 0.7),
        ("acrord32.exe", 0.5),
        ("outlook.exe", 0.4),
        ("vlc.exe", 0.3),
    ]
    pids = {}
    t = 0
    for image, _ in apps[: int(rng.integers(3, len(apps) + 1))]:
        t += int(rng.integers(100_000, 2_000_000))
        pid = alloc.pid()
        pids[image] = pid
        events.append(_proc_start(pid, t, image, image, 0, alloc))
        tl = t
        for _ in range(2 + int(rng.poisson(1.6))):
            tl += int(rng.integers(2_000, 80_000))
            events.append(_image(pid, tl, EventType.LOAD, _dll(rng), 131072, alloc))

    # one activity level per detection window, so reads and writes couple
    # per window: that is the benign R/W correlation criterion 5 measures
    window = WINDOW_LEN
    n_windows = cfg.duration // window
    images = list(pids)
    tid = alloc.tid()
    for w in range(int(n_windows)):
        base = w * window
        # per-window activity level modulates both reads and (weakly) writes
        level = rng.gamma(2.0, 2.0) * cfg.intensity
        n_reads = int(rng.poisson(2.0 * level))
        n_writes = int(rng.poisson(DESKTOP_RW_NOISE + DESKTOP_RW_COUPLING * 2.0 * level))
        app = images[int(rng.integers(len(images)))]
        pid = pids[app]
        for _ in range(n_reads):
            ts = base + int(rng.integers(0, window))
            obj = alloc.key()
            if rng.random() < 0.3:
                events.append(_create(pid, ts, obj, _file_name(rng, USER_DIRS[int(rng.integers(len(USER_DIRS)))]), tid))
            events.append(_read(pid, ts + 300, obj, alloc.key(), int(rng.integers(1, 65)) * 4096, tid))
        for _ in range(n_writes):
            ts = base + int(rng.integers(0, window))
            events.append(_write(pid, ts, alloc.key(), alloc.key(), int(rng.integers(1, 17)) * 4096, tid))
        # thread and image churn: mostly paired, some orphans
        n_pairs = int(rng.poisson(1.2 * level))
        for _ in range(n_pairs):
            ts = base + int(rng.integers(0, window - 600_000))
            tt = alloc.tid()
            events.append(_thread(pid, ts, EventType.START, pid, tt))
            events.append(_thread(pid, ts + int(rng.integers(50_000, 550_000)), EventType.END, pid, tt))
        n_img = int(rng.poisson(0.8 * level))
        for _ in range(n_img):
            ts = base + int(rng.integers(0, window - 400_000))
            name = _dll(rng)
            events.append(_image(pid, ts, EventType.LOAD, name, 65536, alloc))
            events.append(_image(pid, ts + int(rng.integers(20_000, 380_000)), EventType.UNLOAD, name, 65536, alloc))
        if rng.random() < 0.04 and len(events) > 10:
            # occasional app restart: end + unloads, then a fresh start
            ts = base + int(rng.integers(0, window - 900_000))
            events.append(_proc_end(pid, ts, app, alloc))
            for _ in range(2 + int(rng.poisson(1.0))):
                ts += int(rng.integers(5_000, 60_000))
                events.append(_image(pid, ts, EventType.UNLOAD, _dll(rng), 131072, alloc))
            new_pid = alloc.pid()
            pids[app] = new_pid
            ts += int(rng.integers(100_000, 400_000))
            events.append(_proc_start(new_pid, ts, app, app, 0, alloc))
            for _ in range(2 + int(rng.poisson(1.0))):
                ts += int(rng.integers(5_000, 60_000))
                events.append(_image(new_pid, ts, EventType.LOAD, _dll(rng), 131072, alloc))
    return events, info, "Desktop"


# archetype -> (generator, label)
_ARCHETYPES = {
    "crypto": (_gen_crypto, TraceLabel.CRYPTO),
    "locker": (_gen_locker, TraceLabel.SCREEN_LOCKER),
    "benign_crypto_like": (_gen_crypto_like, TraceLabel.BENIGN),
    "benign_spawner": (_gen_spawner, TraceLabel.BENIGN),
    "benign_desktop": (_gen_desktop, TraceLabel.BENIGN),
}
ARCHETYPES = tuple(_ARCHETYPES)


def synth_trace_detailed(cfg: SynthConfig) -> Tuple[TraceManifest, List[Event], GenInfo]:
    """Generate one trace plus the generator's ground-truth side channel."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    generate, label = _ARCHETYPES[cfg.archetype]
    events, info, family = generate(cfg, rng)
    events.sort(key=lambda e: e.timestamp)
    last_ts = events[-1].timestamp if events else 0
    manifest = TraceManifest(
        label=label,
        family=family,
        seed=cfg.seed,
        event_count=len(events),
        duration=max(cfg.duration, last_ts),
        attack_onset=info.attack_onset,
    )
    return manifest, events, info


def synth_trace(cfg: SynthConfig) -> Tuple[TraceManifest, List[Event]]:
    manifest, events, _ = synth_trace_detailed(cfg)
    return manifest, events


# --- corpus ------------------------------------------------------------------


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-trace seed from a master seed and a counter."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def default_corpus_spec(
    n_crypto: int = 40,
    n_locker: int = 40,
    n_benign: int = 120,
) -> List[SynthConfig]:
    """The standard evaluation mix: n_crypto/4 traces per encryption shape,
    n_locker screen lockers, and n_benign split across the three benign
    profiles. Every INJECT_EVERY-th attack trace also carries injected
    attack commands."""
    configs: List[SynthConfig] = []
    kinds = list(PatternKind)
    for i in range(n_crypto):
        configs.append(
            SynthConfig(
                seed=0,
                archetype="crypto",
                pattern=kinds[i % 4],
                n_files=25 + 5 * (i % 5),
                duration=60_000_000,
            )
        )
    for i in range(n_locker):
        configs.append(
            SynthConfig(
                seed=0,
                archetype="locker",
                duration=int(90_000_000 + 30_000_000 * (i % 3)),
            )
        )
    configs = [replace(c, command_injection=(i % INJECT_EVERY == 0)) for i, c in enumerate(configs)]
    per = n_benign // 3
    for i in range(per):
        configs.append(SynthConfig(seed=0, archetype="benign_crypto_like", n_files=8 + 2 * (i % 5), duration=60_000_000))
    for i in range(per):
        configs.append(SynthConfig(seed=0, archetype="benign_spawner", duration=90_000_000))
    for i in range(n_benign - 2 * per):
        configs.append(SynthConfig(seed=0, archetype="benign_desktop", duration=120_000_000))
    return configs


@dataclass
class CorpusEntry:
    path: str
    manifest: TraceManifest


def synth_corpus(
    configs: Sequence[SynthConfig],
    out_dir: str,
    master_seed: int = 42,
) -> List[CorpusEntry]:
    """Write one trace file per config (seeds derived from master_seed by
    counter) plus an index file `path | label | family | seed`."""
    os.makedirs(out_dir, exist_ok=True)
    entries: List[CorpusEntry] = []
    index_lines = []
    for i, cfg in enumerate(configs):
        cfg_i = replace(cfg, seed=derive_seed(master_seed, i))
        manifest, events = synth_trace(cfg_i)
        name = f"{i:04d}_{manifest.label.value}_{manifest.family.lower()}.pt"
        path = os.path.join(out_dir, name)
        save_trace(path, manifest, events)
        entries.append(CorpusEntry(path=path, manifest=manifest))
        index_lines.append(f"{name} | {manifest.label.value} | {manifest.family} | {manifest.seed}")
    with open(os.path.join(out_dir, "index.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(index_lines) + "\n")
    return entries


def read_corpus_index(corpus_dir: str) -> List[Tuple[str, str, str, int]]:
    """Rows of (path, label, family, seed) from a corpus index file.

    A row that is not four `|`-separated fields, a file name with a NUL, a
    seed that is not a decimal integer in [0, 2^64), or bytes that are not
    UTF-8 are a ParseError naming the file line.
    """
    with open(os.path.join(corpus_dir, "index.txt"), "rb") as f:
        text = decode_utf8(f.read())
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        fields = [p.strip() for p in line.split("|")]
        if len(fields) != 4:
            raise ParseError(lineno, f"expected 4 '|'-separated fields, got {len(fields)}")
        name, label, family, seed = fields
        if "\0" in name:
            raise ParseError(lineno, f"file name {name!r} holds a NUL byte")
        # at most 20 digits, so int() stays cheap whatever the row holds
        if not (seed.isascii() and seed.isdigit() and len(seed) <= 20 and int(seed) < 1 << 64):
            raise ParseError(lineno, f"seed {seed!r} is not an integer in [0, 2^64)")
        rows.append((os.path.join(corpus_dir, name), label, family, int(seed)))
    return rows

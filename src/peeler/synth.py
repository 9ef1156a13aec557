"""Deterministic labeled-trace synthesis.

Five archetypes: crypto ransomware (one of the four encryption I/O shapes
per file), screen-locker ransomware (process-spawn waves with coupled
image/thread churn), and three benign profiles (compression tool, IDE-style
process spawner, interleaved desktop use). Each generator writes through
one _Trace, the one place that holds its state: the rng, the key/pid/tid
counters, the events and the ground truth. A fixed seed reproduces a trace
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

from .commands import normalize_command
from .errors import ParseError, decode_utf8
from .events import (
    Event,
    EventType,
    FileNameEvent,
    FileRenDelEvent,
    FileRwEvent,
    ImageEvent,
    ProcessEvent,
    ThreadEvent,
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
    "vssadmin.exe delete shadows /all /quiet",
    "bcdedit.exe /set {default} recoveryenabled No",
    "wmic.exe shadowcopy delete",
    "powershell.exe Set-MpPreference -DisableArchiveScanning $true;",
    "schtasks /create /sc onlogon /tn Updater /rl highest /tr C:/ProgramData/svc.exe",
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


class _Trace:
    """One trace under construction: its rng, key/pid/tid counters, events
    and GenInfo. Its methods are the only code that builds an Event. Each
    draws from the rng in the order its body reads, and the counters only
    climb, so keys and pids stay unique within a trace."""

    def __init__(self, cfg: SynthConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self.events: List[Event] = []
        self.info = GenInfo()
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

    def pick(self, items):
        return items[int(self.rng.integers(len(items)))]

    def file_name(self, directory: str) -> str:
        stem = f"f{int(self.rng.integers(0, 100000)):05d}"
        return f"{directory}/{stem}{self.pick(USER_EXTS)}"

    def dll(self) -> str:
        return f"c:/windows/system32/lib{int(self.rng.integers(0, 400)):03d}.dll"

    def start(self, pid, ts, image, cmdline, parent):
        self.events.append(ProcessEvent(pid, self.tid(), EventType.START, ts, 1, parent, image, cmdline))

    def end(self, pid, ts, image):
        self.events.append(ProcessEvent(pid, self.tid(), EventType.END, ts, 1, 0, image, ""))

    def image(self, pid, ts, etype, name, size):
        self.events.append(ImageEvent(pid, self.tid(), etype, ts, size, name))

    def thread(self, pid, ts, etype, parent, tid):
        self.events.append(ThreadEvent(pid, tid, etype, ts, parent))

    def read(self, pid, ts, fk, obj, size, tid):
        self.events.append(FileRwEvent(pid, tid, EventType.READ, ts, fk, obj, size))

    def write(self, pid, ts, fk, obj, size, tid):
        self.events.append(FileRwEvent(pid, tid, EventType.WRITE, ts, fk, obj, size))

    def create(self, pid, ts, obj, name, tid):
        self.events.append(FileNameEvent(pid, tid, EventType.FILE_CREATE, ts, obj, name))

    def fdelete(self, pid, ts, obj, name, tid):
        self.events.append(FileNameEvent(pid, tid, EventType.FILE_DELETE, ts, obj, name))

    def rename(self, pid, ts, fk, obj, tid):
        self.events.append(FileRenDelEvent(pid, tid, EventType.RENAME, ts, fk, obj))

    def delete(self, pid, ts, fk, obj, tid):
        self.events.append(FileRenDelEvent(pid, tid, EventType.DELETE, ts, fk, obj))

    def images(self, pid, t, n, lo, hi, etype):
        """n image events of pid at steps of lo to hi µs from t; returns the
        last one's time."""
        for _ in range(n):
            t += int(self.rng.integers(lo, hi))
            self.image(pid, t, etype, self.dll(), 131072)
        return t

    def spawn(self, parent, ts, image, cmdline, profile, jitter, spread):
        """Start a child of parent at ts with its image loads and threads:
        the profile's threads per process give or take jitter, each starting
        10 ms to spread µs after ts. Returns the child's pid and load count."""
        rng = self.rng
        child = self.pid()
        self.start(child, ts, image, cmdline, parent)
        n_loads = 2 + int(rng.poisson(1.6))
        self.images(child, ts, n_loads, 2_000, 60_000, EventType.LOAD)
        threads_per_proc = max(1, round(profile.n_threads / max(profile.n_processes, 1)))
        for _ in range(max(1, threads_per_proc + int(rng.integers(-jitter, jitter + 1)))):
            tt = ts + int(rng.integers(10_000, spread))
            tid = self.tid()
            self.thread(child, tt, EventType.START, parent, tid)
            te = tt + int(rng.integers(100_000, 2_800_000))
            if te < self.cfg.duration:
                self.thread(child, te, EventType.END, parent, tid)
        return child, n_loads

    def churn(self, pid, t0, t1):
        """Low-rate image/thread noise decoupled from process lifecycles."""
        rng = self.rng
        t = t0
        while True:
            t += int(rng.integers(400_000, 1_600_000))
            if t >= t1:
                break
            roll = rng.random()
            if roll < 0.45:
                self.image(pid, t, EventType.LOAD, self.dll(), 65536)
            elif roll < 0.70:
                self.image(pid, t, EventType.UNLOAD, self.dll(), 65536)
            elif roll < 0.75:
                self.thread(pid, t, EventType.START, pid, self.tid())
            elif roll < 0.80:
                self.thread(pid, t, EventType.END, pid, self.tid())

    def inject(self, parent, t, commands):
        """Start one to three of the command lines as children of parent, after t."""
        n = int(self.rng.integers(1, min(3, len(commands)) + 1))
        for idx in self.rng.choice(len(commands), size=n, replace=False):
            t += int(self.rng.integers(20_000, 400_000))
            cmdline = commands[int(idx)]
            self.start(self.pid(), t, normalize_command(cmdline)[0] + ".exe", cmdline, parent)


# --- crypto lineages ---------------------------------------------------------


def _lineage(tr: _Trace, kind, pid, tid, name, t):
    """Emit one complete encryption lineage starting at time t and return
    its end time. The letter word of the lineage is a word of the kind's
    acceptor; burst lengths and round counts are randomized."""
    rng = tr.rng

    def adv():
        nonlocal t
        t += int(rng.integers(LINEAGE_GAP_LO, LINEAGE_GAP_HI))
        return t

    def rw_rounds(read_fk, read_obj, write_fk, write_obj):
        for _ in range(int(rng.integers(1, 4))):
            n_r = int(rng.integers(2, 9))
            n_w = max(1, int(round(n_r * rng.uniform(WRITE_RATIO_LOW, WRITE_RATIO_HIGH))))
            for _ in range(n_r):
                tr.read(pid, adv(), read_fk, read_obj, int(rng.integers(1, 257)) * 4096, tid)
            for _ in range(n_w):
                tr.write(pid, adv(), write_fk, write_obj, int(rng.integers(1, 257)) * 4096, tid)
            if rng.random() < 0.3:
                tr.read(pid, adv(), read_fk, read_obj, 4096, tid)

    if kind is PatternKind.MEM_TO_FILE_POST_OVERWRITE:
        a, b1, b2, e = tr.key(), tr.key(), tr.key(), tr.key()
        tr.create(pid, adv(), a, name, tid)
        rw_rounds(a, b1, a, b2)
        tr.rename(pid, adv(), a, e, tid)
        tr.fdelete(pid, adv(), e, name, tid)
        tr.create(pid, adv(), e, name + ".8cbe", tid)
    elif kind is PatternKind.MEM_TO_FILE_PRE_OVERWRITE:
        a, b, e = tr.key(), tr.key(), tr.key()
        tr.create(pid, adv(), a, name, tid)
        tr.rename(pid, adv(), a, e, tid)
        tr.fdelete(pid, adv(), e, name, tid)
        tr.create(pid, adv(), e, name + ".locky", tid)
        rw_rounds(a, b, a, b)
    else:  # file to file: the copy gets its own create, then the source goes
        rename = kind is PatternKind.FILE_TO_FILE_RENAME_DELETE
        a, b, g = tr.key(), tr.key(), tr.key()
        e = tr.key() if rename else None
        tr.create(pid, adv(), a, name, tid)
        n_r = int(rng.integers(2, 7))
        for _ in range(n_r):
            tr.read(pid, adv(), a, b, int(rng.integers(1, 257)) * 4096, tid)
        tr.create(pid, adv(), b, name + (".tmp" if rename else ".crypt"), tid)
        n_w = max(1, int(round(n_r * rng.uniform(WRITE_RATIO_LOW, WRITE_RATIO_HIGH))))
        for _ in range(n_w):
            tr.write(pid, adv(), b, g, int(rng.integers(1, 257)) * 4096, tid)
        for _ in range(int(rng.integers(0, 3))):
            rw_rounds(a, b, b, g)
        if rename:
            tr.rename(pid, adv(), b, e, tid)
            tr.fdelete(pid, adv(), a, name, tid)
            tr.create(pid, adv(), e, name + ".locked", tid)
        else:
            tr.delete(pid, adv(), a, b, tid)
    return t


def _gen_crypto(tr: _Trace) -> str:
    cfg, rng = tr.cfg, tr.rng
    family = CRYPTO_FAMILIES[cfg.pattern]

    onset = int(rng.integers(500_000, 3_000_000))
    tr.info.attack_onset = onset
    # light desktop noise before the attack
    noise_pid = tr.pid()
    tr.churn(noise_pid, 0, onset)

    mal_pid = tr.pid()
    tr.start(mal_pid, onset, f"{family.lower()}.exe", f"{family.lower()}.exe", noise_pid)
    tr.images(mal_pid, onset, int(rng.integers(3, 8)), 1_000, 30_000, EventType.LOAD)
    if cfg.command_injection:
        tr.inject(mal_pid, onset, INJECTED_COMMANDS)

    span = max(cfg.duration - onset - 2_000_000, 4_000_000)
    starts = onset + 1_000_000 + np.sort(rng.integers(0, span, size=cfg.n_files))
    tid = tr.tid()
    for start in starts:
        name = tr.file_name(tr.pick(USER_DIRS))
        tr.info.file_completions.append(_lineage(tr, cfg.pattern, mal_pid, tid, name, int(start)))
    # directory enumeration between encryption rounds: bursty read-only
    # scans on their own handles, decoupled from the write stream
    t = onset
    while t < cfg.duration - 1_000_000:
        t += int(rng.integers(1_200_000, 5_000_000))
        if rng.random() < 0.85:
            burst = int(rng.integers(4, 44) * SCAN_READ_LEVEL)
            obj = tr.key()
            for k in range(burst):
                tr.read(mal_pid, t + 350 * k, obj, tr.key(), 4096, tid)
    tr.churn(mal_pid, onset, cfg.duration)
    return family


# --- screen locker -----------------------------------------------------------


def _gen_locker(tr: _Trace) -> str:
    cfg, rng = tr.cfg, tr.rng
    profile = cfg.spawn_profile or DEFAULT_LOCKER_PROFILE

    onset = int(rng.integers(500_000, 3_000_000))
    tr.info.attack_onset = onset
    n_target = max(3, int(round(profile.n_processes * rng.uniform(0.8, 1.25))))

    root = tr.pid()
    parents: List[Tuple[int, int]] = [(root, 1)]  # (pid, depth)
    tr.start(root, onset, "locker.exe", "locker.exe /silent", 0)
    if cfg.command_injection:
        tr.inject(root, onset, LOCKER_REG_COMMANDS)

    spawned = 1
    t = onset
    ended: List[Tuple[int, int, int]] = []  # (pid, end_ts, n_loads)
    note_seq = 0
    while spawned < n_target and t < cfg.duration - 2_000_000:
        t += int(rng.integers(1_000_000, 5_000_000))
        wave = int(rng.integers(2, 7))
        for _ in range(min(wave, n_target - spawned)):
            parent, depth = tr.pick(parents)
            ts = t + int(rng.integers(0, 800_000))
            child, n_loads = tr.spawn(parent, ts, "locker.exe", "locker.exe /replicate", profile, 2, 1_500_000)
            spawned += 1
            if depth < profile.depth:
                parents.append((child, depth + 1))
            if rng.random() < 0.5:
                end_ts = ts + int(rng.integers(4_000_000, 30_000_000))
                if end_ts < cfg.duration:
                    ended.append((child, end_ts, n_loads))
        # periodic ransom-note drops: create + write, never read back
        if rng.random() < 0.7:
            note_seq += 1
            obj = tr.key()
            tid = tr.tid()
            name = f"c:/users/user/desktop/readme_{note_seq:03d}.txt"
            tn = t + int(rng.integers(0, 500_000))
            tr.create(root, tn, obj, name, tid)
            for k in range(int(rng.integers(1, 4))):
                tr.write(root, tn + 1_000 * (k + 1), obj, tr.key(), 4096, tid)

    for pid, end_ts, n_loads in ended:
        tr.end(pid, end_ts, "locker.exe")
        tr.images(pid, end_ts, n_loads, 1_000, 40_000, EventType.UNLOAD)
    tr.churn(root, onset, cfg.duration)
    return "VirLock"


# --- benign profiles ----------------------------------------------------------


def _gen_crypto_like(tr: _Trace) -> str:
    cfg, rng = tr.cfg, tr.rng
    pid = tr.pid()
    tr.start(pid, int(rng.integers(100_000, 800_000)), "7zg.exe",
             "7zG.exe a -tzip backup.zip c:/users/user/documents", 0)
    tid = tr.tid()
    archive_obj = tr.key()
    archive_name = "c:/users/user/documents/backup.zip"
    tr.create(pid, int(rng.integers(900_000, 1_200_000)), archive_obj, archive_name, tid)

    n_files = max(1, cfg.n_files)
    span = max(cfg.duration - 4_000_000, 4_000_000)
    starts = 1_500_000 + np.sort(rng.integers(0, span, size=n_files))
    pending_writes = []  # (due_ts, count)
    for start in starts:
        t = int(start)
        src_obj = tr.key()
        tr.create(pid, t, src_obj, tr.file_name(tr.pick(USER_DIRS)), tid)
        n_r = int(rng.integers(2, 7))
        for _ in range(n_r):
            t += int(rng.integers(300, 3_000))
            tr.read(pid, t, src_obj, tr.key(), int(rng.integers(1, 129)) * 4096, tid)
        # archive output is buffered and flushed a few seconds later
        due = t + int(rng.integers(3_000_000, 9_000_000))
        pending_writes.append((due, max(1, int(n_r * rng.uniform(0.3, 0.6)))))
    for due, count in pending_writes:
        t = min(due, cfg.duration - 1_000)
        for _ in range(count):
            t += int(rng.integers(200, 2_000))
            tr.write(pid, t, archive_obj, tr.key(), int(rng.integers(1, 129)) * 4096, tid)
    tr.churn(pid, 0, cfg.duration)
    return "7zip"


def _gen_spawner(tr: _Trace) -> str:
    cfg, rng = tr.cfg, tr.rng
    profile = cfg.spawn_profile or DEFAULT_SPAWNER_PROFILE

    n_target = max(3, int(round(profile.n_processes * rng.uniform(0.85, 1.15))))
    startup_span = int(cfg.duration * rng.uniform(0.15, 0.3))

    root = tr.pid()
    t0 = int(rng.integers(200_000, 900_000))
    tr.start(root, t0, "pycharm64.exe", "pycharm64.exe c:/users/user/documents/projects", 0)
    parents: List[Tuple[int, int]] = [(root, 1)]
    helper_images = ["java.exe", "fsnotifier64.exe", "conhost.exe", "node.exe", "git.exe"]
    for _ in range(n_target - 1):
        t = t0 + int(rng.integers(0, max(startup_span, 1)))
        parent, depth = tr.pick(parents)
        image = tr.pick(helper_images)
        child, _ = tr.spawn(parent, t, image, image, profile, 3, 2_000_000)
        if depth < profile.depth:
            parents.append((child, depth + 1))
    # post-startup: indexing reads, sparse config writes
    t = t0 + startup_span
    tid = tr.tid()
    while t < cfg.duration - 500_000:
        t += int(rng.integers(400_000, 2_400_000))
        roll = rng.random()
        if roll < 0.7:
            obj = tr.key()
            tr.create(root, t, obj, tr.file_name(USER_DIRS[1]), tid)
            for k in range(int(rng.integers(1, 5))):
                tr.read(root, t + 500 * (k + 1), obj, tr.key(), 8192, tid)
        elif roll < 0.85:
            obj = tr.key()
            tr.create(root, t, obj, "c:/users/user/appdata/pycharm/workspace.xml", tid)
            tr.write(root, t + 700, obj, tr.key(), 8192, tid)
    tr.churn(root, 0, cfg.duration)
    return "Pycharm"


def _gen_desktop(tr: _Trace) -> str:
    cfg, rng = tr.cfg, tr.rng
    apps = ("chrome.exe", "winword.exe", "acrord32.exe", "outlook.exe", "vlc.exe")
    pids = {}
    t = 0
    for image in apps[: int(rng.integers(3, len(apps) + 1))]:
        t += int(rng.integers(100_000, 2_000_000))
        pid = tr.pid()
        pids[image] = pid
        tr.start(pid, t, image, image, 0)
        tr.images(pid, t, 2 + int(rng.poisson(1.6)), 2_000, 80_000, EventType.LOAD)

    # one activity level per detection window, so reads and writes couple
    # per window: that is the benign R/W correlation criterion 5 measures
    window = WINDOW_LEN
    tid = tr.tid()
    for w in range(int(cfg.duration // window)):
        base = w * window
        # per-window activity level modulates both reads and (weakly) writes
        level = rng.gamma(2.0, 2.0) * cfg.intensity
        n_reads = int(rng.poisson(2.0 * level))
        n_writes = int(rng.poisson(DESKTOP_RW_NOISE + DESKTOP_RW_COUPLING * 2.0 * level))
        app = tr.pick(list(pids))
        pid = pids[app]
        for _ in range(n_reads):
            ts = base + int(rng.integers(0, window))
            obj = tr.key()
            if rng.random() < 0.3:
                tr.create(pid, ts, obj, tr.file_name(tr.pick(USER_DIRS)), tid)
            tr.read(pid, ts + 300, obj, tr.key(), int(rng.integers(1, 65)) * 4096, tid)
        for _ in range(n_writes):
            ts = base + int(rng.integers(0, window))
            tr.write(pid, ts, tr.key(), tr.key(), int(rng.integers(1, 17)) * 4096, tid)
        # thread and image churn: mostly paired, some orphans
        n_pairs = int(rng.poisson(1.2 * level))
        for _ in range(n_pairs):
            ts = base + int(rng.integers(0, window - 600_000))
            tt = tr.tid()
            tr.thread(pid, ts, EventType.START, pid, tt)
            tr.thread(pid, ts + int(rng.integers(50_000, 550_000)), EventType.END, pid, tt)
        n_img = int(rng.poisson(0.8 * level))
        for _ in range(n_img):
            ts = base + int(rng.integers(0, window - 400_000))
            name = tr.dll()
            tr.image(pid, ts, EventType.LOAD, name, 65536)
            tr.image(pid, ts + int(rng.integers(20_000, 380_000)), EventType.UNLOAD, name, 65536)
        if rng.random() < 0.04 and len(tr.events) > 10:
            # occasional app restart: end + unloads, then a fresh start
            ts = base + int(rng.integers(0, window - 900_000))
            tr.end(pid, ts, app)
            ts = tr.images(pid, ts, 2 + int(rng.poisson(1.0)), 5_000, 60_000, EventType.UNLOAD)
            new_pid = tr.pid()
            pids[app] = new_pid
            ts += int(rng.integers(100_000, 400_000))
            tr.start(new_pid, ts, app, app, 0)
            tr.images(new_pid, ts, 2 + int(rng.poisson(1.0)), 5_000, 60_000, EventType.LOAD)
    return "Desktop"


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
    generate, label = _ARCHETYPES[cfg.archetype]
    tr = _Trace(cfg, np.random.default_rng(cfg.seed))
    family = generate(tr)
    events = tr.events
    events.sort(key=lambda e: e.timestamp)
    last_ts = events[-1].timestamp if events else 0
    manifest = TraceManifest(
        label=label,
        family=family,
        seed=cfg.seed,
        event_count=len(events),
        duration=max(cfg.duration, last_ts),
        attack_onset=tr.info.attack_onset,
    )
    return manifest, events, tr.info


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

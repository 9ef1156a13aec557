"""Shared event constructors and random-trace generation for tests."""

from __future__ import annotations

from typing import List

import numpy as np

from peeler.events import (
    Event,
    EventType,
    FileNameEvent,
    FileRenDelEvent,
    FileRwEvent,
    ImageEvent,
    ProcessEvent,
    ThreadEvent,
)


def ev_proc_start(pid, ts, image="app.exe", cmdline="", parent=0, session=1, tid=100):
    return ProcessEvent(pid, tid, EventType.START, ts, session, parent, image, cmdline)


def ev_proc_end(pid, ts, image="app.exe", parent=0, session=1, tid=100):
    return ProcessEvent(pid, tid, EventType.END, ts, session, parent, image, "")


def ev_read(pid, ts, fk, obj, size=4096, tid=100):
    return FileRwEvent(pid, tid, EventType.READ, ts, fk, obj, size)


def ev_write(pid, ts, fk, obj, size=4096, tid=100):
    return FileRwEvent(pid, tid, EventType.WRITE, ts, fk, obj, size)


def ev_rename(pid, ts, fk, obj, tid=100):
    return FileRenDelEvent(pid, tid, EventType.RENAME, ts, fk, obj)


def ev_delete(pid, ts, fk, obj, tid=100):
    return FileRenDelEvent(pid, tid, EventType.DELETE, ts, fk, obj)


def ev_create(pid, ts, obj, name, tid=100):
    return FileNameEvent(pid, tid, EventType.FILE_CREATE, ts, obj, name)


def ev_fdelete(pid, ts, obj, name, tid=100):
    return FileNameEvent(pid, tid, EventType.FILE_DELETE, ts, obj, name)


def ev_thread_start(pid, ts, parent=0, tid=200):
    return ThreadEvent(pid, tid, EventType.START, ts, parent)


def ev_thread_end(pid, ts, parent=0, tid=200):
    return ThreadEvent(pid, tid, EventType.END, ts, parent)


def ev_image_load(pid, ts, name="lib.dll", size=65536, tid=100):
    return ImageEvent(pid, tid, EventType.LOAD, ts, size, name)


def ev_image_unload(pid, ts, name="lib.dll", size=65536, tid=100):
    return ImageEvent(pid, tid, EventType.UNLOAD, ts, size, name)


def random_events(rng: np.random.Generator, n: int) -> List[Event]:
    """n random valid events with non-decreasing timestamps."""
    makers = [
        lambda pid, ts, r: ev_proc_start(pid, ts, image=f"app{int(r.integers(4))}.exe",
                                         cmdline=f"app{int(r.integers(4))}.exe /run",
                                         parent=int(r.integers(1, 9999))),
        lambda pid, ts, r: ev_proc_end(pid, ts),
        lambda pid, ts, r: ev_read(pid, ts, int(r.integers(1, 2**63)), int(r.integers(1, 2**63)),
                                   size=int(r.integers(1, 1 << 20))),
        lambda pid, ts, r: ev_write(pid, ts, int(r.integers(1, 2**63)), int(r.integers(1, 2**63))),
        lambda pid, ts, r: ev_rename(pid, ts, int(r.integers(1, 2**63)), int(r.integers(1, 2**63))),
        lambda pid, ts, r: ev_delete(pid, ts, int(r.integers(1, 2**63)), int(r.integers(1, 2**63))),
        lambda pid, ts, r: ev_create(pid, ts, int(r.integers(1, 2**63)),
                                     f"c:/users/u/documents/f{int(r.integers(100))}.docx"),
        lambda pid, ts, r: ev_fdelete(pid, ts, int(r.integers(1, 2**63)),
                                      f"c:/users/u/documents/f{int(r.integers(100))}.docx"),
        lambda pid, ts, r: ev_thread_start(pid, ts, parent=int(r.integers(1, 9999))),
        lambda pid, ts, r: ev_thread_end(pid, ts),
        lambda pid, ts, r: ev_image_load(pid, ts, name=f"c:/windows/system32/d{int(r.integers(30))}.dll"),
        lambda pid, ts, r: ev_image_unload(pid, ts, name=f"c:/windows/system32/d{int(r.integers(30))}.dll"),
    ]
    ts = 0
    out = []
    for _ in range(n):
        ts += int(rng.integers(0, 5000))
        maker = makers[int(rng.integers(len(makers)))]
        out.append(maker(int(rng.integers(1, 30000)), ts, rng))
    return out

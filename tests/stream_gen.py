"""Randomized File-event stream generation for matcher/oracle comparison.

Streams mix faithful encryption lineages (with randomized burst lengths),
corrupted lineages, and pure noise over a small shared key space so that
identity-resolution collisions, suppression filters, and dead-end sequences
all get exercised.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List

import numpy as np

from peeler.events import Event
from helpers import (
    ev_create,
    ev_delete,
    ev_fdelete,
    ev_proc_start,
    ev_read,
    ev_rename,
    ev_write,
)

DIRS = ["c:/users/u/documents", "c:/users/u/music", "c:/users/u/pictures"]


class _KeyAlloc:
    """Small key space on purpose: cross-file collisions are part of the test."""

    def __init__(self, rng: np.random.Generator, span: int):
        self.rng = rng
        self.span = span
        self.next_key = 1

    def fresh(self) -> int:
        if self.rng.random() < 0.15:
            return int(self.rng.integers(1, self.span))
        k = self.next_key
        self.next_key += 1
        return k


def _bursts(rng, lo=1, hi=3):
    return int(rng.integers(lo, hi + 1))


def lineage_post_overwrite(rng, pid, keys, dir_path, base) -> List[Callable]:
    a, b1, b2, e = keys.fresh(), keys.fresh(), keys.fresh(), keys.fresh()
    ops = [lambda ts: ev_create(pid, ts, a, f"{dir_path}/{base}")]
    for _ in range(_bursts(rng)):
        ops += [lambda ts: ev_read(pid, ts, a, b1)] * _bursts(rng)
        ops += [lambda ts: ev_write(pid, ts, a, b2)] * _bursts(rng)
        ops += [lambda ts: ev_read(pid, ts, a, b1)] * int(rng.integers(0, 2))
    ops += [
        lambda ts: ev_rename(pid, ts, a, e),
        lambda ts: ev_fdelete(pid, ts, e, f"{dir_path}/{base}"),
        lambda ts: ev_create(pid, ts, e, f"{dir_path}/{base}.enc"),
    ]
    return ops


def lineage_pre_overwrite(rng, pid, keys, dir_path, base) -> List[Callable]:
    a, b, e = keys.fresh(), keys.fresh(), keys.fresh()
    ops = [
        lambda ts: ev_create(pid, ts, a, f"{dir_path}/{base}"),
        lambda ts: ev_rename(pid, ts, a, e),
        lambda ts: ev_fdelete(pid, ts, e, f"{dir_path}/{base}"),
        lambda ts: ev_create(pid, ts, e, f"{dir_path}/{base}.lk"),
    ]
    for _ in range(_bursts(rng)):
        ops += [lambda ts: ev_read(pid, ts, a, b)] * _bursts(rng)
        ops += [lambda ts: ev_write(pid, ts, a, b)] * _bursts(rng)
    return ops


def lineage_file_to_file(rng, pid, keys, dir_path, base) -> List[Callable]:
    a, b, g = keys.fresh(), keys.fresh(), keys.fresh()
    ops = [lambda ts: ev_create(pid, ts, a, f"{dir_path}/{base}")]
    ops += [lambda ts: ev_read(pid, ts, a, b)] * _bursts(rng)
    ops += [lambda ts: ev_create(pid, ts, b, f"{dir_path}/{base}.cr")]
    ops += [lambda ts: ev_write(pid, ts, b, g)] * _bursts(rng)
    for _ in range(int(rng.integers(0, 3))):
        ops += [lambda ts: ev_read(pid, ts, a, b)] * _bursts(rng)
        ops += [lambda ts: ev_write(pid, ts, b, g)] * _bursts(rng)
    ops += [lambda ts: ev_delete(pid, ts, a, b)]
    return ops


def lineage_file_to_file_rename(rng, pid, keys, dir_path, base) -> List[Callable]:
    a, b, g, e = keys.fresh(), keys.fresh(), keys.fresh(), keys.fresh()
    ops = [lambda ts: ev_create(pid, ts, a, f"{dir_path}/{base}")]
    ops += [lambda ts: ev_read(pid, ts, a, b)] * _bursts(rng)
    ops += [lambda ts: ev_create(pid, ts, b, f"{dir_path}/{base}.tmp")]
    ops += [lambda ts: ev_write(pid, ts, b, g)] * _bursts(rng)
    ops += [
        lambda ts: ev_rename(pid, ts, b, e),
        lambda ts: ev_fdelete(pid, ts, a, f"{dir_path}/{base}"),
        lambda ts: ev_create(pid, ts, e, f"{dir_path}/{base}.fin"),
    ]
    return ops


LINEAGES = [
    lineage_post_overwrite,
    lineage_pre_overwrite,
    lineage_file_to_file,
    lineage_file_to_file_rename,
]


def _noise_ops(rng, pid, keys, dir_path, base, n) -> List[Callable]:
    a = keys.fresh()
    choices = [
        lambda ts: ev_create(pid, ts, a, f"{dir_path}/{base}"),
        lambda ts: ev_read(pid, ts, a, keys.fresh()),
        lambda ts: ev_write(pid, ts, a, keys.fresh()),
        lambda ts: ev_rename(pid, ts, keys.fresh(), keys.fresh()),
        lambda ts: ev_delete(pid, ts, keys.fresh(), keys.fresh()),
        lambda ts: ev_fdelete(pid, ts, keys.fresh(), f"{dir_path}/{base}"),
    ]
    return [choices[int(rng.integers(len(choices)))] for _ in range(n)]


def gen_random_stream(seed: int, max_events: int = 200, max_files: int = 5) -> List[Event]:
    """One reproducible stream of <= max_events over <= max_files lineages."""
    rng = np.random.default_rng(seed)
    keys = _KeyAlloc(rng, span=50)
    n_files = int(rng.integers(1, max_files + 1))
    explorer_pid = 9000
    second_pid = 9100
    per_file: List[List[Callable]] = []

    for i in range(n_files):
        pid = int(rng.integers(1000, 8000))
        dir_path = DIRS[int(rng.integers(len(DIRS)))]
        base = f"f{i}_{int(rng.integers(100))}.docx"
        if rng.random() < 0.55:
            ops = LINEAGES[int(rng.integers(4))](rng, pid, keys, dir_path, base)
            # corruptions: break the word, cross pids, or cross directories
            r = rng.random()
            if r < 0.15 and len(ops) > 2:
                del ops[int(rng.integers(1, len(ops)))]
            elif r < 0.30:
                cross = [second_pid, 4, explorer_pid][int(rng.integers(3))]
                k = keys.fresh()
                ops.insert(
                    int(rng.integers(1, len(ops))),
                    lambda ts, p=cross, kk=k: ev_read(p, ts, kk, kk),
                )
            elif r < 0.40:
                other_dir = DIRS[int(rng.integers(len(DIRS)))]
                k = keys.fresh()
                ops.insert(
                    int(rng.integers(1, len(ops))),
                    lambda ts, kk=k, d=other_dir: ev_create(pid, ts, kk, f"{d}/{base}.x"),
                )
            # sometimes the whole lineage is attributed to a second process
            if rng.random() < 0.20:
                idx = int(rng.integers(len(ops)))
                orig = ops[idx]
                swap = [second_pid, 4, explorer_pid][int(rng.integers(3))]
                ops[idx] = lambda ts, f=orig, p=swap: replace(f(ts), pid=p)
        else:
            ops = _noise_ops(rng, pid, keys, dir_path, base, int(rng.integers(2, 14)))
        per_file.append(ops)

    events: List[Event] = []
    ts = 0
    if rng.random() < 0.5:
        events.append(ev_proc_start(explorer_pid, ts, image="explorer.exe"))
        ts += 10
    cursors = [0] * n_files
    while len(events) < max_events and any(c < len(p) for c, p in zip(cursors, per_file)):
        i = int(rng.integers(n_files))
        if cursors[i] >= len(per_file[i]):
            continue
        ts += int(rng.integers(1, 2000))
        events.append(per_file[i][cursors[i]](ts))
        cursors[i] += 1
        if rng.random() < 0.01:
            ts += 1
            events.append(ev_proc_start(int(rng.integers(1000, 8000)), ts, image="helper.exe"))
    return events


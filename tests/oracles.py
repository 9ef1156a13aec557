"""Independent reference implementations used to check the engine.

The pattern-matching oracle re-derives per-file event lists with its own
bookkeeping and matches letter sequences with re.fullmatch on every prefix; it
shares no code with the streaming matcher. Numeric references use
straightforward two-pass formulas. The softmax loss/gradient and the SVM dual
solver references are the original per-row and per-element loops that the
vectorized kernels must reproduce bit for bit, and so are the RBF Gram element
loop and the softmax-probability row loop under the scoring. The window
reference builds every window up to the last event, empty ones included, by
direct indexing, and keeps each window's events. The feature references are
the list-based counters that the per-window accumulator (trace_io.Window)
replaced: an event-pair Counter, and a process tree whose cycle check walks
the ancestry built so far. The reference file I/O matcher is the one that
tombstones replaced: every lineage gets an events list with all its identity
sets, a sweep unregisters an evicted list key by key, and a map of each pid's
latest image feeds its own false-positive filter and blame, each a walk of its
own over the contributing pids.
The trace references are the whole-file decoder that the streaming one
replaced (decode all bytes, split the lines, json.loads each, and pick the
payload type by enum pair) and the whole-file writer that the streaming one
replaced (json.dumps each event, join the lines, encode the file once).
The command-rule reference is written from the CommandRule and
normalize_command docstrings: it finds tokens with one regex rather than a
character loop, turns each glob into a regex with its own translation rather
than fnmatch's, and tries the rules in order with re.fullmatch.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from peeler import fileio
from peeler.errors import ParseError, SchemaError, decode_utf8
from peeler.events import (
    PATTERN_LETTERS,
    Alert,
    Detector,
    Event,
    EventType,
    FileNameEvent,
    FileRenDelEvent,
    FileRwEvent,
    ImageEvent,
    ProcessEvent,
    Provider,
    ThreadEvent,
)
from peeler.features import UNKNOWN_IMAGE, ProcessNode, ProcessTree, SvmFeatures
from peeler.fileio import _DEAD, _HIT, _STEP, PatternKind
from peeler.trace_io import (
    FORMAT_VERSION,
    HEADER_MAGIC,
    TraceLabel,
    TraceManifest,
    Window,
)

ACCEPTOR_REGEXES = [
    (PatternKind.MEM_TO_FILE_POST_OVERWRITE, re.compile(r"C(?:R+W+R*)+NDC"), False),
    (PatternKind.MEM_TO_FILE_PRE_OVERWRITE, re.compile(r"CNDC(?:R+W+R*)+"), False),
    (PatternKind.FILE_TO_FILE_DELETE, re.compile(r"C+(?:R+C?W+R*)+D"), True),
    (PatternKind.FILE_TO_FILE_RENAME_DELETE, re.compile(r"C+(?:R+C?W+R*)+NDC"), True),
]

_LETTER = {
    EventType.FILE_CREATE: "C",
    EventType.READ: "R",
    EventType.WRITE: "W",
    EventType.RENAME: "N",
    EventType.DELETE: "D",
    EventType.FILE_DELETE: "D",
}


class _OracleFile:
    def __init__(self):
        self.letters: List[str] = []
        self.pids = set()
        self.names = set()
        self.objects = set()
        self.keys = set()
        self.matched = False


def _dir_of(name: str) -> str:
    q = name.lower().replace("\\", "/").rstrip("/")
    i = q.rfind("/")
    return q[:i] if i >= 0 else ""


def _stage3_ok(f: _OracleFile, pid_images: Dict[int, str]) -> bool:
    if len(f.names) > 1 and len({_dir_of(n) for n in f.names}) > 1:
        return False
    real = [
        p
        for p in f.pids
        if p != 4 and pid_images.get(p) not in ("system", "explorer.exe")
    ]
    return len(real) <= 1


def brute_force_alerts(events: List[Event]) -> List[Tuple[int, PatternKind]]:
    """All (event index, kind) detections, by exhaustive prefix matching."""
    by_object: Dict[int, _OracleFile] = {}
    by_key: Dict[int, _OracleFile] = {}
    by_name: Dict[str, _OracleFile] = {}
    pid_images: Dict[int, str] = {}
    fired: List[Tuple[int, PatternKind]] = []

    for i, e in enumerate(events):
        if e.provider is Provider.PROCESS:
            image = e.image_file_name
            if image:
                pid_images[e.pid] = image.split("\\")[-1].split("/")[-1].lower()
            continue
        if e.provider is not Provider.FILE:
            continue

        if e.etype in (EventType.FILE_CREATE, EventType.FILE_DELETE):
            obj, name = e.file_object, e.file_name
            f = by_object.get(obj) or by_name.get(name)
            if f is None:
                f = _OracleFile()
            f.objects.add(obj)
            by_object[obj] = f
            f.names.add(name)
            by_name[name] = f
        else:
            fk, obj = e.file_key, e.file_object
            f = by_object.get(fk) or by_key.get(fk) or by_object.get(obj)
            if f is None:
                f = _OracleFile()
            f.keys.add(fk)
            by_key[fk] = f
            f.objects.add(obj)
            by_object[obj] = f

        if f.matched:
            continue
        f.letters.append(_LETTER[e.etype])
        f.pids.add(e.pid)
        seq = "".join(f.letters)
        multi = len(f.objects) >= 2
        for kind, rx, needs_multi in ACCEPTOR_REGEXES:
            if needs_multi and not multi:
                continue
            if rx.fullmatch(seq):
                if _stage3_ok(f, pid_images):
                    f.matched = True
                    fired.append((i, kind))
                break
    return fired


@dataclass
class RefWindow:
    """One reference window and the events in it."""

    index: int
    start: int
    end: int
    events: List[Event] = field(default_factory=list)

    def folded(self) -> Window:
        """The program's Window of the same end with these events folded in."""
        window = Window(self.end)
        for e in self.events:
            window.add(e)
        return window


def ref_window_partition(events: List[Event], window_len: int) -> List[RefWindow]:
    """Tumbling windows [i*window_len, (i+1)*window_len) from t=0 up to the
    last event, contiguous and exhaustive: interior empty windows included."""
    if not events:
        return []
    n = events[-1].timestamp // window_len + 1
    windows = [RefWindow(index=i, start=i * window_len, end=(i + 1) * window_len) for i in range(n)]
    for e in events:
        windows[e.timestamp // window_len].events.append(e)
    return windows


_REF_SVM_KEYS = (
    (Provider.PROCESS, EventType.START),
    (Provider.PROCESS, EventType.END),
    (Provider.IMAGE, EventType.LOAD),
    (Provider.IMAGE, EventType.UNLOAD),
    (Provider.FILE, EventType.READ),
    (Provider.FILE, EventType.WRITE),
    (Provider.THREAD, EventType.START),
    (Provider.THREAD, EventType.END),
)


def ref_extract_svm_features(events: Iterable[Event]) -> SvmFeatures:
    """Count the eight tracked (provider, etype) pairs in a list of events."""
    counts: Counter = Counter()
    for e in events:
        counts[(e.provider, e.etype)] += 1
    return SvmFeatures(*(counts.get(k, 0) for k in _REF_SVM_KEYS))


def ref_build_process_tree(events: Iterable[Event]) -> ProcessTree:
    """The process forest of a list of events; a parent edge is refused as
    a cycle when walking the ancestry assigned so far from the parent leads
    back to the child."""
    images: Dict[int, str] = {}
    started: Dict[int, int] = {}
    threads: Counter = Counter()

    for e in events:
        if e.provider is Provider.PROCESS:
            if e.image_file_name and e.pid not in images:
                images[e.pid] = e.image_file_name
            if e.etype is EventType.START and e.pid not in started:
                started[e.pid] = e.parent_id
        elif e.provider is Provider.THREAD and e.etype is EventType.START:
            threads[e.pid] += 1

    nodes: Dict[int, ProcessNode] = {}
    for pid, parent in started.items():
        nodes[pid] = ProcessNode(pid, parent, images.get(pid, UNKNOWN_IMAGE))
    for pid, parent in started.items():
        if parent != 0 and parent not in nodes:
            nodes[parent] = ProcessNode(parent, 0, images.get(parent, UNKNOWN_IMAGE))
    for pid, node in nodes.items():
        node.thread_count = threads.get(pid, 0)

    tree = ProcessTree(roots=[])
    parent_of: Dict[int, int] = {}
    for pid, node in nodes.items():
        parent = node.parent_pid
        if parent == 0 or parent == pid or parent not in nodes:
            tree.roots.append(node)
            continue
        cursor = parent
        cyclic = False
        while cursor in parent_of:
            cursor = parent_of[cursor]
            if cursor == pid:
                cyclic = True
                break
        if cyclic:
            tree.warnings.append(f"cycle broken at pid {pid} -> parent {parent}")
            tree.roots.append(node)
        else:
            parent_of[pid] = parent
            nodes[parent].children.append(node)
    return tree


class RefFileEventsList:
    """A reference lineage record: every identity set, whatever its first letter."""

    def __init__(self) -> None:
        self.file_objects: Set[int] = set()
        self.file_names: Set[str] = set()
        self.file_keys: Set[int] = set()
        self.contributing_pids: Set[int] = set()
        self.letters: List[str] = []
        self.state = 0
        self.matched: Optional[PatternKind] = None
        self.last_seen_count = 0
        self.last_seen_ts = 0


def ref_is_exempt(pid: int, pid_images: Dict[int, str]) -> bool:
    """True for the system process (pid 4 / image "system") and explorer.exe."""
    return pid == 4 or pid_images.get(pid, "") in ("system", "explorer.exe")


def ref_stage3_filter(lst: RefFileEventsList, pid_images: Dict[int, str]) -> bool:
    """False-positive suppression; True means keep the alert.

    Suppresses when the list's file names do not share one parent directory,
    or when more than one process contributed events after exempting the
    system process and explorer.exe.
    """
    if len({_dir_of(n) for n in lst.file_names}) > 1:
        return False
    return sum(not ref_is_exempt(p, pid_images) for p in lst.contributing_pids) <= 1


class RefFileIoMatcher:
    """The streaming matcher with one events list per lineage, dead-born
    ones included, evicted key by key. It reads the eviction constants of
    peeler.fileio at each call, so a test that patches them patches both."""

    def __init__(self) -> None:
        self._by_object: Dict[int, RefFileEventsList] = {}
        self._by_key: Dict[int, RefFileEventsList] = {}
        self._by_name: Dict[str, RefFileEventsList] = {}
        self._lists: List[RefFileEventsList] = []
        self._pid_images: Dict[int, str] = {}
        self._count = 0

    def _new_list(self) -> RefFileEventsList:
        lst = RefFileEventsList()
        self._lists.append(lst)
        return lst

    def _resolve(self, e: Event) -> RefFileEventsList:
        if e.etype in (EventType.FILE_CREATE, EventType.FILE_DELETE):
            obj, name = e.file_object, e.file_name
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
        fk, obj = e.file_key, e.file_object
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
        if e.provider is not Provider.FILE:
            if e.provider is Provider.PROCESS:
                image = e.image_file_name
                if image:
                    self._pid_images[e.pid] = image.replace("\\", "/").rpartition("/")[2].lower()
            return None
        self._count += 1
        if self._count % fileio.SWEEP_INTERVAL == 0:
            self._sweep(e.timestamp)
        lst = self._resolve(e)
        lst.last_seen_count = self._count
        lst.last_seen_ts = e.timestamp
        if lst.state == _DEAD or lst.matched is not None:
            return None
        letter = PATTERN_LETTERS[e.etype]
        lst.letters.append(letter)
        lst.contributing_pids.add(e.pid)
        lst.state = _STEP[lst.state][letter]
        hit = _HIT[lst.state][len(lst.file_objects) >= 2]
        if hit is None or not ref_stage3_filter(lst, self._pid_images):
            return None
        lst.matched = hit
        candidates = [p for p in lst.contributing_pids if not ref_is_exempt(p, self._pid_images)]
        return Alert(
            detector=Detector.FILE_IO_PATTERN,
            pid=candidates[0] if len(candidates) == 1 else e.pid,
            trigger=hit.value,
            event_timestamp=e.timestamp,
        )

    def _sweep(self, now_ts: int) -> None:
        keep: List[RefFileEventsList] = []
        for lst in self._lists:
            idle_events = self._count - lst.last_seen_count
            idle_us = now_ts - lst.last_seen_ts
            if idle_events > fileio.MAX_IDLE_EVENTS or idle_us > fileio.MAX_IDLE_US:
                self._unregister(lst)
            else:
                keep.append(lst)
        self._lists = keep

    def _unregister(self, lst: RefFileEventsList) -> None:
        for obj in lst.file_objects:
            if self._by_object.get(obj) is lst:
                del self._by_object[obj]
        for fk in lst.file_keys:
            if self._by_key.get(fk) is lst:
                del self._by_key[fk]
        for name in lst.file_names:
            if self._by_name.get(name) is lst:
                del self._by_name[name]


def ref_pearson(xs, ys) -> float:
    """Two-pass Pearson coefficient with fsum accumulation; 0 if degenerate."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def central_difference_gradient(fn, w, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    flat = w.ravel()
    gflat = g.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = fn(w)
        flat[k] = orig - h
        fm = fn(w)
        flat[k] = orig
        gflat[k] = (fp - fm) / (2.0 * h)
    return g


def svm_dual_objective(alphas, y, gram) -> float:
    """W(a) = sum(a) - 1/2 sum_ij a_i a_j y_i y_j K_ij, evaluated naively."""
    n = len(alphas)
    total = math.fsum(alphas)
    quad = 0.0
    for i in range(n):
        if alphas[i] == 0.0:
            continue
        for j in range(n):
            if alphas[j] != 0.0:
                quad += alphas[i] * alphas[j] * y[i] * y[j] * gram[i][j]
    return total - 0.5 * quad


def ref_rbf_gram(A, B, gamma):
    """Element-loop reference for kernels.rbf_gram: each entry from the 1-D
    difference of its two rows."""
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            d = A[i] - B[j]
            out[i, j] = np.exp(-gamma * np.sum(d * d))
    return out


def ref_mlr_probabilities(W, Xb):
    """Row-loop reference for ml.mlr_probabilities_batch on scaled,
    bias-augmented rows Xb: each row's scores, shifted by their max, through
    exp, over their sum."""
    P = np.empty((Xb.shape[0], W.shape[0]))
    for i, xb in enumerate(Xb):
        z = (xb * W).sum(-1)
        e = np.exp(z - z.max())
        P[i] = e / e.sum()
    return P


def ref_mlr_loss_grad(W, Xb, y, l2):
    """Row-loop reference for kernels.mlr_loss_grad.

    L2-regularized mean cross-entropy of softmax regression.
    W: (k, d+1) weights with bias in the last column; Xb: (n, d+1)
    bias-augmented inputs; y: (n,) int class indexes. The bias column is not
    regularized. Returns (loss, gradient).
    """
    n = Xb.shape[0]
    scores = Xb @ W.T
    loss = 0.0
    P = np.empty_like(scores)
    for i in range(n):
        zi = scores[i]
        m = zi.max()
        e = np.exp(zi - m)
        s = e.sum()
        P[i] = e / s
        loss -= np.log(P[i, y[i]])
    loss /= n
    for i in range(n):
        P[i, y[i]] -= 1.0
    G = (P.T @ Xb) / n
    k, d1 = W.shape
    for c in range(k):
        for j in range(d1 - 1):
            loss += 0.5 * l2 * W[c, j] * W[c, j]
            G[c, j] += l2 * W[c, j]
    return loss, G


def ref_smo_solve(gram, y, c, tol, max_passes):
    """Element-loop reference for kernels.smo_solve.

    Maximal-violating-pair ascent on the box-constrained SVM dual.
    gram: (n, n) kernel matrix; y: (n,) labels in {-1, +1}. Works in the
    transformed variables beta_k = y_k * alpha_k under the single constraint
    sum(beta) = 0: each round moves the steepest feasible ascent pair by the
    analytic step, clipped to the box. Stops when the KKT gap
    max_up(G) - min_down(G) drops below tol; pair updates are capped at
    max_passes * n. Returns (alpha, b, passes, converged).
    """
    n = y.shape[0]
    beta = np.zeros(n)
    G = y.astype(np.float64).copy()  # dW/dbeta_k = y_k - sum_l beta_l K_kl
    max_iter = max_passes * n
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        gi = -1
        gmax = -1e300
        gj = -1
        gmin = 1e300
        for k in range(n):
            if y[k] > 0.0:
                upper = c
                lower = 0.0
            else:
                upper = 0.0
                lower = -c
            bk = beta[k]
            gk = G[k]
            if bk < upper - 1e-12 and gk > gmax:
                gmax = gk
                gi = k
            if bk > lower + 1e-12 and gk < gmin:
                gmin = gk
                gj = k
        if gi < 0 or gj < 0 or gmax - gmin <= tol:
            converged = True
            break
        upper_i = c if y[gi] > 0.0 else 0.0
        lower_j = 0.0 if y[gj] > 0.0 else -c
        room = min(upper_i - beta[gi], beta[gj] - lower_j)
        denom = gram[gi, gi] + gram[gj, gj] - 2.0 * gram[gi, gj]
        if denom > 1e-12:
            lam = (gmax - gmin) / denom
            if lam > room:
                lam = room
        else:
            lam = room
        beta[gi] += lam
        beta[gj] -= lam
        G -= lam * (gram[gi] - gram[gj])
    # bias: mean gradient over non-bound vectors, else the KKT midpoint
    nb_sum = 0.0
    nb_cnt = 0
    for k in range(n):
        if y[k] > 0.0:
            upper = c
            lower = 0.0
        else:
            upper = 0.0
            lower = -c
        if lower + 1e-9 < beta[k] < upper - 1e-9:
            nb_sum += G[k]
            nb_cnt += 1
    if nb_cnt > 0:
        b = nb_sum / nb_cnt
    else:
        ub = -1e300
        lb = 1e300
        for k in range(n):
            if y[k] > 0.0:
                upper = c
                lower = 0.0
            else:
                upper = 0.0
                lower = -c
            if beta[k] < upper - 1e-12 and G[k] > ub:
                ub = G[k]
            if beta[k] > lower + 1e-12 and G[k] < lb:
                lb = G[k]
        if ub > -1e299 and lb < 1e299:
            b = 0.5 * (ub + lb)
        elif ub > -1e299:
            b = ub
        elif lb < 1e299:
            b = lb
        else:
            b = 0.0
    alpha = beta * y
    passes = (it + n - 1) // n if n > 0 else 0
    return alpha, b, passes, converged


# --- whole-file trace decoder -------------------------------------------------

_REF_PROVIDER = {p.value: p for p in Provider}
_REF_ETYPE = {t.value: t for t in EventType}


_REF_U64 = 1 << 64


def _ref_u64(value, name: str, lineno: int) -> int:
    if type(value) is int and 0 <= value < _REF_U64:
        return value
    got = "out of range" if type(value) is int else type(value).__name__
    raise ParseError(lineno, f"{name} must be an integer in [0, 2^64), got {got}")


def _ref_str(value, name: str, lineno: int) -> str:
    if type(value) is str:
        return value
    raise ParseError(lineno, f"{name} must be a string, got {type(value).__name__}")


def _ref_key_in(value, name: str, lineno: int) -> int:
    """A plain integer, or "0x" and lowercase hex digits with no leading zero."""
    if type(value) is str:
        if re.fullmatch(r"0x(?:0|[1-9a-f][0-9a-f]*)", value) and int(value, 16) < _REF_U64:
            return int(value, 16)
        raise ParseError(lineno, f"{name} is not 0x and lowercase hex digits")
    return _ref_u64(value, name, lineno)


def _ref_json_loads(text: str, lineno: int, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"{what}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(lineno, f"{what}: {exc}") from None


# the class of each valid (provider, etype) pair, as the format spells it
_REF_CLASS = {
    ("Process", "Start"): ProcessEvent,
    ("Process", "End"): ProcessEvent,
    ("File", "Read"): FileRwEvent,
    ("File", "Write"): FileRwEvent,
    ("File", "Rename"): FileRenDelEvent,
    ("File", "Delete"): FileRenDelEvent,
    ("File", "FileCreate"): FileNameEvent,
    ("File", "FileDelete"): FileNameEvent,
    ("Thread", "Start"): ThreadEvent,
    ("Thread", "End"): ThreadEvent,
    ("Image", "Load"): ImageEvent,
    ("Image", "Unload"): ImageEvent,
}


def _ref_payload(provider: Provider, etype: EventType, obj: dict, lineno: int):
    """The event class of the pair, and the line's payload fields as keywords."""
    cls = _REF_CLASS.get((provider.value, etype.value))
    if cls is None:
        raise ParseError(lineno, f"etype {etype.value} invalid for provider {provider.value}")
    try:
        if cls is FileRwEvent:
            return cls, dict(
                file_key=_ref_key_in(obj["file_key"], "file_key", lineno),
                file_object=_ref_key_in(obj["file_object"], "file_object", lineno),
                io_size=_ref_u64(obj["io_size"], "io_size", lineno),
            )
        if cls is FileNameEvent:
            file_object = _ref_key_in(obj["file_object"], "file_object", lineno)
            file_name = _ref_str(obj["file_name"], "file_name", lineno)
            if not file_name:
                raise SchemaError(f"line {lineno}: invalid event: attrs.file_name: empty")
            return cls, dict(file_object=file_object, file_name=file_name)
        if cls is FileRenDelEvent:
            return cls, dict(
                file_key=_ref_key_in(obj["file_key"], "file_key", lineno),
                file_object=_ref_key_in(obj["file_object"], "file_object", lineno),
            )
        if cls is ProcessEvent:
            return cls, dict(
                session_id=_ref_u64(obj["session_id"], "session_id", lineno),
                parent_id=_ref_u64(obj["parent_id"], "parent_id", lineno),
                image_file_name=_ref_str(obj["image"], "image", lineno),
                command_line=_ref_str(obj["cmdline"], "cmdline", lineno),
            )
        if cls is ThreadEvent:
            return cls, dict(parent_id=_ref_u64(obj["parent_id"], "parent_id", lineno))
        return cls, dict(
            image_size=_ref_u64(obj["image_size"], "image_size", lineno),
            file_name=_ref_str(obj["file_name"], "file_name", lineno),
        )
    except KeyError as exc:
        raise ParseError(lineno, f"missing attribute key {exc.args[0]!r}") from None


def _ref_line_to_event(line: str, lineno: int) -> Event:
    obj = _ref_json_loads(line, lineno, "invalid JSON")
    if type(obj) is not dict:
        raise ParseError(lineno, "event line is not an object")
    try:
        provider = _REF_PROVIDER[obj["prov"]]
        etype = _REF_ETYPE[obj["etype"]]
        pid = obj["pid"]
        tid = obj["tid"]
        ts = obj["ts"]
    except KeyError as exc:
        raise ParseError(lineno, f"missing or unknown key/value {exc.args[0]!r}") from None
    except TypeError:
        raise ParseError(lineno, "prov and etype must be strings") from None
    for name in ("pid", "tid", "ts"):
        _ref_u64(obj[name], name, lineno)
    cls, payload = _ref_payload(provider, etype, obj, lineno)
    return cls(pid=pid, tid=tid, etype=etype, timestamp=ts, **payload)


def _ref_manifest(text: str, lineno: int) -> TraceManifest:
    d = _ref_json_loads(text, lineno, "invalid manifest JSON")
    if type(d) is not dict:
        raise ParseError(lineno, "manifest is not an object")
    try:
        return TraceManifest(
            label=TraceLabel(_ref_str(d["label"], "label", lineno)),
            family=_ref_str(d["family"], "family", lineno),
            seed=_ref_u64(d["seed"], "seed", lineno),
            event_count=_ref_u64(d["event_count"], "event_count", lineno),
            duration=_ref_u64(d["duration"], "duration", lineno),
            attack_onset=_ref_u64(d.get("attack_onset", 0), "attack_onset", lineno),
        )
    except KeyError as exc:
        raise ParseError(lineno, f"manifest missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ParseError(lineno, f"bad manifest value: {exc}") from None


def ref_read_trace(source) -> Tuple[TraceManifest, List[Event]]:
    """Decode a whole trace at once: the file, then its lines, then events."""
    text = decode_utf8(source.read())
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "empty trace file")
    header = lines[0]
    if not header.startswith(HEADER_MAGIC + " "):
        raise ParseError(1, "missing trace header magic")
    rest = header[len(HEADER_MAGIC) + 1 :]
    version, _, manifest_json = rest.partition(" ")
    if version != FORMAT_VERSION:
        raise ParseError(1, f"unsupported trace format version {version!r}")
    manifest = _ref_manifest(manifest_json, 1)

    events: List[Event] = []
    prev_ts = -1
    for i, line in enumerate(lines[1:], start=2):
        e = _ref_line_to_event(line, i)
        if e.timestamp < prev_ts:
            raise SchemaError(f"line {i}: non-monotonic timestamp")
        prev_ts = e.timestamp
        events.append(e)

    if manifest.event_count != len(events):
        raise SchemaError(
            f"manifest event_count {manifest.event_count} != body event count {len(events)}"
        )
    if events and manifest.duration < events[-1].timestamp:
        raise SchemaError("manifest duration precedes last event timestamp")
    return manifest, events


# --- whole-file trace writer --------------------------------------------------


def _ref_key_out(value: int) -> str:
    return "0x%x" % value


def _ref_payload_fields(e: Event) -> List[Tuple[str, object]]:
    if type(e) is FileRwEvent:
        return [
            ("file_key", _ref_key_out(e.file_key)),
            ("file_object", _ref_key_out(e.file_object)),
            ("io_size", e.io_size),
        ]
    if type(e) is FileNameEvent:
        return [("file_object", _ref_key_out(e.file_object)), ("file_name", e.file_name)]
    if type(e) is FileRenDelEvent:
        return [("file_key", _ref_key_out(e.file_key)), ("file_object", _ref_key_out(e.file_object))]
    if type(e) is ProcessEvent:
        return [
            ("session_id", e.session_id),
            ("parent_id", e.parent_id),
            ("image", e.image_file_name),
            ("cmdline", e.command_line),
        ]
    if type(e) is ThreadEvent:
        return [("parent_id", e.parent_id)]
    return [("image_size", e.image_size), ("file_name", e.file_name)]


def ref_event_to_line(e: Event) -> str:
    """Serialize one event as its canonical wire line (no newline)."""
    d = {
        "ts": e.timestamp,
        "pid": e.pid,
        "tid": e.tid,
        "prov": e.provider.value,
        "etype": e.etype.value,
    }
    for key, value in _ref_payload_fields(e):
        d[key] = value
    return json.dumps(d, separators=(",", ":"), ensure_ascii=False)


def _ref_manifest_to_json(m: TraceManifest) -> str:
    d = {
        "label": m.label.value,
        "family": m.family,
        "seed": m.seed,
        "event_count": m.event_count,
        "duration": m.duration,
        "attack_onset": m.attack_onset,
    }
    return json.dumps(d, separators=(",", ":"), ensure_ascii=False)


def ref_write_trace(manifest: TraceManifest, events: List[Event], sink) -> None:
    """Write a whole trace at once: every line, joined, encoded in one go."""
    out = [f"{HEADER_MAGIC} {FORMAT_VERSION} {_ref_manifest_to_json(manifest)}\n"]
    out.extend(ref_event_to_line(e) + "\n" for e in events)
    sink.write("".join(out).encode("utf-8"))


# --- command rules ------------------------------------------------------------

# every character that str.isspace accepts, as the members of a regex class
_REF_SPACES = "".join(re.escape(c) for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
# a token: characters that are neither a space nor a quote, and quoted
# segments (spaces kept; an unclosed one runs to the end of the line)
_REF_TOKEN = re.compile(f'(?:[^"{_REF_SPACES}]|"[^"]*(?:"|\\Z))+')


def ref_normalize_command(command_line: str) -> Tuple[str, List[str]]:
    """(utility, argument tokens) as normalize_command's docstring states
    them: each token is one match of a regex, its quotes dropped."""
    tokens = [t for t in (m.replace('"', "") for m in _REF_TOKEN.findall(command_line)) if t]
    if not tokens:
        return "", []
    utility = tokens[0].replace("\\", "/").rpartition("/")[2].lower()
    if utility.endswith(".exe"):
        utility = utility[:-4]
    return utility, [t.lower() for t in tokens[1:]]


def _ref_class(body: str) -> str:
    """The regex class for the members between [ and ] of a glob class: a
    leading ! negates, and x-y between two members is a range."""
    negate = body.startswith("!")
    if negate:
        body = body[1:]
    members, i = [], 0
    while i < len(body):
        if i + 2 < len(body) and body[i + 1] == "-":
            members.append(f"{re.escape(body[i])}-{re.escape(body[i + 2])}")
            i += 3
        else:
            members.append(re.escape(body[i]))
            i += 1
    return "[" + "^" * negate + "".join(members) + "]"


@functools.cache
def _ref_glob(pattern: str) -> re.Pattern:
    """The compiled regex for a whole-token glob, as CommandRule's docstring
    states it: * is any run of characters, ? any one, [...] a class. A [
    with no ] after it (a ] right after [ or [! being a member) is itself."""
    out, i = [], 0
    while i < len(pattern):
        c = pattern[i]
        i += 1
        close = -1
        if c == "[":
            first = i + (pattern[i:i + 1] == "!")
            close = pattern.find("]", first + (pattern[first:first + 1] == "]"))
        if c == "*":
            out.append(".*")
        elif c == "?":
            out.append(".")
        elif close >= 0:
            out.append(_ref_class(pattern[i:close]))
            i = close + 1
        else:
            out.append(re.escape(c))
    return re.compile("".join(out), re.DOTALL)


def ref_command_match(rules, command_line: str) -> Optional[str]:
    """The id of the first of rules (CommandRules, in file order) whose
    utility is the command's and each of whose tokens matches some whole
    argument token, or None."""
    utility, args = ref_normalize_command(command_line)
    for rule in rules:
        if rule.utility == utility and all(
            any(_ref_glob(tok).fullmatch(arg) for arg in args) for tok in rule.required_tokens
        ):
            return rule.id
    return None

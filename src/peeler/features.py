"""Per-window process trees, feature vectors, and event-count correlations.

Two feature views feed the classifiers: the process-tree shape of a window
(spawn-heavy screen lockers stand out) and raw per-window event-type counts
(crypto I/O storms stand out). Trees are rebuilt per window from that
window's events only, so windows stay independent samples. Every function
here reads a trace_io.Window, whose counts and maps fold in the window's
events as they arrive; the list-taking helpers fold a sequence of events
into one Window first. The two feature vectors are the one row per window
that detect scores and eval keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .errors import CorpusError
from .events import Event
from .trace_io import TraceLabel, TraceManifest, Window

UNKNOWN_IMAGE = "?"


@dataclass
class ProcessNode:
    pid: int
    parent_pid: int
    image_name: str
    thread_count: int = 0
    children: List["ProcessNode"] = field(default_factory=list)


@dataclass
class ProcessTree:
    """Forest of processes observed in one window; cycle-breaking edges are
    recorded as warnings rather than errors."""

    roots: List[ProcessNode]
    warnings: List[str] = field(default_factory=list)

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def walk(self):
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)


class _FeatureVector:
    def as_vector(self) -> np.ndarray:
        """The fields in declaration order, which a model's columns follow."""
        return np.array([getattr(self, name) for name in self.__dataclass_fields__], dtype=np.float64)


@dataclass(frozen=True)
class MlrFeatures(_FeatureVector):
    """Process-tree feature vector (tree-model input)."""

    n_processes: int
    n_threads_total: int
    max_depth: int
    n_leaf_nodes: int
    n_unique_image_names: int


@dataclass(frozen=True)
class SvmFeatures(_FeatureVector):
    """Per-window event-type counts (frequency-model input)."""

    n_process_start: int
    n_process_end: int
    n_image_load: int
    n_image_unload: int
    n_file_read: int
    n_file_write: int
    n_thread_start: int
    n_thread_end: int


# Row widths of the two feature vectors; a model file must match them.
MLR_WIDTH = len(MlrFeatures.__dataclass_fields__)
SVM_WIDTH = len(SvmFeatures.__dataclass_fields__)


def _window(source: Union[Window, Iterable[Event]]) -> Window:
    """source itself when it is a Window, else its events folded into one."""
    if isinstance(source, Window):
        return source
    window = Window(0)
    for e in source:
        window.add(e)
    return window


def build_process_tree(source: Union[Window, Iterable[Event]]) -> ProcessTree:
    """Build the process forest of one window (or of a sequence of events).

    One node per pid with a Process Start event, plus stub nodes for parents
    referenced by parent_id but not started in the window (image name taken
    from any Process event of that pid when available, "?" otherwise).
    parent_id 0 means parentless. thread_count counts Thread Start events
    attributed to the node's pid. A parent edge that would close a cycle is
    dropped (the child becomes a root) and recorded as a warning.
    """
    w = _window(source)
    images = w.images
    threads = w.threads
    started = w.started
    nodes: Dict[int, ProcessNode] = {}
    for pid, parent in started.items():
        nodes[pid] = ProcessNode(pid, parent, images.get(pid, UNKNOWN_IMAGE), threads.get(pid, 0))
    for parent in started.values():
        if parent != 0 and parent not in nodes:
            nodes[parent] = ProcessNode(
                parent, 0, images.get(parent, UNKNOWN_IMAGE), threads.get(parent, 0))

    tree = ProcessTree(roots=[])
    # union-find over the edges kept so far: up leads towards the root of a
    # pid's tree. pid has no edge of its own when its edge is tried, so it is
    # a root, and pid -> parent closes a cycle exactly when the root of
    # parent's tree is pid.
    up: Dict[int, int] = {}
    for pid, node in nodes.items():
        parent = node.parent_pid
        if parent == 0 or parent == pid:
            tree.roots.append(node)
            continue
        root = parent
        while root in up:
            root = up[root]
        while parent != root:  # path compression
            up[parent], parent = root, up[parent]
        if root == pid:
            tree.warnings.append(f"cycle broken at pid {pid} -> parent {node.parent_pid}")
            tree.roots.append(node)
        else:
            up[pid] = root
            nodes[node.parent_pid].children.append(node)
    return tree


def extract_mlr_features(tree: ProcessTree) -> MlrFeatures:
    """Count tree shape features; root depth is 1, a leaf has no children.

    Stub nodes with unknown images do not count toward unique image names.
    """
    n_processes = 0
    n_threads = 0
    n_leaves = 0
    max_depth = 0
    names = set()
    stack = [(root, 1) for root in tree.roots]
    while stack:
        node, depth = stack.pop()
        n_processes += 1
        n_threads += node.thread_count
        if depth > max_depth:
            max_depth = depth
        if not node.children:
            n_leaves += 1
        if node.image_name != UNKNOWN_IMAGE:
            names.add(node.image_name.lower())
        stack.extend((c, depth + 1) for c in node.children)
    return MlrFeatures(n_processes, n_threads, max_depth, n_leaves, len(names))


def extract_svm_features(source: Union[Window, Iterable[Event]]) -> SvmFeatures:
    """The eight tracked (provider, etype) counts of one window (or of a
    sequence of events)."""
    w = _window(source)
    return SvmFeatures(
        w.n_process_start, w.n_process_end, w.n_image_load, w.n_image_unload,
        w.n_file_read, w.n_file_write, w.n_thread_start, w.n_thread_end,
    )


def window_features(source: Union[Window, Iterable[Event]]) -> Tuple[MlrFeatures, SvmFeatures]:
    w = _window(source)
    return extract_mlr_features(build_process_tree(w)), extract_svm_features(w)


def pearson_flagged(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, bool]:
    """Pearson product-moment coefficient plus a degenerate flag.

    Returns (0.0, True) when either series has zero variance; raises
    ValueError on length mismatch or fewer than two points.
    """
    if len(xs) != len(ys):
        raise ValueError("series length mismatch")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return 0.0, True
    return float(dx @ dy) / float(np.sqrt(sxx) * np.sqrt(syy)), False


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    return pearson_flagged(xs, ys)[0]


CORRELATION_PAIRS = (
    ("File Read", "File Write", "n_file_read", "n_file_write"),
    ("Process End", "Image Unload", "n_process_end", "n_image_unload"),
    ("Process Start", "Image Load", "n_process_start", "n_image_load"),
    ("Thread Start", "Thread End", "n_thread_start", "n_thread_end"),
)


@dataclass
class CorrelationCell:
    coefficient: float
    degenerate: bool


@dataclass
class CorrelationRow:
    pair: Tuple[str, str]
    ransomware: CorrelationCell
    benign: CorrelationCell


@dataclass
class CorrelationReport:
    rows: List[CorrelationRow]
    n_ransomware_windows: int
    n_benign_windows: int

    def as_table(self) -> str:
        lines = [" | ".join(["events pair", "ransomware", "benign"])]
        for row in self.rows:
            cells = []
            for cell in (row.ransomware, row.benign):
                cells.append("degenerate" if cell.degenerate else f"{cell.coefficient:.4f}")
            lines.append(" | ".join([f"({row.pair[0]}, {row.pair[1]})"] + cells))
        return "\n".join(lines)


def correlation_report(
    corpus: Iterable[Tuple[TraceManifest, Iterable[Window]]],
) -> CorrelationReport:
    """Per-window count correlations for the four tracked event pairs,
    computed separately over ransomware-labeled and benign-labeled traces."""
    return correlations_from_rows(
        (manifest.label, (extract_svm_features(w).as_vector() for w in windows))
        for manifest, windows in corpus
    )


def correlations_from_rows(
    traces: Iterable[Tuple[TraceLabel, Iterable[np.ndarray]]],
) -> CorrelationReport:
    """correlation_report over each trace's SvmFeatures rows, in window order.

    Traces labeled UNKNOWN are skipped without reading their rows.
    """
    groups: Dict[bool, List[np.ndarray]] = {True: [], False: []}
    for label, rows in traces:
        if label is TraceLabel.UNKNOWN:
            continue
        groups[label.is_ransomware].extend(rows)
    if not groups[True] and not groups[False]:
        raise CorpusError("corpus is empty")

    field_index = {name: i for i, name in enumerate(SvmFeatures.__dataclass_fields__)}
    stacked = {
        key: (np.vstack(vecs) if vecs else np.zeros((0, SVM_WIDTH))) for key, vecs in groups.items()
    }

    rows = []
    for xname, yname, xfield, yfield in CORRELATION_PAIRS:
        cells = {}
        for key, mat in stacked.items():
            if mat.shape[0] < 2:
                cells[key] = CorrelationCell(0.0, True)
            else:
                r, degenerate = pearson_flagged(mat[:, field_index[xfield]], mat[:, field_index[yfield]])
                cells[key] = CorrelationCell(r, degenerate)
        rows.append(CorrelationRow((xname, yname), cells[True], cells[False]))
    return CorrelationReport(
        rows=rows,
        n_ransomware_windows=stacked[True].shape[0],
        n_benign_windows=stacked[False].shape[0],
    )

"""Process trees, feature vectors, Pearson, and the correlation report."""

import time

import numpy as np
import pytest

from peeler.errors import CorpusError
from peeler.events import EventType, Provider
from peeler.features import (
    CORRELATION_PAIRS,
    MlrFeatures,
    SvmFeatures,
    build_process_tree,
    correlation_report,
    correlations_from_rows,
    extract_mlr_features,
    extract_svm_features,
    pearson,
    pearson_flagged,
    window_features,
)
from peeler.trace_io import TraceLabel, TraceManifest, window_partition
from helpers import (
    ev_proc_end,
    ev_proc_start,
    ev_read,
    ev_thread_start,
    ev_write,
    random_events,
)
from oracles import ref_build_process_tree, ref_extract_svm_features, ref_pearson
from tree_fixtures import APP_PROFILES, REPORTED_DEPTHS, app_profile_events


def test_unseen_parent_becomes_stub_root():
    tree = build_process_tree([ev_proc_start(10, 0, image="child.exe", parent=1)])
    assert len(tree.roots) == 1
    root = tree.roots[0]
    assert root.pid == 1 and root.image_name == "?"
    assert [c.pid for c in root.children] == [10]
    assert tree.node_count() == 2


def test_stub_image_recovered_from_end_event():
    events = [
        ev_proc_start(10, 0, image="child.exe", parent=1),
        ev_proc_end(1, 5, image="parent.exe"),
    ]
    tree = build_process_tree(events)
    assert tree.roots[0].image_name == "parent.exe"


def test_locker_style_replication_depth():
    events = [ev_proc_start(1, 0, image="locker.exe", parent=0)]
    ts, pid = 1, 1
    level1 = []
    for _ in range(4):
        pid += 1
        level1.append(pid)
        events.append(ev_proc_start(pid, ts, image="locker.exe", parent=1))
        ts += 1
    for parent in level1:
        for _ in range(3):
            pid += 1
            events.append(ev_proc_start(pid, ts, image="locker.exe", parent=parent))
            ts += 1
    feats = extract_mlr_features(build_process_tree(events))
    assert feats.max_depth >= 3
    assert feats.n_processes == 17
    assert feats.n_unique_image_names == 1


def test_duplicate_start_keeps_one_node():
    events = [
        ev_proc_start(10, 0, image="a.exe", parent=0),
        ev_proc_start(10, 5, image="a.exe", parent=0),
    ]
    assert build_process_tree(events).node_count() == 1


def test_cycle_is_broken_with_warning():
    events = [
        ev_proc_start(10, 0, image="a.exe", parent=20),
        ev_proc_start(20, 1, image="b.exe", parent=10),
    ]
    tree = build_process_tree(events)
    assert tree.warnings
    assert tree.node_count() == 2
    assert len(tree.roots) == 1  # one edge kept, one refused


def test_thread_counts_join_on_pid():
    events = [
        ev_proc_start(10, 0, image="a.exe", parent=0),
        ev_thread_start(10, 1),
        ev_thread_start(10, 2),
        ev_thread_start(999, 3),  # no such process node
    ]
    tree = build_process_tree(events)
    assert tree.roots[0].thread_count == 2
    assert extract_mlr_features(tree).n_threads_total == 2


def test_empty_tree_features_are_zero():
    feats = extract_mlr_features(build_process_tree([]))
    assert feats == MlrFeatures(0, 0, 0, 0, 0)


@pytest.mark.parametrize("name", list(APP_PROFILES))
def test_app_profile_trees_reproduce_reported_cells(name):
    n_proc, node_depth, n_leaves, n_unique, n_threads = APP_PROFILES[name]
    feats = extract_mlr_features(build_process_tree(app_profile_events(name)))
    assert feats.n_processes == n_proc
    assert feats.max_depth == node_depth
    assert feats.max_depth - 1 == REPORTED_DEPTHS[name]
    assert feats.n_leaf_nodes == n_leaves
    assert feats.n_unique_image_names == n_unique
    assert feats.n_threads_total == n_threads


def test_tree_nodes_at_least_distinct_start_pids():
    rng = np.random.default_rng(17)
    for _ in range(10):
        events = random_events(rng, 150)
        tree = build_process_tree(events)
        start_pids = {
            e.pid
            for e in events
            if e.provider is Provider.PROCESS and e.etype is EventType.START
        }
        assert tree.node_count() >= len(start_pids)


def _tree_shape(tree):
    """Roots, each node with its fields and children, and warnings, in order."""
    nodes = [(n.pid, n.parent_pid, n.image_name, n.thread_count, [c.pid for c in n.children])
             for n in tree.walk()]
    return [r.pid for r in tree.roots], nodes, tree.warnings


def test_tree_equals_reference_on_random_graphs():
    rng = np.random.default_rng(31)
    makers = (ev_proc_start, ev_proc_start, ev_proc_start, ev_proc_end, ev_thread_start)
    for _ in range(20_000):
        n = int(rng.integers(1, 13))
        events = []
        for ts in range(int(rng.integers(1, 2 * n + 2))):
            pid = int(rng.integers(1, n + 1))
            make = makers[int(rng.integers(len(makers)))]
            if make is ev_thread_start:
                events.append(make(pid, ts))
            else:
                image = ["", "a.exe", "B.exe"][int(rng.integers(3))]
                events.append(make(pid, ts, image=image, parent=int(rng.integers(0, n + 1))))
        assert _tree_shape(build_process_tree(events)) == _tree_shape(ref_build_process_tree(events))


def test_long_start_chain_builds_in_linear_time():
    n = 100_000
    events = [ev_proc_start(pid, pid, image="s.exe", parent=pid - 1) for pid in range(1, n + 1)]
    # a child started before its parent, and a parent edge back into the chain
    events += [ev_proc_start(n + 2, n + 1, parent=n + 3), ev_proc_start(n + 3, n + 2, parent=n + 2)]
    events.append(ev_proc_start(n + 10, n + 3, parent=n))
    start = time.perf_counter()
    tree = build_process_tree(events)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    assert tree.node_count() == n + 3
    assert tree.warnings == [f"cycle broken at pid {n + 3} -> parent {n + 2}"]
    assert extract_mlr_features(tree).max_depth == n + 1


def test_svm_counts_equal_reference_on_random_events():
    rng = np.random.default_rng(37)
    for _ in range(50):
        events = random_events(rng, int(rng.integers(0, 300)))
        assert extract_svm_features(events) == ref_extract_svm_features(events)


def test_svm_counts_empty_window():
    assert extract_svm_features([]).as_vector().tolist() == [0.0] * 8


def test_svm_counts_reads_writes_only():
    events = [ev_read(1, t, 0xA, 0xB) for t in range(5)] + [
        ev_write(1, 5 + t, 0xA, 0xB) for t in range(5)
    ]
    assert extract_svm_features(events) == SvmFeatures(0, 0, 0, 0, 5, 5, 0, 0)


def test_svm_counts_order_insensitive():
    rng = np.random.default_rng(23)
    events = random_events(rng, 200)
    shuffled = list(events)
    rng.shuffle(shuffled)
    assert extract_svm_features(events) == extract_svm_features(shuffled)


def test_window_sums_equal_whole_trace_counts():
    rng = np.random.default_rng(29)
    events = random_events(rng, 500)
    whole = extract_svm_features(events).as_vector()
    windows = window_partition(events, 250_000)
    summed = np.sum([extract_svm_features(w).as_vector() for w in windows], axis=0)
    assert np.array_equal(whole, summed)


def test_pearson_identity_and_negation():
    xs = [1.0, 2.0, 4.0, 8.0]
    assert pearson(xs, xs) == pytest.approx(1.0, abs=1e-12)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_degenerate_flag():
    r, degenerate = pearson_flagged([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])
    assert r == 0.0 and degenerate


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1.0], [1.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_matches_reference_within_1e12():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 200))
        scale = 10.0 ** rng.integers(-3, 6)
        xs = (rng.normal(size=n) * scale + rng.normal() * scale).tolist()
        ys = (rng.normal(size=n) * scale + np.asarray(xs) * rng.normal()).tolist()
        got = pearson(xs, ys)
        want = ref_pearson(xs, ys)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _mini_corpus():
    rng = np.random.default_rng(37)
    crypto_events = random_events(rng, 400)
    benign_events = random_events(rng, 400)
    return [
        (
            TraceManifest(TraceLabel.CRYPTO, "fam", 1, len(crypto_events), crypto_events[-1].timestamp),
            window_partition(crypto_events, 100_000),
        ),
        (
            TraceManifest(TraceLabel.BENIGN, "app", 2, len(benign_events), benign_events[-1].timestamp),
            window_partition(benign_events, 100_000),
        ),
    ]


def test_correlation_report_shape():
    report = correlation_report(_mini_corpus())
    assert len(report.rows) == 4
    assert [r.pair for r in report.rows] == [(x, y) for x, y, _, _ in CORRELATION_PAIRS]
    table = report.as_table()
    assert "File Read" in table and table.count("\n") == 4


def test_correlation_report_single_window_degenerate():
    events = [ev_read(1, 10, 0xA, 0xB)]
    corpus = [
        (TraceManifest(TraceLabel.CRYPTO, "f", 1, 1, 10), window_partition(events, 10**6)),
        (TraceManifest(TraceLabel.BENIGN, "b", 2, 1, 10), window_partition(events, 10**6)),
    ]
    report = correlation_report(corpus)
    assert all(r.ransomware.degenerate and r.benign.degenerate for r in report.rows)


def test_correlation_report_empty_corpus_rejected():
    with pytest.raises(CorpusError, match="^corpus is empty$"):
        correlation_report([])


def test_correlation_rows_of_an_unknown_trace_are_not_read():
    def unread():
        raise AssertionError("the rows of an unknown trace were read")
        yield

    rows = [np.arange(8.0), np.arange(8.0) ** 2]
    with_unknown = correlations_from_rows([(TraceLabel.UNKNOWN, unread()), (TraceLabel.BENIGN, rows)])
    assert with_unknown == correlations_from_rows([(TraceLabel.BENIGN, rows)])
    assert (with_unknown.n_ransomware_windows, with_unknown.n_benign_windows) == (0, 2)
    with pytest.raises(CorpusError, match="^corpus is empty$"):
        correlations_from_rows([(TraceLabel.UNKNOWN, unread())])


def test_window_features_combined():
    events = [ev_proc_start(1, 0, image="a.exe"), ev_read(1, 1, 0xA, 0xB)]
    mlr, svm = window_features(events)
    assert mlr.n_processes == 1 and svm.n_file_read == 1

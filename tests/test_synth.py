"""Trace synthesis: determinism, validity, label soundness, corpora."""

import hashlib
import io
from pathlib import Path

import pytest

from peeler.events import validate_event
from peeler.features import build_process_tree, extract_mlr_features
from peeler.fileio import FileIoMatcher, PatternKind
from peeler.synth import (
    DEFAULT_LOCKER_PROFILE,
    DEFAULT_SPAWNER_PROFILE,
    SpawnProfile,
    SynthConfig,
    default_corpus_spec,
    derive_seed,
    read_corpus_index,
    synth_corpus,
    synth_trace,
    synth_trace_detailed,
)
from peeler.trace_io import load_trace, write_trace
from peeler.commands import CommandMatcher, load_rules_file, default_rules_path
from oracles import ACCEPTOR_REGEXES, brute_force_alerts

KIND_REGEX = {kind: rx for kind, rx, _ in ACCEPTOR_REGEXES}


def _crypto_cfg(kind, seed=7, n_files=3, **kw):
    return SynthConfig(seed=seed, archetype="crypto", pattern=kind, n_files=n_files,
                       duration=20_000_000, **kw)


def _trace_bytes(cfg):
    manifest, events = synth_trace(cfg)
    buf = io.BytesIO()
    write_trace(manifest, events, buf)
    return buf.getvalue()


def test_same_seed_same_bytes():
    cfg = _crypto_cfg(PatternKind.MEM_TO_FILE_POST_OVERWRITE)
    assert _trace_bytes(cfg) == _trace_bytes(cfg)


def test_different_seeds_differ():
    a = _trace_bytes(_crypto_cfg(PatternKind.MEM_TO_FILE_POST_OVERWRITE, seed=1))
    b = _trace_bytes(_crypto_cfg(PatternKind.MEM_TO_FILE_POST_OVERWRITE, seed=2))
    assert a != b


@pytest.mark.parametrize("archetype,extra", [
    ("crypto", {"pattern": PatternKind.MEM_TO_FILE_PRE_OVERWRITE}),
    ("locker", {"spawn_profile": DEFAULT_LOCKER_PROFILE}),
    ("benign_crypto_like", {}),
    ("benign_spawner", {"spawn_profile": DEFAULT_SPAWNER_PROFILE}),
    ("benign_desktop", {}),
])
def test_all_events_valid_and_ordered(archetype, extra):
    cfg = SynthConfig(seed=11, archetype=archetype, duration=30_000_000, **extra)
    manifest, events = synth_trace(cfg)
    assert manifest.event_count == len(events)
    assert manifest.duration >= events[-1].timestamp
    prev = -1
    for e in events:
        assert validate_event(e) == []
        assert e.timestamp >= prev
        prev = e.timestamp


@pytest.mark.parametrize("kind", list(PatternKind))
def test_crypto_single_file_letters_match_acceptor(kind):
    manifest, events, info = synth_trace_detailed(_crypto_cfg(kind, n_files=1))
    matcher = FileIoMatcher()
    fired = [a for a in (matcher.ingest(e) for e in events) if a]
    assert len(fired) == 1 and fired[0].trigger == kind.value
    matched = [l for l in matcher.lists() if l.matched is not None]
    assert len(matched) == 1
    assert KIND_REGEX[kind].fullmatch(matched[0].letters)


@pytest.mark.parametrize("kind", list(PatternKind))
def test_crypto_every_file_completes_a_pattern(kind):
    for seed in (3, 9):
        manifest, events, info = synth_trace_detailed(_crypto_cfg(kind, seed=seed, n_files=4))
        oracle = brute_force_alerts(events)
        assert len(oracle) == 4
        assert all(k is kind for _, k in oracle)
        assert manifest.attack_onset == info.attack_onset > 0


@pytest.mark.parametrize("archetype,extra", [
    ("benign_crypto_like", {}),
    ("benign_spawner", {"spawn_profile": DEFAULT_SPAWNER_PROFILE}),
    ("benign_desktop", {}),
    ("locker", {"spawn_profile": DEFAULT_LOCKER_PROFILE}),
])
def test_non_crypto_traces_never_complete_patterns(archetype, extra):
    for seed in range(8):
        cfg = SynthConfig(seed=100 + seed, archetype=archetype, duration=30_000_000, **extra)
        manifest, events = synth_trace(cfg)
        assert brute_force_alerts(events) == []
        if archetype.startswith("benign"):
            assert manifest.attack_onset == 0


def test_locker_spawn_profile_realized():
    profile = SpawnProfile(n_processes=44, depth=3, n_threads=352)
    cfg = SynthConfig(seed=5, archetype="locker", spawn_profile=profile, duration=120_000_000)
    _, events = synth_trace(cfg)
    feats = extract_mlr_features(build_process_tree(events))
    assert 30 <= feats.n_processes <= 60
    assert feats.max_depth >= 3
    assert feats.n_threads_total >= 150


def test_spawner_profile_realized():
    cfg = SynthConfig(seed=6, archetype="benign_spawner",
                      spawn_profile=DEFAULT_SPAWNER_PROFILE, duration=90_000_000)
    _, events = synth_trace(cfg)
    feats = extract_mlr_features(build_process_tree(events))
    assert 100 <= feats.n_processes <= 180
    assert feats.max_depth >= 3
    assert feats.n_threads_total >= 500


def test_command_injection_emits_rule_matched_starts():
    cfg = _crypto_cfg(PatternKind.FILE_TO_FILE_DELETE, seed=21, command_injection=True)
    manifest, events, info = synth_trace_detailed(cfg)
    assert info.injected_command_times
    matcher = CommandMatcher(load_rules_file(default_rules_path()))
    hits = [a for a in (matcher.match(e) for e in events) if a]
    assert hits, "injected commands must trip the bundled rules"


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        SynthConfig(seed=1, archetype="crypto").validate()  # no pattern
    with pytest.raises(ValueError):
        SynthConfig(seed=1, archetype="locker").validate()  # no profile
    with pytest.raises(ValueError):
        SynthConfig(seed=1, archetype="warp").validate()
    with pytest.raises(ValueError):
        SynthConfig(seed=1, archetype="benign_desktop", duration=0).validate()


def test_default_corpus_spec_mix():
    configs = default_corpus_spec()
    assert len(configs) == 200
    archetypes = [c.archetype for c in configs]
    assert archetypes.count("crypto") == 40
    assert archetypes.count("locker") == 40
    assert sum(1 for a in archetypes if a.startswith("benign")) == 120
    kinds = [c.pattern for c in configs if c.archetype == "crypto"]
    assert all(kinds.count(k) == 10 for k in PatternKind)
    injected = [c for c in configs if c.command_injection]
    assert 0 < len(injected) < 80


def test_corpus_write_and_reread(tmp_path):
    configs = [
        _crypto_cfg(PatternKind.MEM_TO_FILE_POST_OVERWRITE, n_files=2),
        SynthConfig(seed=0, archetype="benign_desktop", duration=20_000_000),
        SynthConfig(seed=0, archetype="benign_desktop", duration=20_000_000),
    ]
    entries = synth_corpus(configs, str(tmp_path / "c"), master_seed=9)
    assert len(entries) == 3
    rows = read_corpus_index(str(tmp_path / "c"))
    assert len(rows) == 3
    assert rows[0][1] == "crypto" and rows[1][1] == "benign"
    for (path, label, family, seed), entry in zip(rows, entries):
        manifest, events = load_trace(path)
        assert manifest == entry.manifest
        assert manifest.seed == seed
        assert len(events) == manifest.event_count


def test_corpus_same_master_seed_byte_identical(tmp_path):
    configs = [SynthConfig(seed=0, archetype="benign_desktop", duration=15_000_000)] * 2

    def digest(d):
        entries = synth_corpus(configs, str(d), master_seed=4)
        h = hashlib.sha256()
        for entry in entries:
            h.update(Path(entry.path).read_bytes())
        return h.hexdigest()

    assert digest(tmp_path / "a") == digest(tmp_path / "b")


def test_derive_seed_is_stable():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(42, 5) != derive_seed(43, 5)

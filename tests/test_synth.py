"""Trace synthesis: determinism, validity, label soundness, corpora."""

import hashlib
import io
from dataclasses import replace
from pathlib import Path

import pytest

from peeler.events import EventType, Provider
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
from peeler.trace_io import event_to_line, line_to_event, load_trace, save_trace, write_trace
from peeler.commands import CommandMatcher, load_rules_file, default_rules_path
from oracles import ACCEPTOR_REGEXES, RefFileIoMatcher, brute_force_alerts

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
        assert line_to_event(event_to_line(e).encode()) == e
        assert e.timestamp >= prev
        prev = e.timestamp


@pytest.mark.parametrize("kind", list(PatternKind))
def test_crypto_single_file_letters_match_acceptor(kind):
    manifest, events, info = synth_trace_detailed(_crypto_cfg(kind, n_files=1))
    matcher, reference = FileIoMatcher(), RefFileIoMatcher()
    fired = [a for a in (matcher.ingest(e) for e in events) if a]
    assert len(fired) == 1 and fired[0].trigger == kind.value
    assert len([l for l in matcher.lists() if l.matched is not None]) == 1
    # the matcher keeps no letters; the reference keeps them for each list
    for e in events:
        reference.ingest(e)
    [matched] = [l for l in reference._lists if l.matched is not None]
    assert matched.matched is kind
    assert KIND_REGEX[kind].fullmatch("".join(matched.letters))


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
    manifest, events = synth_trace(cfg)
    matcher = CommandMatcher(load_rules_file(default_rules_path()))
    hits = [a for a in (matcher.match(e) for e in events) if a]
    assert hits, "injected commands must trip the bundled rules"


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        SynthConfig(seed=1, archetype="crypto").validate()  # no pattern
    # a locker without a profile is the default locker
    locker = SynthConfig(seed=1, archetype="locker", duration=10_000_000)
    assert synth_trace(locker) == synth_trace(replace(locker, spawn_profile=DEFAULT_LOCKER_PROFILE))
    with pytest.raises(ValueError):
        SynthConfig(seed=1, archetype="warp").validate()
    with pytest.raises(ValueError):
        SynthConfig(seed=1, archetype="benign_desktop", duration=0).validate()
    with pytest.raises(ValueError, match="^crypto archetype requires n_files >= 1$"):
        SynthConfig(seed=1, archetype="crypto", pattern=PatternKind.FILE_TO_FILE_DELETE, n_files=0).validate()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_readers_range_rejected(seed, tmp_path):
    # a manifest seed outside [0, 2^64) is one the trace reader rejects
    with pytest.raises(ValueError, match=r"is not an integer in \[0, 2\^64\)$"):
        synth_trace(SynthConfig(seed=seed, archetype="locker", duration=10_000_000))
    manifest, events = synth_trace(SynthConfig(seed=2**64 - 1, archetype="locker", duration=1_000_000))
    save_trace(str(tmp_path / "t.pt"), manifest, events)
    assert load_trace(str(tmp_path / "t.pt")) == (manifest, events)


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


_PINNED_SPAWN = SpawnProfile(n_processes=8, depth=2, n_threads=32)

# sha256 of write_trace's bytes for small traces of every generator branch:
# a synth edit meant to keep its output must keep these, even where it
# moves no alert or model
SYNTH_DIGESTS = {
    ("crypto", PatternKind.MEM_TO_FILE_POST_OVERWRITE, False):
        "144c93511210ca7729cceb3c2c244af2d23b0758ae9c59152663f6b78b2c2ca1",
    ("crypto", PatternKind.MEM_TO_FILE_POST_OVERWRITE, True):
        "320b4b0da99f9c54f6068ec1db596a83c04bad93f98bc2baa310cf3fea79beaf",
    ("crypto", PatternKind.MEM_TO_FILE_PRE_OVERWRITE, False):
        "dddbcc8ac1359644e4abbcad5e8e5e0d8da55c3f6d6ccf28ed22e95cad65d228",
    ("crypto", PatternKind.MEM_TO_FILE_PRE_OVERWRITE, True):
        "d285c3e2cef7b412875ddab5f7e359d27521461b8b080ed1afb12a089e8642ff",
    ("crypto", PatternKind.FILE_TO_FILE_DELETE, False):
        "f1259fbb8a086e0f53ae1a0b2f3caf89db0b40cdc6f0ab237e16b5ac600d3add",
    ("crypto", PatternKind.FILE_TO_FILE_DELETE, True):
        "7f7c07fbf000476056d214b35326b21f55f11761e46fa6a6a510439b68422724",
    ("crypto", PatternKind.FILE_TO_FILE_RENAME_DELETE, False):
        "a3ad6c7f8738933d088af51219725e165957044e0084167536dbcc5b3558c991",
    ("crypto", PatternKind.FILE_TO_FILE_RENAME_DELETE, True):
        "04a8650043f495ef94b4c9a6ea2b82c06ad54199c255600e16a0bb8d765f25e5",
    ("locker", None, False): "afd0ae6952b8e03e8e13ad16136785e1a62583dbec67fafd11f28bd681d11f79",
    ("locker", None, True): "5eaa7d6160f5ae7fe35129e991f9fe23be616608332e80c24a9af5698a27b6bc",
    ("benign_crypto_like", None, False):
        "db739deac0cf149c6e08de39676b820799e61898488740c029e6489fe130dd0e",
    ("benign_spawner", None, False): "fb0d9a1e8be979ec027283356e4252372f7ea3ca4961b5cdcd033059f9dd1ca0",
    ("benign_desktop", None, False): "54524fb060365f65c84144738089b2d1dac78607ba58a712fc0ad075165d6214",
}


@pytest.mark.parametrize(
    "archetype,pattern,injected", list(SYNTH_DIGESTS),
    ids=[f"{p.value if p else a}{'-inj' if i else ''}" for a, p, i in SYNTH_DIGESTS],
)
def test_trace_bytes_are_pinned(archetype, pattern, injected):
    spawn = _PINNED_SPAWN if archetype in ("locker", "benign_spawner") else None
    cfg = SynthConfig(seed=7, archetype=archetype, pattern=pattern, n_files=5, spawn_profile=spawn,
                      duration=20_000_000, command_injection=injected)
    digest = hashlib.sha256(_trace_bytes(cfg)).hexdigest()
    assert digest == SYNTH_DIGESTS[archetype, pattern, injected]


def test_desktop_restart_bytes_are_pinned():
    # the small desktop trace above never restarts an app; this one
    # restarts one, so its Process End and the branch behind it are pinned
    cfg = SynthConfig(seed=7, archetype="benign_desktop", duration=300_000_000)
    _, events = synth_trace(cfg)
    assert len(events) == 2140
    assert sum(e.etype is EventType.END and e.provider is Provider.PROCESS for e in events) == 1
    digest = hashlib.sha256(_trace_bytes(cfg)).hexdigest()
    assert digest == "4f101e4072c4113b482f484e77db180422c042c0b9b37efafa955efd4a86a37d"

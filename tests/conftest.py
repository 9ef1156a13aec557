"""Shared fixtures: the pinned evaluation corpus and a trained model.

The acceptance module records one line per criterion; the terminal-summary
hook prints them after the run so the pass/fail ledger is always visible.
"""

import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_corpus_dir(tmp_path_factory):
    from peeler.synth import default_corpus_spec, synth_corpus

    d = tmp_path_factory.mktemp("default_corpus")
    synth_corpus(default_corpus_spec(), str(d), master_seed=42)
    return str(d)


@pytest.fixture(scope="session")
def corpus_profiles(default_corpus_dir):
    from peeler.cli import load_corpus_profiles
    from peeler.commands import default_rules_path, load_rules_file

    rules = load_rules_file(default_rules_path())
    return load_corpus_profiles(default_corpus_dir, rules)


@pytest.fixture(scope="session")
def trained_model(corpus_profiles):
    import numpy as np

    from peeler.cli import train_from_profiles

    rng = np.random.default_rng(np.random.SeedSequence([42, 0]))
    ransomware = [p for p in corpus_profiles if p.is_ransomware]
    benign = [p for p in corpus_profiles if not p.is_ransomware]
    train = [ransomware[i] for i in rng.choice(len(ransomware), size=16, replace=False)]
    train += [benign[i] for i in rng.choice(len(benign), size=24, replace=False)]
    return train_from_profiles(train)

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
    from peeler.commands import default_rules_path, load_rules_file
    from peeler.evaluate import load_corpus_profiles

    rules = load_rules_file(default_rules_path())
    return load_corpus_profiles(default_corpus_dir, rules)


@pytest.fixture(scope="session")
def trained_model(corpus_profiles):
    """The model `peeler train --seed 42` writes: eval's repeat-0 model."""
    from peeler.evaluate import split_profiles, train_from_profiles

    train, _ = split_profiles(corpus_profiles, train_frac=0.2, seed=42, repeat=0)
    return train_from_profiles(train)

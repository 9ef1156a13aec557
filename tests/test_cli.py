"""CLI subcommands, exit codes, and the evaluation harness."""

import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from peeler import cli, evaluate, kernels
from peeler.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from peeler.evaluate import (
    TraceProfile,
    evaluate_profiles,
    load_corpus_profiles,
    train_from_profiles,
)
from peeler.commands import default_rules_path, load_rules_file
from peeler.events import Alert, Detector
from peeler.features import correlation_report
from peeler.errors import CorpusError, ParseError
from peeler.ml import (
    FusedClassifier,
    MlrModel,
    Scaler,
    SvmModel,
    load_model,
    load_model_file,
    save_model,
)
from peeler.pipeline import Engine, EngineConfig, run_trace
from peeler.synth import SynthConfig, default_corpus_spec, read_corpus_index, synth_corpus, synth_trace
from peeler.trace_io import WINDOW_LEN, TraceLabel, TraceManifest, iter_trace, load_trace, save_trace, window_partition
from peeler.fileio import PatternKind
from figures import cerber_post_overwrite
from helpers import ev_proc_start, ev_read
from oracles import ref_mlr_loss_grad, ref_rbf_gram, ref_smo_solve


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    configs = []
    for i in range(6):
        configs.append(SynthConfig(seed=0, archetype="crypto",
                                   pattern=list(PatternKind)[i % 4], n_files=6,
                                   duration=30_000_000,
                                   command_injection=(i % 3 == 0)))
    from peeler.synth import DEFAULT_LOCKER_PROFILE, DEFAULT_SPAWNER_PROFILE

    for i in range(6):
        configs.append(SynthConfig(seed=0, archetype="locker",
                                   spawn_profile=DEFAULT_LOCKER_PROFILE,
                                   duration=60_000_000))
    for i in range(5):
        configs.append(SynthConfig(seed=0, archetype="benign_desktop", duration=60_000_000))
    for i in range(4):
        configs.append(SynthConfig(seed=0, archetype="benign_spawner",
                                   spawn_profile=DEFAULT_SPAWNER_PROFILE,
                                   duration=60_000_000))
    for i in range(3):
        configs.append(SynthConfig(seed=0, archetype="benign_crypto_like", n_files=8,
                                   duration=30_000_000))
    synth_corpus(configs, str(d), master_seed=5)
    return str(d)


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["bench", "--trace", "trace.pt"]) == EXIT_USAGE


def test_unknown_pattern_is_usage_error(capsys):
    assert main(["synth", "--archetype", "crypto:quantum", "--out", "/tmp/x.pt"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["synth", "--archetype", "locker"],
    ["synth", "--out", "{out}"],
    ["synth", "--seed", "3", "--out", "{out}"],
])
def test_synth_without_archetype_and_out_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "t.pt"
    assert main([a.format(out=out) for a in argv]) == EXIT_USAGE
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage: peeler synth ")
    assert "error: synth needs --archetype and --out, or --default-corpus" in err


# archetype names are exact: other spellings of valid names are usage errors
@pytest.mark.parametrize("name", ["Locker", "benign_desktop", "crypto:Post-Overwrite", "crypto"])
def test_archetype_spelling_is_usage_error(name, tmp_path, capsys):
    out = tmp_path / "t.pt"
    assert main(["synth", "--archetype", name, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert "argument --archetype: invalid choice" in capsys.readouterr().err


_NUMBER_FAULTS = ["-1", "nan", "inf"]
_SEED_FAULTS = [*_NUMBER_FAULTS, str(2**64)]
_FRAC_FAULTS = [*_NUMBER_FAULTS, "1.5"]
_COUNT_FAULTS = [*_NUMBER_FAULTS, "0"]
# (command, option) -> values outside its domain, which the parser rejects
# before any work starts: exit 1 and nothing written
OUT_OF_DOMAIN = {
    ("synth", "--seed"): _SEED_FAULTS,
    ("synth", "--files"): _COUNT_FAULTS,
    ("synth", "--duration-ms"): [*_COUNT_FAULTS, str((2**63 - 1) // 1000 + 1)],
    ("synth", "--intensity"): [*_NUMBER_FAULTS, "1e7"],
    ("train", "--seed"): _SEED_FAULTS,
    ("train", "--train-frac"): _FRAC_FAULTS,
    ("eval", "--seed"): _SEED_FAULTS,
    ("eval", "--train-frac"): _FRAC_FAULTS,
    ("eval", "--repeats"): _COUNT_FAULTS,
}
_OUT_OF_DOMAIN_ARGV = {
    "synth": ["synth", "--archetype", "locker", "--out", "{out}"],
    "train": ["train", "--corpus", "{corpus}", "--out", "{out}"],
    "eval": ["eval", "--corpus", "{corpus}", "--json-report", "{out}"],
}


@pytest.mark.parametrize("command, option, value", [
    (command, option, value) for (command, option), values in OUT_OF_DOMAIN.items() for value in values
])
def test_out_of_domain_number_is_usage_error(command, option, value, tmp_path, capsys):
    out, corpus = tmp_path / "out", tmp_path / "corpus"
    argv = [a.format(out=out, corpus=corpus) for a in _OUT_OF_DOMAIN_ARGV[command]]
    assert main([*argv, f"{option}={value}"]) == EXIT_USAGE
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}: " in captured.err


def test_internal_value_error_is_internal_error(tmp_path, monkeypatch, capsys):
    def failing_run_trace(*_):
        raise ValueError("boom")

    path = tmp_path / "t.pt"
    path.write_bytes(_VALID_TRACE)
    monkeypatch.setattr(cli, "run_trace", failing_run_trace)
    assert main(["detect", "--trace", str(path)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: ValueError('boom')\n"


def test_missing_trace_is_data_error(capsys):
    assert main(["detect", "--trace", "/nonexistent/trace.pt"]) == EXIT_DATA


def test_synth_detect_round(tmp_path, capsys):
    out = str(tmp_path / "t.pt")
    assert main(["synth", "--archetype", "crypto:post-overwrite", "--files", "5",
                 "--seed", "7", "--out", out, "--duration-ms", "20000"]) == EXIT_OK
    manifest, events = load_trace(out)
    assert manifest.label is TraceLabel.CRYPTO and manifest.family == "Cerber"

    report_path = str(tmp_path / "report.json")
    assert main(["detect", "--trace", out, "--json-report", report_path]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "verdict  : ransomware" in captured
    payload = json.loads(Path(report_path).read_text())
    assert payload["verdict"] == "ransomware"
    assert payload["alerts"][0]["detector"] == "FileIoPattern"


def test_synth_cli_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.pt"), str(tmp_path / "b.pt")
    for out in (a, b):
        assert main(["synth", "--archetype", "locker", "--seed", "3", "--out", out,
                     "--duration-ms", "30000"]) == EXIT_OK
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_synth_intensity_flag(tmp_path, capsys):
    out = tmp_path / "t.pt"
    assert main(["synth", "--archetype", "benign-desktop", "--seed", "5", "--duration-ms", "10000",
                 "--intensity", "2.5", "--out", str(out)]) == EXIT_OK
    cfg = SynthConfig(seed=5, archetype="benign_desktop", duration=10_000_000, intensity=2.5)
    save_trace(str(tmp_path / "ref.pt"), *synth_trace(cfg))
    assert out.read_bytes() == (tmp_path / "ref.pt").read_bytes()
    busier, _ = load_trace(str(out))
    assert busier.event_count > synth_trace(replace(cfg, intensity=1.0))[0].event_count


def _command_rule_alerts(tmp_path, synth_flags):
    trace, report = tmp_path / "t.pt", tmp_path / "r.json"
    assert main(["synth", "--archetype", "locker", "--seed", "3", "--duration-ms", "20000",
                 *synth_flags, "--out", str(trace)]) == EXIT_OK
    assert main(["detect", "--trace", str(trace), "--json-report", str(report)]) == EXIT_OK
    alerts = json.loads(report.read_text())["alerts"]
    return [a for a in alerts if a["detector"] == Detector.COMMAND_RULE.value]


def test_synth_inject_commands_flag_trips_rules(tmp_path, capsys):
    assert _command_rule_alerts(tmp_path, []) == []
    assert _command_rule_alerts(tmp_path, ["--inject-commands"])


def test_detect_no_quarantine_flag(tmp_path, capsys):
    trace = tmp_path / "t.pt"
    assert main(["synth", "--archetype", "crypto:file-delete", "--files", "6", "--seed", "11",
                 "--duration-ms", "20000", "--out", str(trace)]) == EXIT_OK

    def alerts_per_pid(*flags):
        report = tmp_path / "r.json"
        assert main(["detect", "--trace", str(trace), *flags, "--json-report", str(report)]) == EXIT_OK
        return Counter(a["pid"] for a in json.loads(report.read_text())["alerts"])

    assert max(alerts_per_pid().values()) == 1
    assert max(alerts_per_pid("--no-quarantine").values()) > 1


def test_train_writes_evals_repeat_0_model(default_corpus_dir, corpus_profiles, tmp_path,
                                           monkeypatch, capsys):
    models = []

    def recording(profiles):
        models.append(train_from_profiles(profiles))
        return models[-1]

    monkeypatch.setattr(evaluate, "train_from_profiles", recording)
    evaluate_profiles(corpus_profiles, repeats=1, seed=42, train_frac=0.2)
    monkeypatch.undo()
    out = tmp_path / "m.pm"
    assert main(["train", "--corpus", default_corpus_dir, "--out", str(out),
                 "--seed", "42", "--train-frac", "0.2"]) == EXIT_OK
    buf = io.BytesIO()
    save_model(models[0], buf)
    assert out.read_bytes() == buf.getvalue()


def test_train_then_eval_with_fixed_model(small_corpus, tmp_path, capsys):
    model_path = str(tmp_path / "m.pm")
    assert main(["train", "--corpus", small_corpus, "--out", model_path,
                 "--seed", "11", "--train-frac", "0.4"]) == EXIT_OK
    model = load_model_file(model_path)
    assert model.svm.support_vectors.shape[0] > 0

    json_path = str(tmp_path / "eval.json")
    latency_path = str(tmp_path / "lat.txt")
    assert main(["eval", "--corpus", small_corpus, "--model", model_path,
                 "--repeats", "1", "--seed", "11",
                 "--json-report", json_path, "--latency-table", latency_path]) == EXIT_OK
    payload = json.loads(Path(json_path).read_text())
    assert set(payload) >= {"accuracy", "tpr", "fpr", "counts"}
    lines = Path(latency_path).read_text().strip().split("\n")
    assert lines[0].startswith("repeat | trace")
    assert len(lines) == 1 + payload["counts"]["tp"] + payload["counts"]["fp"] + \
        payload["counts"]["tn"] + payload["counts"]["fn"]


def test_eval_trains_per_repeat_and_is_deterministic(small_corpus, capsys):
    rules = load_rules_file(default_rules_path())
    s1 = evaluate_profiles(load_corpus_profiles(small_corpus, rules), repeats=2, seed=9)
    s2 = evaluate_profiles(load_corpus_profiles(small_corpus, rules), repeats=2, seed=9)
    assert (s1.tp, s1.fp, s1.tn, s1.fn) == (s2.tp, s2.fp, s2.tn, s2.fn)
    assert s1.metrics_dict() == s2.metrics_dict()


def test_eval_correlations_prints_table(small_corpus, capsys, monkeypatch):
    decoded = []

    def counting_iter_trace(source):
        decoded.append(source.name)
        return iter_trace(source)

    monkeypatch.setattr(evaluate, "iter_trace", counting_iter_trace)
    assert main(["eval", "--corpus", small_corpus, "--repeats", "1", "--seed", "3",
                 "--correlations"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(File Read, File Write)" in out
    # the table comes from the profiles' rows: each trace is decoded once
    paths = [path for path, _, _, _ in read_corpus_index(small_corpus)]
    assert sorted(decoded) == sorted(paths)
    corpus = []
    for path in paths:
        manifest, events = load_trace(path)
        corpus.append((manifest, window_partition(events, 5_000_000)))
    assert out.endswith("\n" + correlation_report(corpus).as_table() + "\n")


def test_eval_single_class_corpus_is_data_error(tmp_path, capsys):
    d = tmp_path / "benign_only"
    synth_corpus([SynthConfig(seed=0, archetype="benign_desktop", duration=20_000_000)] * 3,
                 str(d), master_seed=1)
    assert main(["eval", "--corpus", str(d), "--repeats", "1", "--seed", "1"]) == EXIT_DATA


def test_confusion_counts_sum_to_test_set_size(tmp_path):
    d = tmp_path / "four"
    configs = [
        SynthConfig(seed=0, archetype="crypto", pattern=PatternKind.MEM_TO_FILE_POST_OVERWRITE,
                    n_files=5, duration=20_000_000),
        SynthConfig(seed=0, archetype="crypto", pattern=PatternKind.FILE_TO_FILE_DELETE,
                    n_files=5, duration=20_000_000),
        SynthConfig(seed=0, archetype="benign_desktop", duration=20_000_000),
        SynthConfig(seed=0, archetype="benign_desktop", duration=20_000_000),
    ]
    synth_corpus(configs, str(d), master_seed=2)
    rules = load_rules_file(default_rules_path())
    profiles = load_corpus_profiles(str(d), rules)
    summary = evaluate_profiles(profiles, repeats=1, seed=0)
    assert summary.tp + summary.fp + summary.tn + summary.fn == 2  # 4 traces - 2 train


def _neutral_mlr():
    s = Scaler(np.zeros(5), np.ones(5), np.zeros(5, dtype=bool))
    return MlrModel(weights=np.zeros((2, 6)), scaler=s, l2=0.0, converged=True, n_iter=0)


def _neutral_svm():
    s = Scaler(np.zeros(8), np.ones(8), np.zeros(8, dtype=bool))
    return SvmModel(support_vectors=np.zeros((0, 8)), dual_coefs=np.zeros(0), bias=0.0,
                    gamma=0.125, c=10.0, scaler=s, converged=True, passes=0, dual_objective=0.0)


def _stub_profile(path, label, first=None, onset=0):
    """A windowless profile whose model-free first alert is first, a (detector, timestamp)."""
    manifest = TraceManifest(label=label, family="stub", seed=0, event_count=0, duration=0,
                             attack_onset=onset)
    return TraceProfile(
        path=path, manifest=manifest, first_alert=Alert(first[0], 1, "stub", first[1]) if first else None,
        window_ends=np.zeros(0, dtype=np.int64), window_counts=np.zeros(0, dtype=np.int64),
        X_mlr=np.zeros((0, 5)), X_svm=np.zeros((0, 8)),
    )


def test_perfect_detector_stub_yields_perfect_metrics():
    profiles = [
        _stub_profile("r1", TraceLabel.CRYPTO, (Detector.COMMAND_RULE, 100)),
        _stub_profile("r2", TraceLabel.SCREEN_LOCKER, (Detector.COMMAND_RULE, 200)),
        _stub_profile("b1", TraceLabel.BENIGN),
        _stub_profile("b2", TraceLabel.BENIGN),
    ]
    neutral = FusedClassifier(mlr=_neutral_mlr(), svm=_neutral_svm(), threshold=0.6)
    summary = evaluate_profiles(profiles, repeats=3, seed=1, fixed_model=neutral)
    assert summary.accuracy == 1.0 and summary.f1 == 1.0
    assert summary.fpr == 0.0 and summary.fnr == 0.0


def test_eval_latency_rules_and_counts_match_a_hand_tally():
    rule, pattern = Detector.COMMAND_RULE.value, Detector.FILE_IO_PATTERN.value
    profiles = [
        # alerts before attack onset: latency 0
        _stub_profile("r1", TraceLabel.CRYPTO, (Detector.COMMAND_RULE, 400), onset=1000),
        _stub_profile("r2", TraceLabel.CRYPTO, (Detector.FILE_IO_PATTERN, 3000), onset=1000),
        _stub_profile("r3", TraceLabel.SCREEN_LOCKER, (Detector.COMMAND_RULE, 11000), onset=2000),
        _stub_profile("r4", TraceLabel.SCREEN_LOCKER, onset=2000),
        # a flagged benign trace has no latency
        _stub_profile("b1", TraceLabel.BENIGN, (Detector.COMMAND_RULE, 300)),
        _stub_profile("b2", TraceLabel.BENIGN),
        _stub_profile("b3", TraceLabel.BENIGN),
        _stub_profile("b4", TraceLabel.BENIGN, (Detector.FILE_IO_PATTERN, 700)),
    ]
    neutral = FusedClassifier(mlr=_neutral_mlr(), svm=_neutral_svm(), threshold=0.6)
    summary = evaluate_profiles(profiles, repeats=2, seed=1, fixed_model=neutral)

    judged = [
        ("r1", "crypto", "ransomware", rule, 0),
        ("r2", "crypto", "ransomware", pattern, 2000),
        ("r3", "screen_locker", "ransomware", rule, 9000),
        ("r4", "screen_locker", "benign", None, None),
        ("b1", "benign", "ransomware", rule, None),
        ("b2", "benign", "benign", None, None),
        ("b3", "benign", "benign", None, None),
        ("b4", "benign", "ransomware", pattern, None),
    ]
    assert [(r.repeat, r.path, r.label, r.verdict, r.first_detector, r.latency_us)
            for r in summary.rows] == [(repeat, *row) for repeat in (0, 1) for row in judged]
    assert {r.family for r in summary.rows} == {"stub"}
    assert (summary.tp, summary.fp, summary.tn, summary.fn) == (6, 4, 4, 2)
    assert summary.metrics_dict() == pytest.approx({
        "accuracy": 10 / 16, "tpr": 6 / 8, "fpr": 4 / 8, "fnr": 2 / 8,
        "precision": 6 / 10, "recall": 6 / 8, "f1": 2 / 3,
    })
    assert list(summary.metrics_dict()) == ["accuracy", "tpr", "fpr", "fnr", "precision", "recall", "f1"]
    # crypto latencies 0, 2 ms in each repeat; locker 9 ms in each
    assert summary.crypto_latency == evaluate.LatencyStats(n=4, mean_ms=1.0, p50_ms=1.0, p90_ms=2.0)
    assert summary.locker_latency == evaluate.LatencyStats(n=2, mean_ms=9.0, p50_ms=9.0, p90_ms=9.0)


def test_eval_without_detections_has_no_latency():
    profiles = [_stub_profile("r1", TraceLabel.CRYPTO, onset=1000),
                _stub_profile("b1", TraceLabel.BENIGN, (Detector.COMMAND_RULE, 300))]
    neutral = FusedClassifier(mlr=_neutral_mlr(), svm=_neutral_svm(), threshold=0.6)
    summary = evaluate_profiles(profiles, repeats=1, seed=1, fixed_model=neutral)
    assert (summary.tp, summary.fp, summary.tn, summary.fn) == (0, 1, 0, 1)
    assert summary.crypto_latency is None and summary.locker_latency is None
    assert summary.metrics_dict() == {
        "accuracy": 0.0, "tpr": 0.0, "fpr": 1.0, "fnr": 1.0, "precision": 0.0, "recall": 0.0, "f1": 0.0,
    }


def test_training_rows_match_a_per_window_loop(monkeypatch):
    rng = np.random.default_rng(5)
    labels = [TraceLabel.CRYPTO, TraceLabel.BENIGN, TraceLabel.SCREEN_LOCKER, TraceLabel.BENIGN] * 3
    profiles = []
    for i, label in enumerate(labels):
        # counts straddle MIN_ATTACK_WINDOW_EVENTS; some traces have no windows
        counts = rng.integers(1, 2 * evaluate.MIN_ATTACK_WINDOW_EVENTS, size=int(rng.integers(0, 12)))
        profiles.append(replace(
            _stub_profile(f"t{i}", label), window_ends=np.arange(len(counts)), window_counts=counts,
            X_mlr=rng.normal(size=(len(counts), 5)), X_svm=rng.normal(size=(len(counts), 8)),
        ))
    X_mlr, X_svm, y = [], [], []
    for p in profiles:
        for i, count in enumerate(p.window_counts):
            if not (p.is_ransomware and count < evaluate.MIN_ATTACK_WINDOW_EVENTS):
                X_mlr.append(p.X_mlr[i])
                X_svm.append(p.X_svm[i])
                y.append(int(p.is_ransomware))
    assert 0 < sum(y) < len(y)

    monkeypatch.setattr(evaluate, "train_mlr", lambda X, y: (X, y))
    monkeypatch.setattr(evaluate, "train_svm", lambda X, y: (X, y))
    fused = train_from_profiles(profiles)
    for (X, labels_seen), X_ref in ((fused.mlr, X_mlr), (fused.svm, X_svm)):
        assert np.array_equal(X, np.vstack(X_ref)) and X.dtype == np.float64
        assert np.array_equal(labels_seen, np.array(y)) and labels_seen.dtype == np.array(y).dtype


def test_training_needs_an_attack_window_that_counts():
    # every window of the attack trace holds fewer than MIN_ATTACK_WINDOW_EVENTS
    # events, so no row of it is kept and only the benign class is left
    counts = {TraceLabel.CRYPTO: [1, evaluate.MIN_ATTACK_WINDOW_EVENTS - 1], TraceLabel.BENIGN: [1, 2, 3, 4]}
    profiles = [
        replace(_stub_profile(label.value, label), window_ends=np.arange(len(c)), window_counts=np.array(c),
                X_mlr=np.ones((len(c), 5)), X_svm=np.ones((len(c), 8)))
        for label, c in counts.items()
    ]
    with pytest.raises(CorpusError, match="^training set needs windows from both classes$"):
        train_from_profiles(profiles)


def test_fixed_model_single_class_corpus_is_corpus_error():
    profiles = [_stub_profile("b1", TraceLabel.BENIGN), _stub_profile("b2", TraceLabel.BENIGN)]
    neutral = FusedClassifier(mlr=_neutral_mlr(), svm=_neutral_svm())
    with pytest.raises(CorpusError):
        evaluate_profiles(profiles, repeats=1, seed=1, fixed_model=neutral)


def test_f1_is_harmonic_mean_of_precision_recall(small_corpus):
    rules = load_rules_file(default_rules_path())
    s = evaluate_profiles(load_corpus_profiles(small_corpus, rules), repeats=2, seed=4)
    if s.precision + s.recall > 0:
        expected = 2 * s.precision * s.recall / (s.precision + s.recall)
        assert abs(s.f1 - expected) <= 1e-9


def test_fused_at_least_individual_minus_two_points(small_corpus):
    rules = load_rules_file(default_rules_path())
    profiles = load_corpus_profiles(small_corpus, rules)
    ransomware = [p for p in profiles if p.is_ransomware]
    benign = [p for p in profiles if not p.is_ransomware]
    train = ransomware[::2] + benign[::2]
    test = [p for p in ransomware + benign if p not in train]
    trained = train_from_profiles(train)

    def acc(model):
        s = evaluate_profiles(test, repeats=1, seed=0, fixed_model=model)
        return s.accuracy

    fused = acc(trained)
    mlr_only = acc(FusedClassifier(mlr=trained.mlr, svm=_neutral_svm(), threshold=0.5))
    svm_only = acc(FusedClassifier(mlr=_neutral_mlr(), svm=trained.svm, threshold=0.5))
    assert fused >= max(mlr_only, svm_only) - 0.02


def test_training_and_eval_identical_with_loop_reference_kernels(tmp_path, monkeypatch):
    synth_corpus(default_corpus_spec(4, 4, 12), str(tmp_path), master_seed=5)
    profiles = load_corpus_profiles(str(tmp_path), load_rules_file(default_rules_path()))

    def outputs():
        buf = io.BytesIO()
        save_model(train_from_profiles(profiles), buf)
        summary = evaluate_profiles(profiles, repeats=2, seed=3, train_frac=0.5)
        return buf.getvalue(), summary.rows

    shipped = outputs()
    # every loss pass runs the whole reference, whose gradient stands in for
    # the probability matrix that the gradient kernel reads
    monkeypatch.setattr(kernels, "mlr_loss_grad", ref_mlr_loss_grad)
    monkeypatch.setattr(kernels, "mlr_loss", ref_mlr_loss_grad)
    monkeypatch.setattr(kernels, "mlr_grad", lambda W, Xb, y, l2, ref_grad: ref_grad)
    monkeypatch.setattr(kernels, "smo_solve", ref_smo_solve)
    monkeypatch.setattr(kernels, "rbf_gram", ref_rbf_gram)
    reference = outputs()
    assert reference[0] == shipped[0]
    assert reference[1] == shipped[1]


def test_default_corpus_cli(tmp_path, capsys):
    # smoke only: the full default corpus is exercised by the acceptance suite
    d = str(tmp_path / "dc")
    assert main(["synth", "--default-corpus", d, "--seed", "1"]) == EXIT_OK
    assert os.path.exists(os.path.join(d, "index.txt"))
    assert len(Path(d, "index.txt").read_text().strip().split("\n")) == 200


_VALID_TRACE = (
    b'PEELER-TRACE v1 {"label":"crypto","family":"Cerber","seed":7,"event_count":3,'
    b'"duration":1500,"attack_onset":0}\n'
    b'{"ts":1000,"pid":10,"tid":100,"prov":"Process","etype":"Start","session_id":1,'
    b'"parent_id":4,"image":"mal.exe","cmdline":"mal.exe /go"}\n'
    b'{"ts":1200,"pid":10,"tid":100,"prov":"File","etype":"FileCreate","file_object":"0xb10",'
    b'"file_name":"c:/users/u/documents/a.docx"}\n'
    b'{"ts":1500,"pid":10,"tid":100,"prov":"File","etype":"Read","file_key":"0xffffb203afd146f0",'
    b'"file_object":"0xb10","io_size":4096}\n'
)
_READ_LINE = _VALID_TRACE.split(b"\n")[3]

# (what the trace has in place of the valid text) -> each must be a data error
HOSTILE_EDITS = {
    "cmdline_int": (b'"cmdline":"mal.exe /go"', b'"cmdline":5'),
    "image_list": (b'"image":"mal.exe"', b'"image":["x"]'),
    "manifest_list": (_VALID_TRACE.split(b"\n")[0][len(b"PEELER-TRACE v1 "):], b"[1]"),
    "deep_nesting": (_READ_LINE, b"[" * 100_000 + b"]" * 100_000),
    "invalid_utf8": (b"mal.exe /go", b"mal\xff.exe"),
    "ts_float": (b'"ts":1000', b'"ts":1.9'),
    "ts_bool": (b'"ts":1000', b'"ts":true'),
    "ts_too_many_digits": (b'"ts":1000', b'"ts":' + b"1" * 5000),
    "file_key_negative_hex": (b'"file_key":"0xffffb203afd146f0"', b'"file_key":"-0x5"'),
    "file_key_over_64_bits": (b'"file_key":"0xffffb203afd146f0"', b'"file_key":"0x1ffffffffffffffff"'),
    "file_key_int_over_64_bits": (b'"file_key":"0xffffb203afd146f0"',
                                  b'"file_key":%d' % 0x1FFFFFFFFFFFFFFFF),
    "file_key_padded_sign_underscore": (b'"file_key":"0xffffb203afd146f0"',
                                        b'"file_key":" +0x_5 "'),
    "file_key_upper_prefix": (b'"file_key":"0xffffb203afd146f0"', b'"file_key":"0X5"'),
    "file_key_unprefixed": (b'"file_key":"0xffffb203afd146f0"', b'"file_key":"ff"'),
    "file_key_no_digits": (b'"file_key":"0xffffb203afd146f0"', b'"file_key":"0x"'),
    "file_key_17_digits": (b'"file_key":"0xffffb203afd146f0"', b'"file_key":"0x00000000000000005"'),
    "file_key_leading_zero": (b'"file_key":"0xffffb203afd146f0"', b'"file_key":"0x05"'),
    "pid_over_64_bits": (b'"pid":10,"tid":100,"prov":"File","etype":"Read"',
                         b'"pid":18446744073709551616,"tid":100,"prov":"File","etype":"Read"'),
    "io_size_negative": (b'"io_size":4096', b'"io_size":-4'),
    "io_size_nan": (b'"io_size":4096', b'"io_size":NaN'),
    "file_name_int": (b'"file_name":"c:/users/u/documents/a.docx"', b'"file_name":7'),
    "file_name_empty": (b'"file_name":"c:/users/u/documents/a.docx"', b'"file_name":""'),
    "session_id_float": (b'"session_id":1', b'"session_id":1.0'),
    "prov_list": (b'"prov":"File","etype":"Read"', b'"prov":["File"],"etype":"Read"'),
    "event_count_string": (b'"event_count":3', b'"event_count":"3"'),
    "family_int": (b'"family":"Cerber"', b'"family":3'),
    "seed_bool": (b'"seed":7', b'"seed":false'),
    "label_unknown_name": (b'"label":"crypto"', b'"label":"worm"'),
    "event_not_object": (_READ_LINE, b"[1]"),
}


# each flag these commands no longer take -> a usage error that writes nothing
REMOVED_FLAGS = {
    "detect_window_ms": ["detect", "--trace", "{trace}", "--json-report", "{out}", "--window-ms", "5000"],
    "train_window_ms": ["train", "--corpus", "{corpus}", "--out", "{out}", "--window-ms", "5000"],
    "train_threshold": ["train", "--corpus", "{corpus}", "--out", "{out}", "--threshold", "0.5"],
    "eval_window_ms": ["eval", "--corpus", "{corpus}", "--repeats", "1", "--json-report", "{out}",
                       "--window-ms", "5000"],
    "synth_processes": ["synth", "--archetype", "benign-spawner", "--out", "{out}", "--processes", "10"],
    "synth_depth": ["synth", "--archetype", "benign-spawner", "--out", "{out}", "--depth", "3"],
    "synth_threads": ["synth", "--archetype", "benign-spawner", "--out", "{out}", "--threads", "100"],
}


@pytest.mark.parametrize("name", sorted(REMOVED_FLAGS))
def test_removed_flag_is_usage_error(name, small_corpus, tmp_path, capsys):
    trace, out = tmp_path / "t.pt", tmp_path / "out"
    trace.write_bytes(_VALID_TRACE)
    argv = [a.format(trace=trace, corpus=small_corpus, out=out) for a in REMOVED_FLAGS[name]]
    assert main(argv) == EXIT_USAGE
    assert not out.exists()
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["--rules", "r.txt", "--seed", "7", "--train-frac", "0.5"]],
                         ids=["defaults", "given"])
def test_train_and_eval_parse_the_corpus_options_alike(argv):
    # train writes the model that eval trains in repeat 0, while both read these alike
    parser = cli._build_parser()
    train = vars(parser.parse_args(["train", "--corpus", "c", "--out", "m", *argv]))
    evl = vars(parser.parse_args(["eval", "--corpus", "c", *argv]))
    keys = ("corpus", "rules", "seed", "train_frac")
    assert [train[k] for k in keys] == [evl[k] for k in keys]
    assert train["seed"] == (7 if argv else 42) and train["train_frac"] == (0.5 if argv else 0.2)


def test_valid_trace_template_detects(tmp_path, capsys):
    path = tmp_path / "valid.pt"
    path.write_bytes(_VALID_TRACE)
    assert main(["detect", "--trace", str(path)]) == EXIT_OK


@pytest.mark.parametrize("name", sorted(HOSTILE_EDITS))
def test_hostile_trace_is_data_error(name, tmp_path, capsys):
    old, new = HOSTILE_EDITS[name]
    assert _VALID_TRACE.count(old) == 1
    path = tmp_path / "hostile.pt"
    path.write_bytes(_VALID_TRACE.replace(old, new))
    assert main(["detect", "--trace", str(path)]) == EXIT_DATA
    assert "error:" in capsys.readouterr().err


# faults the decoder can only see after the last line (a count or a
# duration checked against the manifest) or on the last line itself
END_OF_STREAM_EDITS = {
    "event_count_over": (b'"event_count":3', b'"event_count":4'),
    "event_count_under": (b'"event_count":3', b'"event_count":2'),
    "duration_before_last_ts": (b'"duration":1500', b'"duration":1499'),
    "last_line_non_monotonic": (b'"ts":1500', b'"ts":1100'),
}


@pytest.mark.parametrize("name", sorted(END_OF_STREAM_EDITS))
def test_end_of_stream_fault_is_data_error(name, tmp_path, capsys):
    old, new = END_OF_STREAM_EDITS[name]
    assert _VALID_TRACE.count(old) == 1
    path, report = tmp_path / "t.pt", tmp_path / "r.json"
    path.write_bytes(_VALID_TRACE.replace(old, new))
    assert main(["detect", "--trace", str(path), "--json-report", str(report)]) == EXIT_DATA
    assert not report.exists()
    assert "error:" in capsys.readouterr().err


# (the second index row -> its replacement) -> each must be a data error naming line 2
HOSTILE_INDEX_EDITS = {
    "three_fields": lambda row: row.rsplit(b"|", 1)[0],
    "five_fields": lambda row: row + b" | extra",
    "seed_not_integer": lambda row: row.rsplit(b"|", 1)[0] + b"| 7x",
    "seed_float": lambda row: row.rsplit(b"|", 1)[0] + b"| 7.0",
    "seed_signed": lambda row: row.rsplit(b"|", 1)[0] + b"| +7",
    "seed_over_64_bits": lambda row: row.rsplit(b"|", 1)[0] + b"| 18446744073709551616",
    "invalid_utf8": lambda row: row.replace(b"|", b"\xff|", 1),
    "name_nul": lambda row: row.replace(b" |", b"\0 |", 1),
}


def _corpus_with_index(small_corpus, tmp_path, edit=None):
    """A copy of the small corpus whose index has its second row edited."""
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus)
    rows = (corpus / "index.txt").read_bytes().split(b"\n")
    if edit is not None:
        rows[1] = edit(rows[1])
    (corpus / "index.txt").write_bytes(b"\n".join(rows))
    return str(corpus)


def test_valid_corpus_template_evaluates(small_corpus, tmp_path, capsys):
    corpus, out = _corpus_with_index(small_corpus, tmp_path), tmp_path / "out.json"
    argv = ["eval", "--corpus", corpus, "--repeats", "1", "--json-report", str(out)]
    assert main(argv) == EXIT_OK and out.exists()


def _two_trace_corpus(tmp_path):
    """One 1-second crypto trace and one 1-second benign one: fewer windows
    than training takes."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    synth = {"crypto.pt": ["--archetype", "crypto:post-overwrite", "--files", "1", "--seed", "1"],
             "benign.pt": ["--archetype", "benign-crypto-like", "--seed", "2"]}
    for name, argv in synth.items():
        assert main(["synth", *argv, "--duration-ms", "1000", "--out", str(corpus / name)]) == EXIT_OK
    (corpus / "index.txt").write_text("crypto.pt | crypto | Cerber | 1\nbenign.pt | benign | 7zip | 2\n")
    return str(corpus)


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("name", sorted(HOSTILE_INDEX_EDITS) + ["too_few_windows"])
def test_hostile_corpus_is_data_error(name, command, small_corpus, tmp_path, capsys):
    if name == "too_few_windows":
        corpus, message = _two_trace_corpus(tmp_path), "error: training set needs at least 4 windows"
    else:
        corpus = _corpus_with_index(small_corpus, tmp_path, HOSTILE_INDEX_EDITS[name])
        message = "error: line 2: "
    out = tmp_path / "out"
    argv = {"train": ["train", "--corpus", corpus, "--out", str(out)],
            "eval": ["eval", "--corpus", corpus, "--repeats", "1", "--json-report", str(out)]}
    assert main(argv[command]) == EXIT_DATA
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("train_frac, untested", [("0.8", "benign"), ("1", "benign or ransomware")])
def test_eval_split_without_a_test_trace_is_data_error(train_frac, untested, small_corpus, tmp_path, capsys):
    # all 12 ransomware traces and 2 benign ones: round(0.8 * 2) trains
    # both benign traces, and --train-frac 1 trains every trace
    corpus = _corpus_with_index(small_corpus, tmp_path)
    index = Path(corpus) / "index.txt"
    rows = [row for row in index.read_text().splitlines() if row]
    benign = [row for row in rows if row.split(" | ")[1] == "benign"]
    index.write_text("\n".join([row for row in rows if row not in benign] + benign[:2]) + "\n")
    out = tmp_path / "out.json"
    argv = ["eval", "--corpus", corpus, "--repeats", "1", "--train-frac", train_frac,
            "--json-report", str(out)]
    assert main(argv) == EXIT_DATA
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: train fraction {float(train_frac)} leaves no {untested} trace to test\n"


# (the second index row's fields -> their replacement) -> a data error
# naming the row's trace file
MISMATCHED_INDEX_EDITS = {
    "label": lambda fields: [fields[0], b"unknown", *fields[2:]],
    "family": lambda fields: [*fields[:2], b"NotAFamily", fields[3]],
    "seed": lambda fields: [*fields[:3], b"%d" % (int(fields[3]) + 1)],
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("field", sorted(MISMATCHED_INDEX_EDITS))
def test_index_row_differing_from_manifest_is_data_error(field, command, small_corpus, tmp_path, capsys):
    edit = MISMATCHED_INDEX_EDITS[field]
    corpus = _corpus_with_index(small_corpus, tmp_path,
                                lambda row: b" | ".join(edit([f.strip() for f in row.split(b"|")])))
    name = (Path(corpus) / "index.txt").read_text().split("\n")[1].split(" |")[0]
    out = tmp_path / "out"
    argv = {"train": ["train", "--corpus", corpus, "--out", str(out)],
            "eval": ["eval", "--corpus", corpus, "--repeats", "1", "--json-report", str(out)]}
    assert main(argv[command]) == EXIT_DATA
    assert not out.exists()
    assert f"error: {os.path.join(corpus, name)}: index row says " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_trace_labelled_unknown_is_data_error(command, small_corpus, tmp_path, capsys):
    # the second row's crypto trace, relabelled unknown in its manifest and
    # its index row alike, would otherwise count as benign
    corpus = _corpus_with_index(small_corpus, tmp_path, lambda row: row.replace(b"| crypto |", b"| unknown |"))
    name = (Path(corpus) / "index.txt").read_text().split("\n")[1].split(" |")[0]
    trace = Path(corpus) / name
    header, body = trace.read_bytes().split(b"\n", 1)
    trace.write_bytes(header.replace(b'"label":"crypto"', b'"label":"unknown"') + b"\n" + body)
    out = tmp_path / "out"
    argv = {"train": ["train", "--corpus", corpus, "--out", str(out)],
            "eval": ["eval", "--corpus", corpus, "--repeats", "1", "--json-report", str(out)]}
    assert main(argv[command]) == EXIT_DATA
    assert not out.exists()
    assert f"error: {os.path.join(corpus, name)}: label unknown" in capsys.readouterr().err


def test_windowless_corpus_correlations_is_data_error(valid_model_text, tmp_path, capsys):
    corpus, model = tmp_path / "corpus", tmp_path / "m.pm"
    corpus.mkdir()
    model.write_text(valid_model_text, encoding="utf-8")
    for name, label in (("a.pt", TraceLabel.CRYPTO), ("b.pt", TraceLabel.BENIGN)):
        save_trace(str(corpus / name), TraceManifest(label, "x", 1, 0, 0), [])
    (corpus / "index.txt").write_text("a.pt | crypto | x | 1\nb.pt | benign | x | 1\n")
    argv = ["eval", "--corpus", str(corpus), "--model", str(model), "--repeats", "1", "--correlations"]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out.startswith("repeats  : 1 (seed 42)\n")
    assert captured.err == "error: corpus is empty\n"


@pytest.fixture(scope="module")
def valid_model_text(small_corpus):
    rules = load_rules_file(default_rules_path())
    buf = io.BytesIO()
    save_model(train_from_profiles(load_corpus_profiles(small_corpus, rules)), buf)
    return buf.getvalue().decode("utf-8")


def _edit_model(text, section, key, value):
    """text with one key of one section set to value(old value)."""
    lines = text.split("\n")
    i = lines.index(f"[{section}]") + 1
    while not lines[i].startswith(key + " = "):
        i += 1
    lines[i] = f"{key} = {value(lines[i].partition(' = ')[2])}"
    # the surrogate escape stands for the raw byte 0xff: invalid UTF-8
    return "\n".join(lines).encode("utf-8", "surrogateescape")


# (section, key, new value from old value) -> each must be a data error
HOSTILE_MODEL_EDITS = {
    "mlr_mean_2_values": ("scaler.mlr", "mean", lambda v: "0.5 1.5"),
    "mlr_degenerate_1_value": ("scaler.mlr", "degenerate", lambda v: "0"),
    "mlr_std_zero": ("scaler.mlr", "std", lambda v: "0.0" + v[v.index(" "):]),
    "svm_std_9_values": ("scaler.svm", "std", lambda v: v + " 1.0"),
    "svm_mean_nan": ("scaler.svm", "mean", lambda v: "nan" + v[v.index(" "):]),
    "weights_5_values": ("mlr", "weights.benign", lambda v: v.rsplit(" ", 1)[0]),
    "l2_inf": ("mlr", "l2", lambda v: "inf"),
    "gamma_inf": ("svm", "gamma", lambda v: "inf"),
    "bias_minus_inf": ("svm", "bias", lambda v: "-inf"),
    "sv_7_values": ("svm", "sv.0", lambda v: v.rsplit(" ", 1)[0]),
    "coef_missing": ("svm", "coef", lambda v: v.rsplit(" ", 1)[0]),
    "coef_extra": ("svm", "coef", lambda v: v + " 0.5"),
    "threshold_nan": ("fusion", "threshold", lambda v: "nan"),
    "invalid_utf8": ("fusion", "threshold", lambda v: v + "\udcff"),
    "garbage_line": ("scaler.mlr", "mean", lambda v: v + "\ngarbage"),
    "bias_abc": ("svm", "bias", lambda v: "abc"),
    "degenerate_7": ("scaler.mlr", "degenerate", lambda v: "0 0 7 0 0"),
    "mlr_converged_yes": ("mlr", "converged", lambda v: "yes"),
    "svm_converged_yes": ("svm", "converged", lambda v: "yes"),
    "gamma_repeated": ("svm", "gamma", lambda v: v + "\ngamma = 99.0"),
    "fusion_repeated": ("fusion", "threshold", lambda v: f"{v}\n[fusion]\nthreshold = {v}"),
    "n_iter_underscore": ("mlr", "n_iter", lambda v: "5_00"),
    "n_iter_signed": ("mlr", "n_iter", lambda v: "+" + v),
    "l2_underscore": ("mlr", "l2", lambda v: "0.00_1"),
    "l2_exponent": ("mlr", "l2", lambda v: "1e-3"),
    "passes_negative": ("svm", "passes", lambda v: "-2"),
    "passes_leading_zero": ("svm", "passes", lambda v: "0" + v),
}


def _detect_with(tmp_path, model_bytes, rules_bytes=None):
    trace, model, report = tmp_path / "t.pt", tmp_path / "m.pm", tmp_path / "r.json"
    trace.write_bytes(_VALID_TRACE)
    model.write_bytes(model_bytes)
    argv = ["detect", "--trace", str(trace), "--model", str(model), "--json-report", str(report)]
    if rules_bytes is not None:
        (tmp_path / "rules.txt").write_bytes(rules_bytes)
        argv += ["--rules", str(tmp_path / "rules.txt")]
    return main(argv), report.exists()


def test_valid_model_template_detects(valid_model_text, tmp_path, capsys):
    assert _detect_with(tmp_path, valid_model_text.encode("utf-8")) == (EXIT_OK, True)


@pytest.mark.parametrize("name", sorted(HOSTILE_MODEL_EDITS))
def test_hostile_model_is_data_error(name, valid_model_text, tmp_path, capsys):
    edited = _edit_model(valid_model_text, *HOSTILE_MODEL_EDITS[name])
    assert _detect_with(tmp_path, edited) == (EXIT_DATA, False)
    assert "error:" in capsys.readouterr().err


def _model_error_line(lines):
    with pytest.raises(ParseError) as exc:
        load_model(io.BytesIO("\n".join(lines).encode("utf-8")))
    assert str(exc.value).startswith(f"line {exc.value.line}: ")
    return exc.value.line


def test_model_error_names_its_line(valid_model_text):
    lines = valid_model_text.split("\n")

    def index(prefix):  # list index; the file numbers the same line index + 1
        return next(i for i, text in enumerate(lines) if text.startswith(prefix))

    bias, gamma, l2 = index("bias = "), index("gamma = "), index("l2 = ")
    assert _model_error_line(lines[:2] + ["garbage"] + lines[2:]) == 3
    assert _model_error_line(lines[:bias] + ["bias = abc"] + lines[bias + 1:]) == bias + 1
    # a repeat is rejected where it repeats
    assert _model_error_line(lines[:gamma + 1] + ["gamma = 99.0"] + lines[gamma + 1:]) == gamma + 2
    # a missing key names its section's header, a missing section the last line
    assert _model_error_line(lines[:l2] + lines[l2 + 1:]) == index("[mlr]") + 1
    no_fusion = [text for text in lines if text != "[fusion]"]
    assert _model_error_line(no_fusion) == len(no_fusion) - 1  # the text ends in "\n"
    # a key before the first header has no section; a blank line is skipped
    with pytest.raises(ParseError, match=r"^line 2: key outside any section$"):
        load_model(io.BytesIO("\n".join(lines[:1] + ["l2 = 0.001"] + lines[1:]).encode("utf-8")))
    spaced, resaved = "\n".join(lines[:bias] + [""] + lines[bias:]), io.BytesIO()
    save_model(load_model(io.BytesIO(spaced.encode("utf-8"))), resaved)
    assert resaved.getvalue() == valid_model_text.encode("utf-8")


def test_non_utf8_rules_is_data_error(valid_model_text, tmp_path, capsys):
    rules = Path(default_rules_path()).read_bytes() + b"# caf\xe9\n"
    assert _detect_with(tmp_path, valid_model_text.encode("utf-8"), rules) == (EXIT_DATA, False)
    assert "invalid UTF-8" in capsys.readouterr().err


def test_profile_trace_keeps_the_model_free_first_alert(small_corpus):
    # quarantine on or off, a trace's first alert is the same
    rules = load_rules_file(default_rules_path())
    seen = set()
    for path, _, _, _ in read_corpus_index(small_corpus):
        profile = evaluate.profile_trace(path, rules)
        manifest, events = load_trace(path)
        for quarantine in (True, False):
            report = run_trace(Engine(EngineConfig(quarantine), rules=rules), manifest, events)
            assert profile.first_alert == (report.alerts[0] if report.alerts else None), path
        if profile.first_alert:
            seen.add(profile.first_alert.detector)
    assert {Detector.COMMAND_RULE, Detector.FILE_IO_PATTERN} <= seen


def test_detect_and_eval_agree_on_first_alert(small_corpus):
    # eval's judgment of each trace, by the trained model, is detect's first
    # alert with that model and quarantine on, as users run detect, whether
    # the trace is judged alone or in one batch with the whole corpus
    rules = load_rules_file(default_rules_path())
    profiles = load_corpus_profiles(small_corpus, rules)
    model = train_from_profiles(profiles)
    rows = evaluate_profiles(profiles, repeats=1, seed=0, fixed_model=model).rows
    judged = Counter()
    for p, row in zip(profiles, rows):
        manifest, events = load_trace(p.path)
        report = run_trace(Engine(EngineConfig(), rules=rules, model=model), manifest, events)
        first = report.alerts[0] if report.alerts else None
        [(detector, ts)] = evaluate._judge([p], model)
        assert (detector, ts) == ((first.detector.value, first.event_timestamp) if first else (None, None)), p.path
        assert (row.path, row.first_detector, row.latency_us) == (p.path, detector, report.first_alert_latency)
        judged[detector] += 1
    assert judged[Detector.ML_CLASSIFIER.value] and judged[None] and len(judged) >= 3


_VSSADMIN = "vssadmin.exe delete shadows /all /quiet"


def _detect_and_eval_first(tmp_path, events, model):
    """Detect's first alert on a crypto trace file of events, as (detector,
    timestamp), and eval's judgment of that file."""
    path = str(tmp_path / "tie.pt")
    save_trace(path, TraceManifest(TraceLabel.CRYPTO, "t", 0, len(events), events[-1].timestamp), events)
    rules = load_rules_file(default_rules_path())
    first = run_trace(Engine(EngineConfig(), rules=rules, model=model), *load_trace(path)).alerts[0]
    return (first.detector.value, first.event_timestamp), evaluate._judge([evaluate.profile_trace(path, rules)], model)[0]


def test_ml_alert_wins_a_tie_with_a_command_alert(tmp_path):
    # the window [0, WINDOW_LEN) closes, and is scored, before the engine
    # sees the Process Start stamped at its end
    events = [ev_read(30, 1000 + i, 0xA, 0xB) for i in range(5)]
    events.append(ev_proc_start(40, WINDOW_LEN, image="vssadmin.exe", cmdline=_VSSADMIN))
    always = FusedClassifier(mlr=_neutral_mlr(), svm=_neutral_svm(), threshold=0.5)
    detect, judged = _detect_and_eval_first(tmp_path, events, always)
    assert judged == detect == (Detector.ML_CLASSIFIER.value, WINDOW_LEN)


def test_file_alert_wins_a_tie_with_a_later_command_alert(tmp_path):
    # the Cerber transcript alerts on its last event, at 7 ms; a Process
    # Start at the same time comes after it in the stream
    events = cerber_post_overwrite()
    events.append(ev_proc_start(40, events[-1].timestamp, image="vssadmin.exe", cmdline=_VSSADMIN))
    never = FusedClassifier(mlr=_neutral_mlr(), svm=_neutral_svm(), threshold=0.6)
    detect, judged = _detect_and_eval_first(tmp_path, events, never)
    assert judged == detect == (Detector.FILE_IO_PATTERN.value, 7000)


def _peeler_child(argv, hash_seed):
    """`python -m peeler.cli argv` in a child process under PYTHONHASHSEED=hash_seed; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONHASHSEED": str(hash_seed)}
    return subprocess.run([sys.executable, "-m", "peeler.cli", *argv], env=env, capture_output=True,
                          check=True).stdout


def test_outputs_do_not_depend_on_the_hash_seed(small_corpus, tmp_path):
    # the first corpus trace is a crypto run with injected commands: without
    # quarantine its detect report holds rule, pattern and ML alerts alike
    trace = read_corpus_index(small_corpus)[0][0]
    model, report, eval_report, table = (str(tmp_path / name) for name in ("m.pm", "d.json", "e.json", "l.txt"))
    runs = []
    for hash_seed in (0, 12345):
        out = {"train": _peeler_child(["train", "--corpus", small_corpus, "--out", model], hash_seed),
               "model": Path(model).read_bytes()}
        stdout = _peeler_child(["detect", "--trace", trace, "--model", model, "--no-quarantine",
                                 "--json-report", report], hash_seed)
        out["detect"] = [line for line in stdout.split(b"\n") if not line.startswith(b"events   :")]
        out["detect.json"] = [line for line in Path(report).read_bytes().split(b"\n")
                              if b'"events_per_second": ' not in line]
        out["eval"] = _peeler_child(["eval", "--corpus", small_corpus, "--repeats", "2",
                                     "--json-report", eval_report, "--latency-table", table], hash_seed)
        out["eval.json"], out["table"] = Path(eval_report).read_bytes(), Path(table).read_bytes()
        runs.append(out)
    assert {a["detector"] for a in json.loads(Path(report).read_bytes())["alerts"]} == {d.value for d in Detector}
    assert runs[0] == runs[1]

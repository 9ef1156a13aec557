"""CLI subcommands, exit codes, and the evaluation harness."""

import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from peeler import kernels
from peeler.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    TraceProfile,
    evaluate_profiles,
    load_corpus_profiles,
    main,
    ml_first_alert_ts,
    train_from_profiles,
)
from peeler.commands import default_rules_path, load_rules_file
from peeler.events import Detector
from peeler.ml import FusedClassifier, MlrModel, Scaler, SvmModel, load_model_file, save_model
from peeler.pipeline import Engine, EngineConfig, run_trace
from peeler.synth import SynthConfig, default_corpus_spec, synth_corpus
from peeler.trace_io import TraceLabel, load_trace
from peeler.fileio import PatternKind
from oracles import ref_mlr_loss_grad, ref_smo_solve


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
    from peeler.cli import cmd_eval

    s1 = cmd_eval(small_corpus, None, None, repeats=2, seed=9)
    s2 = cmd_eval(small_corpus, None, None, repeats=2, seed=9)
    assert (s1.tp, s1.fp, s1.tn, s1.fn) == (s2.tp, s2.fp, s2.tn, s2.fn)
    assert s1.metrics_dict() == s2.metrics_dict()


def test_eval_correlations_prints_table(small_corpus, capsys):
    assert main(["eval", "--corpus", small_corpus, "--repeats", "1", "--seed", "3",
                 "--correlations"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(File Read, File Write)" in out


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
    from peeler.cli import load_corpus_profiles

    profiles = load_corpus_profiles(str(d), 5_000_000, rules)
    summary = evaluate_profiles(profiles, repeats=1, seed=0)
    assert summary.tp + summary.fp + summary.tn + summary.fn == 2  # 4 traces - 2 train


def _neutral_mlr():
    s = Scaler(np.zeros(5), np.ones(5), np.zeros(5, dtype=bool))
    return MlrModel(weights=np.zeros((2, 6)), scaler=s, l2=0.0, converged=True, n_iter=0)


def _neutral_svm():
    s = Scaler(np.zeros(8), np.ones(8), np.zeros(8, dtype=bool))
    return SvmModel(support_vectors=np.zeros((0, 8)), dual_coefs=np.zeros(0), bias=0.0,
                    gamma=0.125, c=10.0, scaler=s, converged=True, passes=0, dual_objective=0.0)


def _stub_profile(path, label, rule_ts=None):
    return TraceProfile(
        path=path, label=label, family="stub", attack_onset=0, duration=10_000_000,
        rule_alert_ts=rule_ts, pattern_alert_ts=None,
        window_ends=np.zeros(0, dtype=np.int64), window_counts=np.zeros(0, dtype=np.int64),
        X_mlr=np.zeros((0, 5)), X_svm=np.zeros((0, 8)),
    )


def test_perfect_detector_stub_yields_perfect_metrics():
    profiles = [
        _stub_profile("r1", TraceLabel.CRYPTO, rule_ts=100),
        _stub_profile("r2", TraceLabel.SCREEN_LOCKER, rule_ts=200),
        _stub_profile("b1", TraceLabel.BENIGN),
        _stub_profile("b2", TraceLabel.BENIGN),
    ]
    neutral = FusedClassifier(mlr=_neutral_mlr(), svm=_neutral_svm(), threshold=0.6)
    summary = evaluate_profiles(profiles, repeats=3, seed=1, fixed_model=neutral)
    assert summary.accuracy == 1.0 and summary.f1 == 1.0
    assert summary.fpr == 0.0 and summary.fnr == 0.0


def test_f1_is_harmonic_mean_of_precision_recall(small_corpus):
    from peeler.cli import cmd_eval

    s = cmd_eval(small_corpus, None, None, repeats=2, seed=4)
    if s.precision + s.recall > 0:
        expected = 2 * s.precision * s.recall / (s.precision + s.recall)
        assert abs(s.f1 - expected) <= 1e-9


def test_fused_at_least_individual_minus_two_points(small_corpus):
    rules = load_rules_file(default_rules_path())
    from peeler.cli import load_corpus_profiles

    profiles = load_corpus_profiles(small_corpus, 5_000_000, rules)
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
    profiles = load_corpus_profiles(str(tmp_path), 5_000_000,
                                    load_rules_file(default_rules_path()))

    def outputs():
        buf = io.BytesIO()
        save_model(train_from_profiles(profiles), buf)
        summary = evaluate_profiles(profiles, repeats=2, seed=3, train_frac=0.5)
        return buf.getvalue(), summary.rows

    shipped = outputs()
    monkeypatch.setattr(kernels, "mlr_loss_grad", ref_mlr_loss_grad)
    monkeypatch.setattr(kernels, "smo_solve", ref_smo_solve)
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
}


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


def test_detect_and_eval_agree_on_ml_first_alert(small_corpus):
    rules = load_rules_file(default_rules_path())
    profiles = load_corpus_profiles(small_corpus, 5_000_000, rules)
    model = train_from_profiles(profiles)
    flagged = 0
    for p in profiles:
        manifest, events = load_trace(p.path)
        engine = Engine(EngineConfig(quarantine=False), rules=rules, model=model)
        report = run_trace(engine, manifest, events)
        ml = [a.event_timestamp for a in report.alerts if a.detector is Detector.ML_CLASSIFIER]
        assert ml_first_alert_ts(p, model) == (ml[0] if ml else None), p.path
        flagged += bool(ml)
    assert 0 < flagged < len(profiles)

"""Smoke test of the benchmark on tiny inputs, and of its output checks.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import checks
import run

TINY = run.Sizes(
    desktop_duration_us=150_000_000,
    desktop_intensity=2.0,
    train_corpus=(4, 4, 12),
    crypto_files=40,
    crypto_duration_us=20_000_000,
    eval_corpus=(8, 8, 24),
    eval_repeats=1,
)
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def program():
    run._import_program()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_checks_out(workload, trace):
    result = run.run_workload(workload, seed=5, seconds=0.0, trace=trace, sizes=TINY)
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _alert(ts, pid=7, trigger="MemToFilePostOverwrite", detector=checks.FILE_IO):
    return {"detector": detector, "pid": pid, "trigger": trigger,
            "event_timestamp": ts, "emitted_timestamp": ts}


TRUTH = checks.CryptoTruth(pattern="MemToFilePostOverwrite", pid=7, starts=[10, 20, 40],
                           completions=[25, 30, 50], event_lines=99, oracle=[(25, "MemToFilePostOverwrite")])


def test_crypto_check_accepts_a_right_report():
    report = {"events_processed": 99, "alerts": [_alert(25)]}
    assert checks.check_crypto(report, TRUTH) == ([], 1)
    no_oracle = checks.CryptoTruth(**{**TRUTH.__dict__, "oracle": None})
    report = {"events_processed": 99, "alerts": [_alert(25), _alert(30), _alert(50)]}
    assert checks.check_crypto(report, no_oracle) == ([], 3)


@pytest.mark.parametrize("alerts, lines", [
    ([_alert(25), _alert(26), _alert(27), _alert(28)], 99),  # more alerts than files
    ([_alert(51)], 99),  # after the last file was lost
    ([_alert(5)], 99),  # before any encryption started
    ([_alert(35)], 99),  # between two encryptions
    ([_alert(25, pid=8)], 99),  # another process
    ([_alert(25, trigger="FileToFileDelete")], 99),  # another pattern
    ([_alert(25, detector="CommandRule")], 99),
    ([_alert(25)], 98),  # events lost
    ([_alert(30)], 99),  # not the oracle's alert
])
def test_crypto_check_rejects_a_wrong_report(alerts, lines):
    errors, _ = checks.check_crypto({"events_processed": lines, "alerts": alerts}, TRUTH)
    assert errors


def test_desktop_checks_reject_a_wrong_report():
    right = {"events_processed": 10, "alerts": [_alert(5, detector="MlClassifier")]}
    assert checks.check_events_processed(right, 10) == []
    assert checks.check_against_oracle(right, []) == []
    wrong = {"events_processed": 10, "alerts": [_alert(5)]}
    assert checks.check_against_oracle(wrong, [])
    assert checks.check_events_processed(wrong, 11)


EVAL_TRUTH = checks.CorpusTruth(
    ransomware={"c.pt": True, "l.pt": True, "lc.pt": True, "b1.pt": False, "b2.pt": False},
    must_flag={"c.pt", "lc.pt"}, test_split=(2, 1), repeats=2)
# repeat, trace, verdict, first detector
RIGHT = [(0, "c.pt", "ransomware", "FileIoPattern"), (0, "l.pt", "benign", ""),
         (0, "b1.pt", "ransomware", "MlClassifier"),
         (1, "c.pt", "ransomware", "MlClassifier"), (1, "lc.pt", "ransomware", "CommandRule"),
         (1, "b2.pt", "benign", "")]


def _eval_report(tp, fp, tn, fn):
    total = tp + fp + tn + fn
    return {"counts": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
            "accuracy": (tp + tn) / total, "fpr": fp / (fp + tn)}


def test_eval_check_accepts_a_right_report():
    assert checks.test_split(80, 120, 0.2) == (64, 96)
    table = "repeat | trace | label | family | verdict | detector | latency_ms\n" + "".join(
        f"{r} | corpus/{name} | x | y | {verdict} | {detector} | 1.00\n"
        for r, name, verdict, detector in RIGHT)
    assert checks.parse_judgments(table) == RIGHT
    assert checks.check_eval(_eval_report(3, 1, 1, 1), RIGHT, EVAL_TRUTH) == []


@pytest.mark.parametrize("report, judgments", [
    (_eval_report(3, 1, 1, 1), RIGHT[:-1]),  # a judgment missing
    (_eval_report(3, 1, 1, 1), RIGHT + [(1, "b1.pt", "benign", "")]),  # one too many
    (_eval_report(4, 1, 1, 1), RIGHT + [RIGHT[3]]),  # c.pt judged twice in repeat 1
    (_eval_report(3, 1, 1, 1), [(0, "c.pt", "benign", ""), *RIGHT[1:]]),  # crypto trace missed
    (_eval_report(3, 1, 1, 1), [*RIGHT[:2], (0, "b1.pt", "ransomware", "CommandRule"), *RIGHT[3:]]),
    (_eval_report(3, 1, 1, 1), [(2, n, v, d) if r == 1 else (r, n, v, d) for r, n, v, d in RIGHT]),
    (_eval_report(3, 1, 1, 1), [*RIGHT[:5], (1, "x.pt", "benign", "")]),  # not in the corpus
    (_eval_report(4, 0, 2, 0), RIGHT),  # counts that are not the judgments'
    ({**_eval_report(3, 1, 1, 1), "accuracy": 1.0}, RIGHT),  # accuracy not from the counts
])
def test_eval_check_rejects_a_wrong_report(report, judgments):
    assert checks.check_eval(report, judgments, EVAL_TRUTH)

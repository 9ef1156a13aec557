"""Output checks of the benchmark.

Each check takes the JSON report a CLI command wrote and a reference the
benchmark computed apart from the program: the prefix oracle of
tests/oracles.py, the generator's ground truth, or the split rule of the
evaluation method. It returns a list of error strings, empty when the
report is right.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import PurePath
from typing import Dict, List, Optional, Sequence, Set, Tuple

FILE_IO = "FileIoPattern"
ML = "MlClassifier"


def file_io_alerts(report: dict) -> List[Tuple[int, str]]:
    """(event timestamp, pattern) of every FILE_IO alert, in time order."""
    return sorted(
        (a["event_timestamp"], a["trigger"]) for a in report["alerts"] if a["detector"] == FILE_IO
    )


def check_events_processed(report: dict, event_lines: int) -> List[str]:
    got = report["events_processed"]
    if got != event_lines:
        return [f"events_processed {got} != {event_lines} event lines in the trace"]
    return []


def check_against_oracle(report: dict, oracle: Sequence[Tuple[int, str]]) -> List[str]:
    got = file_io_alerts(report)
    expected = sorted(oracle)
    if got != expected:
        return [f"FILE_IO alerts differ from the prefix oracle: {len(got)} alerts, "
                f"oracle {len(expected)}; first differences "
                f"{sorted(set(got) ^ set(expected))[:5]}"]
    return []


@dataclass
class CryptoTruth:
    """Generator-side facts about one crypto trace."""

    pattern: str  # the PatternKind value every alert must name
    pid: int  # the ransomware process
    starts: List[int]  # timestamp of each encrypted file's first event
    completions: List[int]  # GenInfo.file_completions: its last event
    event_lines: int
    oracle: Optional[List[Tuple[int, str]]]  # prefix-oracle alerts, where affordable


def check_crypto(report: dict, truth: CryptoTruth) -> Tuple[List[str], int]:
    """Errors, and the number of encrypted files the report flags.

    Every alert must be a FILE_IO alert of the trace's pattern on the
    ransomware pid. Alerts map one-to-one onto encrypted files, each no
    earlier than its file's first event and no later than its last: the
    j-th earliest alert may not precede the j-th earliest start, the j-th
    latest may not follow the j-th latest completion, and at each alert
    some encryption must be under way. A flagged count above the file
    count is an error.
    """
    errors = check_events_processed(report, truth.event_lines)
    for a in report["alerts"]:
        if a["detector"] != FILE_IO or a["trigger"] != truth.pattern or a["pid"] != truth.pid:
            errors.append(f"alert outside the encryption: {a}")
            break
    times = sorted(a["event_timestamp"] for a in report["alerts"])
    starts = sorted(truth.starts)
    ends = sorted(truth.completions)
    n, m = len(ends), len(times)
    if m > n:
        errors.append(f"{m} alerts for {n} encrypted files")
        return errors, m
    for j, t in enumerate(times):
        if t < starts[j]:
            errors.append(f"alert at {t} before the start of the file it could flag")
            break
        if times[m - 1 - j] > ends[n - 1 - j]:
            errors.append(f"alert at {times[m - 1 - j]} after the file it could flag was lost")
            break
        if bisect_right(starts, t) - bisect_left(ends, t) <= 0:
            errors.append(f"alert at {t} while no file was being encrypted")
            break
    if truth.oracle is not None:
        errors += check_against_oracle(report, truth.oracle)
    return errors, m


def test_split(n_ransomware: int, n_benign: int, train_frac: float) -> Tuple[int, int]:
    """Ransomware and benign traces judged per repeat: eval trains on a
    stratified train_frac share of each class (at least one trace) and
    judges the rest."""
    n_r = max(1, int(round(train_frac * n_ransomware)))
    n_b = max(1, int(round(train_frac * n_benign)))
    return n_ransomware - n_r, n_benign - n_b


@dataclass
class CorpusTruth:
    """Generator-side facts about the eval corpus, by trace file name."""

    ransomware: Dict[str, bool]  # the label the generator gave each trace
    # crypto traces and traces with injected attack commands: the file I/O
    # matcher or the command rules flag them whatever model eval trains
    must_flag: Set[str]
    test_split: Tuple[int, int]  # (ransomware, benign) traces judged per repeat
    repeats: int


def parse_judgments(table: str) -> List[Tuple[int, str, str, str]]:
    """(repeat, trace file name, verdict, first detector) of each row of
    `peeler eval --latency-table`."""
    rows = []
    for line in table.splitlines()[1:]:
        repeat, path, _, _, verdict, detector, _ = (f.strip() for f in line.split("|"))
        rows.append((int(repeat), PurePath(path).name, verdict, detector))
    return rows


def check_eval(report: dict, judgments: Sequence[Tuple[int, str, str, str]],
               truth: CorpusTruth) -> List[str]:
    """Every repeat judges the test split once, the counts are those of the
    judgments against the generator's labels, the reported accuracy and FPR
    follow from them, and no judgment contradicts a detector that does not
    depend on training: crypto traces and traces with injected commands are
    flagged, and only the ML classifier may flag a benign trace.

    The criterion-6 bounds (accuracy >= 0.95, FPR <= 0.05) are not checked:
    they are stated for one corpus over 20 repeats, and a 3-repeat eval of
    another corpus can miss them (see README.md)."""
    errors = []
    per_repeat = {}
    tally = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for repeat, name, verdict, detector in judgments:
        if name not in truth.ransomware:
            return [f"judged a trace that is not in the corpus: {name}"]
        ransomware = truth.ransomware[name]
        seen = per_repeat.setdefault(repeat, {})
        if name in seen:
            errors.append(f"repeat {repeat} judges {name} twice")
        seen[name] = ransomware
        flagged = verdict == "ransomware"
        tally[("t" if flagged == ransomware else "f") + ("p" if flagged else "n")] += 1
        if name in truth.must_flag and not flagged:
            errors.append(f"repeat {repeat}: {name} is not flagged")
        if flagged and not ransomware and detector != ML:
            errors.append(f"repeat {repeat}: benign {name} flagged by {detector}")
    if sorted(per_repeat) != list(range(truth.repeats)):
        errors.append(f"judgments for repeats {sorted(per_repeat)}, not 0..{truth.repeats - 1}")
    for repeat, seen in sorted(per_repeat.items()):
        split = (sum(seen.values()), len(seen) - sum(seen.values()))
        if split != truth.test_split:
            errors.append(f"repeat {repeat} judges (ransomware, benign) = {split}, "
                          f"not the test split {truth.test_split}")
    c = report["counts"]
    if {k: c[k] for k in tally} != tally:
        errors.append(f"counts {c} are not those of the judgments {tally}")
    tp, fp, tn, fn = c["tp"], c["fp"], c["tn"], c["fn"]
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    if abs(report["accuracy"] - accuracy) > 1e-12 or abs(report["fpr"] - fpr) > 1e-12:
        errors.append(f"reported accuracy/fpr {report['accuracy']}/{report['fpr']} "
                      f"do not follow from the counts {c}")
    return errors

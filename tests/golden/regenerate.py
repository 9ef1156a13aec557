"""Make the golden outputs of `peeler` in-process, or rewrite the files that hold them.

The goldens pin what peeler prints and writes today:

- the detect matrix: three traces (locker seed 3 with injected commands, a
  2000-file post-overwrite crypto run seed 11 over 300 s, desktop seed 3 at
  intensity 20 over 120 s), each with quarantine on and off, and with and
  without the model that `train --seed 42` writes. Each case keeps its
  `--json-report` without `events_per_second` and the trace path, and its
  stdout without those two lines.
- one 200-file crypto trace, seed 11 over 60 s, of each of the other three
  shapes (pre-overwrite, file-delete, rename-delete), with quarantine on and
  off and without a model: the file I/O matcher's alerts of every acceptor,
  among them the two file-to-file shapes, which read whether a file was
  opened through more than one handle.
- `train --seed 42` on the seed-42 default corpus: the model file and stdout.
- `eval --repeats 3 --seed 7 --json-report --latency-table --correlations`
  on that corpus: the report, the latency table (trace paths cut to their
  basenames) and stdout.

`tests/test_golden.py` compares these against the committed files. A change
meant to keep peeler's outputs does not run this script; one that changes
them on purpose runs it and says why in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List

from peeler.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent

TRACES = {
    "locker": ["--archetype", "locker", "--seed", "3", "--inject-commands"],
    "crypto": ["--archetype", "crypto:post-overwrite", "--files", "2000", "--seed", "11",
               "--duration-ms", "300000"],
    "desktop": ["--archetype", "benign-desktop", "--seed", "3", "--intensity", "20",
                "--duration-ms", "120000"],
}

# detected without a model only: what they pin is the file I/O matcher
SHAPE_TRACES = {
    f"crypto_{shape.replace('-', '_')}": ["--archetype", f"crypto:{shape}", "--files", "200",
                                          "--seed", "11", "--duration-ms", "60000"]
    for shape in ("pre-overwrite", "file-delete", "rename-delete")
}


def _run(argv: List[str]) -> str:
    """stdout of `peeler argv`, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != EXIT_OK:
        raise RuntimeError(f"peeler {' '.join(argv)} exited {code}")
    return out.getvalue()


def _without_lines(text: str, *prefixes: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith(prefixes))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def outputs(corpus_dir: str, work: str) -> Dict[str, str]:
    """Each golden file's name -> its text, made through `cli.main` in `work`.

    `corpus_dir` holds the default corpus synthesized with master seed 42.
    """
    golden: Dict[str, str] = {}
    model = os.path.join(work, "model.pm")
    stdout = _run(["train", "--corpus", corpus_dir, "--out", model, "--seed", "42"])
    golden["train_stdout.txt"] = stdout.replace(model, "model.pm")
    golden["train_model.txt"] = Path(model).read_text(encoding="utf-8")

    report = os.path.join(work, "report.json")
    models = (("model", ["--model", model]), ("no_model", []))
    for name, synth_argv in {**TRACES, **SHAPE_TRACES}.items():
        trace = os.path.join(work, f"{name}.pt")
        _run(["synth", *synth_argv, "--out", trace])
        for quarantine, q_argv in (("quarantine", []), ("no_quarantine", ["--no-quarantine"])):
            for with_model, m_argv in models if name in TRACES else models[1:]:
                case = f"detect_{name}_{quarantine}_{with_model}"
                stdout = _run(["detect", "--trace", trace, *q_argv, *m_argv, "--json-report", report])
                golden[f"{case}_stdout.txt"] = _without_lines(stdout, "trace    :", "events   :")
                payload = json.loads(Path(report).read_text(encoding="utf-8"))
                del payload["trace"], payload["events_per_second"]
                golden[f"{case}_report.json"] = _json_text(payload)

    table = os.path.join(work, "latency.txt")
    stdout = _run(["eval", "--corpus", corpus_dir, "--repeats", "3", "--seed", "7",
                   "--json-report", report, "--latency-table", table, "--correlations"])
    golden["eval_stdout.txt"] = stdout
    golden["eval_report.json"] = _json_text(json.loads(Path(report).read_text(encoding="utf-8")))
    rows = Path(table).read_text(encoding="utf-8").splitlines(keepends=True)
    for i in range(1, len(rows)):
        fields = rows[i].split(" | ")
        fields[1] = os.path.basename(fields[1])
        rows[i] = " | ".join(fields)
    golden["eval_latency.txt"] = "".join(rows)
    return golden


def regenerate() -> None:
    for old in GOLDEN_DIR.glob("*.json"):
        old.unlink()
    for old in GOLDEN_DIR.glob("*.txt"):
        old.unlink()
    with tempfile.TemporaryDirectory() as work:
        corpus = os.path.join(work, "corpus")
        _run(["synth", "--default-corpus", corpus, "--seed", "42"])
        for name, text in outputs(corpus, work).items():
            (GOLDEN_DIR / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()

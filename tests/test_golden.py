"""Golden outputs: detect, train and eval print and write what they did before.

The expected files under tests/golden/ and the script that writes them are
described in tests/golden/regenerate.py.
"""

import difflib
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))

from regenerate import outputs  # noqa: E402


def test_outputs_match_goldens(default_corpus_dir, tmp_path, capsys):
    made = outputs(default_corpus_dir, str(tmp_path))
    committed = {p.name for p in GOLDEN_DIR.iterdir() if p.suffix in (".json", ".txt")}
    assert sorted(made) == sorted(committed)
    diffs = []
    for name, text in sorted(made.items()):
        expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        if text != expected:
            diff = difflib.unified_diff(expected.splitlines(keepends=True), text.splitlines(keepends=True),
                                        f"golden/{name}", "made", n=1)
            diffs.append("".join(list(diff)[:40]))
    assert not diffs, "outputs differ from the goldens:\n" + "\n".join(diffs)

"""Static checks over the program's own source."""

import ast
from pathlib import Path

import peeler

SOURCES = sorted(Path(peeler.__file__).parent.glob("*.py"))


def _unused_parameters(tree):
    """(function name, line, parameter) for each parameter its body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        for p in params:
            if p not in read and p not in ("self", "cls"):
                yield getattr(node, "name", "<lambda>"), node.lineno, p


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "pipeline.py", "synth.py", "ml.py"}


def test_every_parameter_is_read():
    unused = [
        f"{path.name}:{line} {name}({param})"
        for path in SOURCES
        for name, line, param in _unused_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []

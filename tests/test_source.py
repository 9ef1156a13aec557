"""Static checks over the program's own source."""

import argparse
import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

import peeler
from peeler import commands, fileio, trace_io

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
    assert {p.name for p in SOURCES} >= {"cli.py", "evaluate.py", "pipeline.py", "synth.py", "ml.py"}


def test_every_parameter_is_read():
    unused = [
        f"{path.name}:{line} {name}({param})"
        for path in SOURCES
        for name, line, param in _unused_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def _imported_packages(tree):
    """The top-level package of each absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_imported_package_is_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in dependencies}
    undeclared = sorted(
        f"{path.name}: {package}"
        for path in SOURCES
        for package in set(_imported_packages(ast.parse(path.read_text(encoding="utf-8"))))
        if package not in sys.stdlib_module_names and package != "peeler" and package not in declared
    )
    assert undeclared == []


# Functions that run once per event, by module. On CPython 3.11 a member
# loaded through its Enum class (Provider.FILE) goes through
# EnumType.__getattr__, and a dict lookup keyed by a member calls
# Enum.__hash__, a Python function; per-event code uses module globals and
# wire-string keys instead.
PER_EVENT = {
    "trace_io.py": ("Window.add", "_windows", "_blocks", "_block_events", "line_to_event", "_event",
                    "_event_dict", "_event_bytes"),
    "pipeline.py": ("Engine.process_event",),
    "fileio.py": ("FileIoMatcher.ingest",),
    "commands.py": ("CommandMatcher.match",),
}


def _functions(tree):
    """Each top-level function and method of a module, as (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def _enum_slow_paths(function):
    """(line, expression) for each Enum class attribute load or PATTERN_LETTERS subscript."""
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in ("Provider", "EventType"):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                and node.value.id == "PATTERN_LETTERS":
            yield node.lineno, "PATTERN_LETTERS[...]"


def test_per_event_functions_skip_enum_class_lookups():
    package = Path(peeler.__file__).parent
    found = []
    for module, names in PER_EVENT.items():
        functions = dict(_functions(ast.parse((package / module).read_text(encoding="utf-8"))))
        for name in names:
            found += [f"{module}:{line} {name}: {expr}" for line, expr in _enum_slow_paths(functions[name])]
    assert found == []


def test_no_code_reads_the_attrs_alias():
    # an event's payload fields are its own attributes; Event.attrs returns
    # the event itself and is kept only for the benchmark's own code
    tests = sorted(Path(__file__).parent.rglob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES + tests
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "attrs"
    ]
    assert found == []


def _readme_commands():
    """Each `peeler ...` command in README's code blocks, continuations joined."""
    readme = Path(__file__).parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    text = "\n".join(blocks).replace("\\\n", " ")
    return [line.split()[1:] for line in text.splitlines() if line.startswith("peeler ")]


def test_readme_cli_examples_parse():
    from peeler.cli import _build_parser

    commands = _readme_commands()
    assert len(commands) >= 6
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README advertises an invalid command: peeler " + " ".join(argv))


def _subcommand_actions():
    """(subcommand, action) for every action of every `peeler` subcommand."""
    from peeler.cli import _build_parser

    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            yield name, action


def _subcommand_options():
    """(subcommand, option string) for every option of every `peeler` subcommand, help aside."""
    for name, action in _subcommand_actions():
        for option in action.option_strings:
            if option not in ("-h", "--help"):
                yield name, option


def test_every_cli_option_is_tested():
    tests = [p for p in sorted(Path(__file__).parent.glob("*.py")) if p.name != "test_source.py"]
    text = "\n".join(p.read_text(encoding="utf-8") for p in tests)
    untested = [
        f"{name} {option}"
        for name, option in _subcommand_options()
        if f'"{option}"' not in text and f"'{option}'" not in text
    ]
    assert untested == []


def test_every_numeric_option_is_bounded():
    # a bare int or float takes every value, NaN included; each numeric
    # option states its domain with cli._within instead
    bare = [f"{name} {action.option_strings[0]}" for name, action in _subcommand_actions()
            if action.type in (int, float)]
    assert bare == []


def _names_value_error(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return any(_names_value_error(n) for n in node.elts)
    return isinstance(node, ast.Name) and node.id == "ValueError"


def test_cli_neither_raises_nor_catches_value_error():
    # usage errors are the parser's; a ValueError inside a command is an internal error
    tree = ast.parse((Path(peeler.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and _names_value_error(node.exc)
        or isinstance(node, ast.ExceptHandler) and _names_value_error(node.type)
    ]
    assert found == []


def _names_taken_from(tree, module):
    """Each name a module's code takes from `module`: by from-import, or as an
    attribute of a name that the module is imported as."""
    package, _, leaf = module.rpartition(".")
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == package:
            aliases |= {alias.asname or alias.name for alias in node.names if alias.name == leaf}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names if alias.name == module and alias.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield node.attr


@pytest.mark.parametrize("module", [commands, fileio, trace_io], ids=lambda module: module.__name__)
def test_matcher_reference_decides_by_itself(module):
    # RefFileIoMatcher and brute_force_alerts decide exemption, suppression
    # and blame with their own code, ref_read_trace checks each value with
    # its own code, and ref_command_match tokenizes and globs with its own
    # code; a function of the module under test there would check it
    # against its own verdicts
    oracles = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    borrowed = {name for name in _names_taken_from(oracles, module.__name__)
                if inspect.isfunction(getattr(module, name, None))}
    assert borrowed == set()


# Calls that only change the container they are called on.
_MUTATORS = {"add", "append", "discard", "extend", "insert", "remove", "update"}


def _attributes_read(tree, outside):
    """Each attribute name that a module's code loads, the body of class
    `outside` aside. Loading x.a only to call a mutator on it, as in
    x.a.append(...), writes x.a and does not read it."""
    nodes = [node for top in tree.body
             if not (isinstance(top, ast.ClassDef) and top.name == outside)
             for node in ast.walk(top)]
    written = {id(node.func.value) for node in nodes
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr in _MUTATORS}
    return {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in written}


@pytest.mark.parametrize("cls", [fileio.FileEventsList, trace_io.Window], ids=lambda c: c.__name__)
def test_every_file_list_slot_is_read(cls):
    # a FileEventsList is kept for every created file of a trace, and a
    # Window is built for every window of every stream; a slot that no
    # verdict reads, only tests, is memory spent on nothing. The check goes
    # by attribute name, so a read of a same-named attribute elsewhere counts
    # too: synth's tr.start(...) would hide a Window slot named start.
    read = set().union(*(_attributes_read(ast.parse(path.read_text(encoding="utf-8")), cls.__name__)
                         for path in SOURCES))
    assert [slot for slot in cls.__slots__ if slot not in read] == []


def _private_definitions(tree):
    """(name, first line, last line) of each single-underscore function,
    method and class that a module defines, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name.startswith("_") and not node.name.startswith("__"):
            yield node.name, node.lineno, node.end_lineno


def _references(tree):
    """(name, line) for each name that a module's code loads, reads as an
    attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def _unreferenced_private_names(sources):
    """module:line name of each private definition that no code outside its
    own body refers to, such as a helper that a refactor left behind."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    uses = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((module, line))
    return [
        f"{module}:{first} {name}"
        for module, tree in trees.items()
        for name, first, last in _private_definitions(tree)
        if all(m == module and first <= line <= last for m, line in uses.get(name, ()))
    ]


def test_every_private_definition_is_referenced():
    assert _unreferenced_private_names(SOURCES) == []


def test_only_trace_io_and_synth_read_the_attack_onset():
    # latency has one rule, TraceManifest.latency, which detect and eval
    # both call; synth reads the onset only to write it into the manifest
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name not in ("trace_io.py", "synth.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "attack_onset" and isinstance(node.ctx, ast.Load)
    ]
    assert found == []

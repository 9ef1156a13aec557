"""Malicious-command detection over Process Start command lines.

A rule names a utility (executable stem) plus argument tokens that must all
be present. Rules deliberately key on utility + action tokens rather than
full command strings so that path and parameter variants of the same attack
command still match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fnmatch import translate as _glob_translate
from functools import lru_cache
from typing import BinaryIO, Dict, List, Optional, Tuple

from .errors import ParseError, decode_utf8
from .events import Alert, Detector, Event, EventType, Provider

GOALS = ("stealth", "attack", "payment_guidance")

_PROCESS, _START = Provider.PROCESS, EventType.START


@dataclass(frozen=True)
class CommandRule:
    """One auditable rule: utility plus required argument tokens.

    Every required token is an fnmatch pattern matched case-insensitively
    against whole argument tokens: * matches any run of characters, ? any one
    character and [...] one character of a class ([!...] one outside it; a-c
    is a range), so a literal [ is spelled [[] and a token without *, ? or [
    matches by equality. A rule matches when each of its tokens matches some
    argument token. Utility-only rules are rejected: at least one token is
    required so that plain invocations of a utility never alert.
    """

    id: str
    goal: str
    utility: str
    required_tokens: Tuple[str, ...]
    description: str


def normalize_command(command_line: str) -> Tuple[str, List[str]]:
    """Split a raw command line into (utility, argument tokens).

    Outside double quotes, every character that str.isspace accepts (tab,
    \\x1c-\\x1f, NBSP and U+3000 too) ends a token. A double quote opens or
    closes a quoted segment, which joins what touches it, and is dropped; no
    token is empty. The utility is the final path component of the first
    token (either slash accepted as separator), lowercased, with a trailing
    ".exe" stripped. The other tokens, lowercased, are the arguments. Empty
    input gives ("", []).
    """
    tokens: List[str] = []
    current: List[str] = []
    in_quotes = False
    for ch in command_line:
        if ch == '"':
            in_quotes = not in_quotes
        elif ch.isspace() and not in_quotes:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    if not tokens:
        return "", []
    head = tokens[0].lower()
    utility = re.split(r"[\\/]", head)[-1]
    if utility.endswith(".exe"):
        utility = utility[: -len(".exe")]
    return utility, [t.lower() for t in tokens[1:]]


def _parse_rule_line(line: str, lineno: int) -> CommandRule:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 5:
        raise ParseError(lineno, f"expected 5 |-separated fields, got {len(parts)}")
    rule_id, goal, utility, token_field, description = parts
    if not rule_id:
        raise ParseError(lineno, "empty rule id")
    if goal not in GOALS:
        raise ParseError(lineno, f"unknown goal {goal!r}")
    utility = utility.lower()
    if not utility:
        raise ParseError(lineno, "empty utility")
    tokens = tuple(t.strip().lower() for t in token_field.split(",") if t.strip())
    if not tokens:
        raise ParseError(lineno, "rule requires at least one token")
    return CommandRule(
        id=rule_id, goal=goal, utility=utility, required_tokens=tokens, description=description
    )


def load_rules(source: BinaryIO) -> List[CommandRule]:
    """Parse a rules file: one `id | goal | utility | tokens | description`
    per line, and `#` comments."""
    rules: List[CommandRule] = []
    seen = set()
    text = decode_utf8(source.read())
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rule = _parse_rule_line(line, lineno)
        if rule.id in seen:
            raise ParseError(lineno, f"duplicate rule id {rule.id!r}")
        seen.add(rule.id)
        rules.append(rule)
    return rules


def load_rules_file(path) -> List[CommandRule]:
    with open(path, "rb") as f:
        return load_rules(f)


def default_rules_path() -> str:
    from importlib.resources import files

    return str(files("peeler.data").joinpath("default_rules.txt"))


@lru_cache(maxsize=None)
def _token_check(token: str):
    return re.compile(_glob_translate(token)).match


class CommandMatcher:
    """Immutable matching engine over a list of rules; safe for concurrent use.
    A Process Start alerts on the first rule in list order that matches it.
    Each distinct token is compiled once per process."""

    def __init__(self, rules: List[CommandRule]):
        self._by_utility: Dict[str, list] = {}
        for rule in rules:
            checks = [_token_check(tok) for tok in rule.required_tokens]
            self._by_utility.setdefault(rule.utility, []).append((rule, checks))

    def match(self, e: Event) -> Optional[Alert]:
        if e.provider is not _PROCESS or e.etype is not _START:
            return None
        utility, tokens = normalize_command(e.command_line)
        for rule, checks in self._by_utility.get(utility, ()):
            if all(any(map(check, tokens)) for check in checks):
                return Alert(
                    detector=Detector.COMMAND_RULE,
                    pid=e.pid,
                    trigger=rule.id,
                    event_timestamp=e.timestamp,
                )
        return None

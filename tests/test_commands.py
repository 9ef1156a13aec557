"""Command rule loading, normalization, and matching."""

import io
import random
from collections import Counter

import numpy as np
import pytest

from peeler.commands import (
    CommandMatcher,
    load_rules,
    load_rules_file,
    default_rules_path,
    normalize_command,
)
from peeler.errors import ParseError
from peeler.events import Detector
from command_corpus import ATTACK_COMMANDS, BENIGN_COMMANDS
from helpers import ev_proc_start, ev_read
from oracles import ref_command_match


@pytest.fixture(scope="module")
def bundled():
    return load_rules_file(default_rules_path())


def test_normalize_plain_command():
    assert normalize_command("vssadmin.exe delete shadows /all /quiet") == (
        "vssadmin",
        ["delete", "shadows", "/all", "/quiet"],
    )


def test_normalize_strips_path_and_exe():
    assert normalize_command(r"C:\Windows\System32\net.exe stop vss") == ("net", ["stop", "vss"])
    assert normalize_command("/opt/bin/NET.EXE stop vss")[0] == "net"


def test_normalize_empty():
    assert normalize_command("") == ("", [])
    assert normalize_command("   ") == ("", [])


def test_normalize_keeps_quoted_segments_whole():
    utility, tokens = normalize_command(
        r'reg add "HKCU\Control Panel\Desktop" /v Wallpaper /t REG_SZ /d img.bmp /f'
    )
    assert utility == "reg"
    assert tokens[1] == r"hkcu\control panel\desktop"


def test_bundled_rules_load(bundled):
    assert len(bundled) >= 20
    assert len({r.id for r in bundled}) == len(bundled)


def test_all_attack_commands_alert(bundled):
    matcher = CommandMatcher(bundled)
    for cmdline in ATTACK_COMMANDS:
        e = ev_proc_start(4321, 1000, image="mal.exe", cmdline=cmdline)
        alert = matcher.match(e)
        assert alert is not None, f"no alert for: {cmdline}"
        assert alert.detector is Detector.COMMAND_RULE
        assert alert.pid == 4321
        assert alert.trigger
        assert alert.event_timestamp == 1000


def test_benign_corpus_never_alerts(bundled):
    matcher = CommandMatcher(bundled)
    assert len(BENIGN_COMMANDS) >= 50
    for cmdline in BENIGN_COMMANDS:
        e = ev_proc_start(77, 0, image="host.exe", cmdline=cmdline)
        assert matcher.match(e) is None, f"false alert for: {cmdline}"


def test_matching_is_case_insensitive(bundled):
    matcher = CommandMatcher(bundled)
    rng = np.random.default_rng(13)
    for cmdline in ATTACK_COMMANDS[:8]:
        mangled = "".join(
            c.upper() if rng.random() < 0.5 else c.lower() for c in cmdline
        )
        base = matcher.match(ev_proc_start(1, 0, cmdline=cmdline))
        wild = matcher.match(ev_proc_start(1, 0, cmdline=mangled))
        assert wild is not None and wild.trigger == base.trigger


def test_first_matching_rule_wins():
    rules = load_rules(io.BytesIO(b"a | attack | net | stop | x\nb | attack | net | stop,vss | y\n"))
    alert = CommandMatcher(rules).match(ev_proc_start(1, 0, cmdline="net stop vss"))
    assert alert.trigger == "a"


def test_bracket_token_is_a_character_class():
    # a rule token is an fnmatch pattern: [default] is a class of seven
    # letters, so it matches the argument d and not [default]; [[] is a
    # literal [
    data = b"c | attack | bcdedit | [default] | x\nl | attack | bcdedit | [[]default] | y\n"
    matcher = CommandMatcher(load_rules(io.BytesIO(data)))
    assert matcher.match(ev_proc_start(1, 0, cmdline="bcdedit d")).trigger == "c"
    assert matcher.match(ev_proc_start(1, 0, cmdline="bcdedit [default]")).trigger == "l"
    assert matcher.match(ev_proc_start(1, 0, cmdline="bcdedit default")) is None


def test_non_start_events_never_match(bundled):
    assert CommandMatcher(bundled).match(ev_read(1, 0, 0xA, 0xB)) is None


def test_token_mismatch_is_absent(bundled):
    assert CommandMatcher(bundled).match(ev_proc_start(1, 0, cmdline="net.exe start spooler")) is None


def test_empty_rules_file():
    # a `# version:` line is a comment like any other
    for data in (b"", b"# version: 1\n"):
        assert load_rules(io.BytesIO(data)) == []


def test_duplicate_rule_id_rejected():
    data = b"x | attack | net | stop | a\nx | attack | sc | stop | b\n"
    with pytest.raises(ParseError, match=r"^line 2: duplicate rule id 'x'$"):
        load_rules(io.BytesIO(data))


def test_malformed_rule_line_reports_lineno():
    with pytest.raises(ParseError) as exc:
        load_rules(io.BytesIO(b"# comment\nbad line without pipes\n"))
    assert exc.value.line == 2


def test_utility_only_rule_rejected():
    with pytest.raises(ParseError, match="token"):
        load_rules(io.BytesIO(b"x | attack | net |  | no tokens\n"))


def test_unknown_goal_rejected():
    with pytest.raises(ParseError, match="goal"):
        load_rules(io.BytesIO(b"x | world_domination | net | stop | d\n"))


@pytest.mark.parametrize("line, message", [
    (b" | attack | net | stop | d\n", "empty rule id"),
    (b"x | attack |  | stop | d\n", "empty utility"),
])
def test_empty_rule_field_rejected(line, message):
    with pytest.raises(ParseError, match=rf"^line 1: {message}$"):
        load_rules(io.BytesIO(line))


def test_match_is_pure(bundled):
    e = ev_proc_start(9, 50, cmdline=ATTACK_COMMANDS[0])
    results = {CommandMatcher(bundled).match(e).trigger for _ in range(5)}
    assert len(results) == 1



# --- differential tests against tests/oracles.py::ref_command_match -----------

# token separators (str.isspace, so \x1c, NBSP and U+3000 too) and what
# wraps the utility
_SEPARATORS = (" ", " ", " ", "  ", "\t", " \t", "\x1c", "\x1f", "\xa0", "\u3000", "\u2028")
_DIRS = ("", "", "C:\\Windows\\System32\\", "c:/windows/system32/", "C:\\Windows/SysWOW64\\", "/usr/bin/",
         "\\\\srv\\share\\")
_EXES = ("", "", ".exe", ".EXE", ".Exe", ".com", ".exe.bak")


def _mangle(rng, text):
    """text with random letters upper-cased now and then."""
    if rng.random() < 0.7:
        return text
    return "".join(c.upper() if rng.random() < 0.5 else c for c in text)


def _command_line(rng, utility, args):
    """A command line running utility with args, each part at times quoted
    whole or in part, parts joined by random separators, a quoted one among
    them now and then (which joins two parts into one token)."""
    head = rng.choice(_DIRS) + utility + rng.choice(_EXES)
    parts = ['"' + head + '"' if rng.random() < 0.1 else head]
    for arg in args:
        r = rng.random()
        if r < 0.08:
            arg = f'"{arg}"'
        elif r < 0.14 and len(arg) > 1:
            k = rng.randrange(1, len(arg))
            arg = f'{arg[:k]}"{arg[k:]}"'
        elif r < 0.16:
            arg += '""'
        parts.append(arg)
    seps = [rng.choice(_SEPARATORS) if rng.random() < 0.97 else '" "' for _ in parts]
    line = "".join(sep + part for sep, part in zip(seps, parts))[1:]
    if rng.random() < 0.03:
        line += ' "' + rng.choice(("", "tail", "a b"))
    return line


def _arg_count(rng):
    return rng.choice((0, 1, 2, 2, 3, 3, 4, 5, 6)) if rng.random() < 0.98 else rng.randrange(40, 200)


# arguments that meet each bundled glob; a glob not listed is its own argument
_GLOB_HITS = {
    "*win32_shadowcopy*": ("win32_shadowcopy", "get-wmiobject:win32_shadowcopy", "x_Win32_ShadowCopy.delete()"),
    "*mcafee*": ("mcafee", "McAfeeFramework", "svc_mcafee"),
    "*temp*.vbs": ("c:\\temp\\a.vbs", "%TEMP%\\x.vbs", "temp.vbs", "temp.vbs.txt", "tmp.vbs"),
    "*.exe": ("x.exe", ".exe", "a.exe.old", "PAYLOAD.EXE", "x.ex"),
}
# arguments that hold a rule token or are near one, and bracket tokens
_NEAR = ("deleted", "shadowsx", "/all", "/quiet", "-enc", "-e:", "x-e", "stopvss", "vss;", "add;", "no.", "nop",
         "[default]", "[d]", "d", "[", "]", "a[b", "(.*)", "+", "$", "^", "hiddenfile", "wallpapers", "-", "*", "?",
         "/deny:x", "everyone:f,", "/f/im", "onlogon;highest", "restoringfiles", "set-mppreferences")


def _bundled_line(rng, tokens_of):
    utility = rng.choice(list(tokens_of) + ["cmd", "sc", "explorer", "vssadmin2"])
    vocab = tokens_of.get(utility, ())
    args = []
    for _ in range(_arg_count(rng)):
        r = rng.random()
        if vocab and r < 0.55:
            tok = rng.choice(vocab)
            arg = rng.choice(_GLOB_HITS.get(tok, (tok,)))
        elif r < 0.85:
            arg = rng.choice(_NEAR)
        else:
            arg = "".join(rng.choice("abdelnostv-/:.") for _ in range(rng.randint(1, 8)))
        args.append(_mangle(rng, arg))
    return _command_line(rng, utility, args)


def _differential(rules, lines):
    """Counter of each line's rule id from CommandMatcher (None when no rule
    fires), after checking that the reference gives the same on every line."""
    matcher = CommandMatcher(rules)
    fired = Counter()
    for line in lines:
        alert = matcher.match(ev_proc_start(1, 0, cmdline=line))
        got = alert and alert.trigger
        assert got == ref_command_match(rules, line), repr(line)
        fired[got] += 1
    return fired


def test_bundled_rules_equal_reference_on_random_lines(bundled):
    rng = random.Random(27)
    tokens_of = {}
    for rule in bundled:
        tokens_of.setdefault(rule.utility, []).extend(rule.required_tokens)
    lines = [_bundled_line(rng, tokens_of) for _ in range(20_000)]
    fired = _differential(bundled, lines)
    # the lines reach every rule, and rules in order: some lines would fire
    # a later rule of the same utility too
    assert set(fired) == {None} | {rule.id for rule in bundled}
    assert 0.15 <= fired[None] / len(lines) <= 0.85, fired
    shadowed = sum(
        ref_command_match([r for r in bundled if r.id != first], line) is not None
        for line in lines
        if (first := ref_command_match(bundled, line)) is not None
    )
    assert shadowed >= 200


# pieces of a random rule token: (pattern, kind, characters). An instance of
# the pattern puts any run of characters for *, any one for ?, a member (or
# for [!...] a non-member) for a class, and the characters of a literal.
_LITERAL_CHARS = "abxAB.+()$^{}\\&~]"
_CLASSES = (("[abc]", "abc"), ("[!a]", "!a"), ("[a-c]", "abc"), ("[[]", "["), ("[!.b]", "!.b"), ("[\\]", "\\"),
            ("[$^]", "$^"), ("[]a]", "]a"), ("[a-]", "a-"), ("[.]", "."))
_ANY_CHARS = "abcx.[]!-\\$"


def _random_piece(rng):
    r = rng.random()
    if r < 0.45:
        text = "".join(rng.choice(_LITERAL_CHARS) for _ in range(rng.randint(1, 3)))
        return text, "literal", text.lower()
    if r < 0.6:
        return "*", "star", ""
    if r < 0.7:
        return "?", "any", ""
    pattern, chars = rng.choice(_CLASSES)
    return pattern, "class", chars


def _instance(rng, pieces):
    out = []
    for _, kind, chars in pieces:
        if kind == "literal":
            out.append(chars)
        elif kind == "star":
            out.append(rng.choice(("", "a", "b.", "[x", "aa", "\\")))
        elif kind == "any":
            out.append(rng.choice(_ANY_CHARS))
        elif chars.startswith("!"):
            out.append(rng.choice([c for c in _ANY_CHARS if c not in chars[1:]]))
        else:
            out.append(rng.choice(chars))
    text = "".join(out)
    if rng.random() < 0.2:  # a near miss, of which a literal token is only a part
        text = rng.choice("ab[.") + text if rng.random() < 0.5 else text + rng.choice("ab].")
    return text


def _random_arg(rng, vocab):
    """An instance of one of the token pieces in vocab, or at times a short
    run of random characters."""
    if rng.random() < 0.75:
        return _mangle(rng, _instance(rng, rng.choice(vocab)))
    return "".join(rng.choice(_ANY_CHARS + "*?") for _ in range(rng.randint(1, 4)))


def _random_rule_set(rng):
    """(rules text, {utility: [token pieces]}): up to 8 rules over three
    utilities, each token one to four pieces, a lone [ (a literal) at the end
    now and then."""
    lines, pieces_of = [], {}
    for i in range(rng.randint(1, 8)):
        utility = rng.choice(("net", "reg", "tool"))
        tokens = []
        for _ in range(rng.randint(1, 3)):
            pieces = [_random_piece(rng) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.1:
                pieces.append(("[", "literal", "["))
            pieces_of.setdefault(utility, []).append(pieces)
            tokens.append("".join(p[0] for p in pieces))
        lines.append(f"r{i} | attack | {utility} | {','.join(tokens)} | random rule")
    return "\n".join(lines), pieces_of


def test_random_rule_sets_equal_reference_on_random_lines():
    rng = random.Random(41)
    fired = Counter()
    for _ in range(500):
        text, pieces_of = _random_rule_set(rng)
        lines = []
        for _ in range(40):
            utility = rng.choice(("net", "reg", "tool", "other"))
            vocab = pieces_of.get(utility) or [p for ps in pieces_of.values() for p in ps]
            args = [_random_arg(rng, vocab) for _ in range(_arg_count(rng))]
            lines.append(_command_line(rng, utility, args))
        fired += _differential(load_rules(io.BytesIO(text.encode())), lines)
    total = sum(fired.values())
    assert total == 20_000 and 0.15 <= fired[None] / total <= 0.85, fired

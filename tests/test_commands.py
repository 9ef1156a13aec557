"""Command rule loading, normalization, and matching."""

import io

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
    assert bundled.version == "1"
    assert len(bundled.rules) >= 20
    assert len({r.id for r in bundled.rules}) == len(bundled.rules)


def test_all_attack_commands_alert(bundled):
    matcher = CommandMatcher(bundled)
    for cmdline in ATTACK_COMMANDS:
        e = ev_proc_start(4321, 1000, image="mal.exe", cmdline=cmdline)
        alert = matcher.match(e)
        assert alert is not None, f"no alert for: {cmdline}"
        assert alert.detector is Detector.COMMAND_RULE
        assert alert.pid == 4321
        assert alert.trigger
        assert alert.emitted_timestamp >= alert.event_timestamp == 1000


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
    rs = load_rules(io.BytesIO(b""))
    assert rs.rules == [] and rs.version == "0"


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


def test_match_is_pure(bundled):
    e = ev_proc_start(9, 50, cmdline=ATTACK_COMMANDS[0])
    results = {CommandMatcher(bundled).match(e).trigger for _ in range(5)}
    assert len(results) == 1

"""The command-line surface: evaluation grammar, suites, nerve output,
horn lifting, exit codes, and report determinism."""

import hashlib
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from csgroups import braids, cli, core, groupoid, kan, operad, perms, suites
from csgroups.core import SymmetricCsg
from csgroups.groupoid import GroupoidArrow
from test_fuzz import _expression, _horns, _soup, run_cli
from words import face, word


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _must_not_run(*args, **kwargs):
    raise AssertionError("work was started for an input above a limit")


def test_eval_perm_expressions(capsys):
    code, out, _ = run(capsys, "eval", "circ_0([1,0],[1,0])")
    assert code == 0 and out.strip() == "[2,1,0]"
    code, out, _ = run(capsys, "eval", "boxplus([1,0],[0])")
    assert code == 0 and out.strip() == "[1,0,2]"
    code, out, _ = run(capsys, "eval", "mul([1,0,2],[2,0,1])")
    assert code == 0 and out.strip() == "[2,1,0]"
    code, out, _ = run(capsys, "eval", "d_0(s_1(sL(sR([1,0]))))")
    assert code == 0


def test_eval_braid_expressions(capsys):
    code, out, _ = run(capsys, "eval", "mul(inv(s1@1), s1@1)")
    assert code == 0
    assert "identity=true" in out and "perm=[0,1]" in out
    code, out, _ = run(capsys, "eval", "s1 s2^-1 s1@2")
    assert code == 0 and out.startswith("s1 s2^-1 s1 @ 2")
    assert "perm=[2,1,0]" in out
    code, out, _ = run(capsys, "eval", "1@3")
    assert code == 0 and "identity=true" in out
    # One whole line, artin= fingerprint included, pinned as it was
    # recorded when the fingerprint moved to the normal form.
    code, out, _ = run(capsys, "eval", "mul(s1 s2^-1 s1@2, inv(s2 s1@2))")
    assert code == 0 and out == (
        "s1 s2^-1 s1 s1^-1 s2^-1 @ 2  perm=[1,0,2]  artin=570992cc450131cf"
        "  identity=false\n")


def test_eval_error_positions(capsys):
    code, _, err = run(capsys, "eval", "mul([1,0], s1@1)")
    assert code == 2 and "position" in err
    code, _, err = run(capsys, "eval", "mul([1,0])")
    assert code == 2
    code, _, err = run(capsys, "eval", "d_5([1,0])")
    assert code == 2
    code, _, err = run(capsys, "eval", "frob([1,0],[0,1])")
    assert code == 2 and "frob" in err
    code, _, err = run(capsys, "eval", "[1,1]")
    assert code == 2


@pytest.mark.parametrize("expression", ["mul([1,0],[0,1,2])", "mul(s1@1, s1 s2@2)"])
def test_eval_cross_level_product(capsys, expression):
    code, out, err = run(capsys, "eval", expression)
    assert code == 2 and out == ""
    assert err == "parse error at position 0: mul: levels 1 and 2 differ\n"


# Pinned as the operator-by-operator parser printed them, before the
# operator table.  A braid line's artin= value there hashes the reduced
# images artin_act(b); eval now prints the hash of the normal form
# (canonical_value), recorded in _NORMAL_FORM_ARTIN when the fingerprint
# moved to it.  Everything else on each line is unchanged.
_NORMAL_FORM_ARTIN = {
    'boxplus(s1@1, 1@0)': '330e2bad5cdbd0dd',
    'circ_0(s1@1, s1@1)': 'e62b0752e3cb7e2b',
    'd_1(s1 s2@2)': '593d7141a6e09aa9',
    'inv(s1 s2@2)': 'bb98d32c0fa2eec2',
    'mul(s1@2, s2@2)': '076c2c699ee48ac1',
    'sL(s1@1)': '8c90331738f5a778',
    'sR(s1@1)': '330e2bad5cdbd0dd',
    's_0(s1@1)': '24b78709ca3c27d7',
}


@pytest.mark.parametrize("expression, out", [
    ('boxplus([1,0],[0])', '[1,0,2]\n'),
    ('boxplus(s1@1, 1@0)', 's1 @ 2  perm=[1,0,2]  artin=2af86d33913bb459  identity=false\n'),
    ('circ_0(s1@1, s1@1)', 's1 s2 s1 @ 2  perm=[2,1,0]  artin=ee4983cf64bfbead  identity=false\n'),
    ('circ_1([1,0],[1,0])', '[2,1,0]\n'),
    ('d_0([1,2,0])', '[0,1]\n'),
    ('d_1(s1 s2@2)', 's1 @ 1  perm=[1,0]  artin=bd51884bf306b156  identity=false\n'),
    ('inv([1,2,0])', '[2,0,1]\n'),
    ('inv(s1 s2@2)', 's2^-1 s1^-1 @ 2  perm=[2,0,1]  artin=cd58395ec91c6f53  identity=false\n'),
    ('mul([1,0],[1,0])', '[0,1]\n'),
    ('mul(s1@2, s2@2)', 's1 s2 @ 2  perm=[1,2,0]  artin=ceeb93720c9c576d  identity=false\n'),
    ('sL([1,0])', '[0,2,1]\n'),
    ('sL(s1@1)', 's2 @ 2  perm=[0,2,1]  artin=9eceedcccc783e0d  identity=false\n'),
    ('sR([1,0])', '[1,0,2]\n'),
    ('sR(s1@1)', 's1 @ 2  perm=[1,0,2]  artin=2af86d33913bb459  identity=false\n'),
    ('s_0(s1@1)', 's2 s1 @ 2  perm=[2,0,1]  artin=28ab373c6a460eef  identity=false\n'),
    ('s_00000000001([1,0])', '[1,2,0]\n'),
    ('s_1([1,0])', '[1,2,0]\n'),
])
def test_eval_operator_lines(capsys, expression, out):
    if "artin=" in out:
        word_part, _, _ = out.partition("  perm=")
        letters, _, level = word_part.partition(" @ ")
        pinned = re.search(r"artin=(\w+)", out).group(1)
        assert braids.artin_fingerprint(braids.artin_act(word(letters, int(level)))) == pinned
        out = out.replace(pinned, _NORMAL_FORM_ARTIN[expression])
    assert run(capsys, "eval", expression) == (0, out, "")


# Unknown operators first (among them an index where none belongs, or
# none where one does), then a wrong argument count, then mixed operands.
# A syntax error names the mark, number or expression it expected; the
# comma lists of permutation literals and of arguments share one reader.
@pytest.mark.parametrize("expression, err", [
    ('boxplus(1@1, [0])', 'parse error at position 0: mixed permutation and braid operands\n'),
    ('boxplus([0])', 'parse error at position 0: boxplus takes two arguments\n'),
    ('boxplus_1([0],[0])', "parse error at position 0: unknown operator 'boxplus_1'\n"),
    ('circ([1,0],[1,0])', "parse error at position 0: unknown operator 'circ'\n"),
    ('circ_0([1,0])', 'parse error at position 0: circ_0 takes two arguments\n'),
    ('circ_0([1,0], s1@1)', 'parse error at position 0: mixed permutation and braid operands\n'),
    ('circ_0(s1@1, [1,0])', 'parse error at position 0: mixed permutation and braid operands\n'),
    ('circ_0(s1@1, s1@1, s1@1)', 'parse error at position 0: circ_0 takes two arguments\n'),
    ('circ_5([1,0],[1,0])', 'parse error at position 0: circ_5: slot 5 out of range at level 1\n'),
    ('d([1,0])', "parse error at position 0: unknown operator 'd'\n"),
    ('d(s1@1, [1,0])', "parse error at position 0: unknown operator 'd'\n"),
    ('d_0([0])', 'parse error at position 0: d_0: cannot take a face at level 0\n'),
    ('d_0([1,0],[0,1])', 'parse error at position 0: d_0 takes one argument\n'),
    ('d_0([1,0],[0,1], s1@1)', 'parse error at position 0: d_0 takes one argument\n'),
    ('d_05([1,2,0])', 'parse error at position 0: d_05: face index 5 out of range at level 2\n'),
    ('d_1000([1,0])',
     'parse error at position 0: d_1000: face index 1000 out of range at level 1\n'),
    ('d_5([1,0])', 'parse error at position 0: d_5: face index 5 out of range at level 1\n'),
    ('frob([1,0])', "parse error at position 0: unknown operator 'frob'\n"),
    ('frob_2([1,0],[0,1])', "parse error at position 0: unknown operator 'frob_2'\n"),
    ('inv([1,0],[1,0])', 'parse error at position 0: inv takes one argument\n'),
    ('inv(mul([1,0]))', 'parse error at position 4: mul takes two arguments\n'),
    ('inv_0([1,0])', "parse error at position 0: unknown operator 'inv_0'\n"),
    ('mul([1,0])', 'parse error at position 0: mul takes two arguments\n'),
    ('mul([1,0], s1@1)', 'parse error at position 0: mixed permutation and braid operands\n'),
    ('mul([1,0],[1,0],[0,1])', 'parse error at position 0: mul takes two arguments\n'),
    ('mul(d_0([1,0]), [1,0])', 'parse error at position 0: mul: levels 0 and 1 differ\n'),
    ('mul(s1@1, [1,0], [0,1])', 'parse error at position 0: mul takes two arguments\n'),
    ('mul_3([1,0])', "parse error at position 0: unknown operator 'mul_3'\n"),
    ('mul_3([1,0],[1,0])', "parse error at position 0: unknown operator 'mul_3'\n"),
    ('s([1,0])', "parse error at position 0: unknown operator 's'\n"),
    ('sL([1,0],[0,1])', 'parse error at position 0: sL takes one argument\n'),
    ('sL_2([1,0])', "parse error at position 0: unknown operator 'sL_2'\n"),
    ('sR(s1@1, s1@1)', 'parse error at position 0: sR takes one argument\n'),
    ('s_0(s1@1, s1@1)', 'parse error at position 0: s_0 takes one argument\n'),
    ('s_5([1,0])', 'parse error at position 0: s_5: degeneracy index 5 out of range at level 1\n'),
    ('mul 5', "parse error at position 4: expected '(', found '5'\n"),
    ('s1 5@1', "parse error at position 3: expected '@', found '5'\n"),
    ('[1 0]', "parse error at position 3: expected ']', found '0'\n"),
    ('[1,0', "parse error at position 4: expected ']', found the end of the input\n"),
    ('[1,', "parse error at position 3: expected int, found the end of the input\n"),
    ('[1,,0]', "parse error at position 3: expected int, found ','\n"),
    ('[,0]', "parse error at position 1: expected int, found ','\n"),
    ('mul(,[0])', "parse error at position 4: expected an expression, found ','\n"),
    ('mul([0],',
     "parse error at position 8: expected an expression, found the end of the input\n"),
    ('mul([0] [0])', "parse error at position 8: expected ')', found '['\n"),
    ('mul([0],[0]',
     "parse error at position 11: expected ')', found the end of the input\n"),
])
def test_eval_operator_errors(capsys, expression, err):
    assert run(capsys, "eval", expression) == (2, "", err)


def _pinned_eval_inputs():
    """About 2,000 eval inputs drawn from random.Random(0): braid products,
    inverses and literals on 2-7 strands, half of whose words use only
    some of the generators (so several runs of them, as in s1 s3@4), with
    letters written spaced, juxtaposed or split by other whitespace, now
    and then one out of range; partial compositions of permutations;
    soups of braid tokens; and error lines that end, or name, a run of
    letters."""
    rng = random.Random(0)

    def letters(level, gens):
        out = []
        for _ in range(rng.randint(0, 8)):
            k = rng.choice(gens) + 1 if rng.random() < 0.99 else rng.choice((0, level + 1))
            out.append(f"s{'0' * (rng.random() < 0.03)}{k}" + rng.choice(("", "^-1")))
        return "".join(rng.choice((" ", " ", " ", "", "\t", "  ")) + x
                       for x in out).lstrip(" ") or "1"

    inputs = []
    for _ in range(1400):
        level = rng.randint(1, 6)
        gens = (range(level) if rng.random() < 0.5
                else rng.sample(range(level), rng.randint(1, level)))
        a, b = (f"{letters(level, gens)}@{level}" for _ in range(2))
        inputs.append(rng.choice(("{a}", "inv({a})", "mul({a}, {b})", "mul({a}, inv({b}))",
                                  "mul(inv({a}), {b})")).format(a=a, b=b))
    for _ in range(300):
        p, q = (rng.sample(range(n), n) for n in (rng.randint(1, 6), rng.randint(1, 6)))
        inputs.append(f"circ_{rng.randrange(len(p) + (rng.random() < 0.1))}("
                      f"{perms.format_perm(p)},"
                      f"{perms.format_perm(q)})")
    tokens = ["s1", "s2", "s3^-1", "s12", "s0", "s", "^-1", "^-", "@", "1", "2", "[", "]",
              "(", ")", ",", " ", "", "mul", "inv", "sL", "s_0", "x"]
    for _ in range(300):
        inputs.append("".join(rng.choice(tokens) for _ in range(rng.randint(1, 10))))
    return inputs + [
        "[s1 s2]", "mul(s1@2 s2 s1, 1@2)", "s1 s2^-@2", "s1 s@2", "s1s2@2", "s" + "9" * 5000,
        "s1 s2", "s1 s2@", "s1 s2@s3 s4", "[0]s1 s2", "s1@1 s2 s3", "1@2 s1 s2", "mul(s1 s2)",
        "s1 s2 sL(s1@1)", "s1\ns2\ts3@3", "s2 s1" + " s9" * 3000 + "@3"]


# SHA-256 of every (exit code, stdout, stderr) of _pinned_eval_inputs, in
# order, as recorded before a run of braid letters became one token.
_PINNED_EVAL_DIGEST = "c020b565da7d4e6e806919dbaddef4c6561df58ce8e1a1c87be8bbb42dcc7435"


def test_eval_bytes_are_pinned(capsys):
    seen = hashlib.sha256()
    for expression in _pinned_eval_inputs():
        seen.update(json.dumps(run(capsys, "eval", expression)).encode("utf-8"))
    assert seen.hexdigest() == _PINNED_EVAL_DIGEST


@pytest.mark.parametrize("expression", ["d_1001([1,0])", "s_1001([1,0])",
                                        "circ_1001([1,0],[1,0])", "d_" + "9" * 5000 + "([1,0])"],
                         ids=["d", "s", "circ", "5000-digits"])
def test_eval_index_above_the_limit(capsys, expression):
    """An operator index is read like every other number; one of 5000
    digits printed Python's advice on int() digit limits."""
    assert run(capsys, "eval", expression) == (
        2, "", "parse error at position 0: index is above the limit 1000\n")
    # The argument count is still checked first.
    code, _, err = run(capsys, "eval", expression.replace("([1,0]", "([1,0],[0,1],[1,0]"))
    assert code == 2 and err.endswith((" takes one argument\n", " takes two arguments\n"))


def test_eval_looks_operations_up_when_called(monkeypatch, capsys):
    """A wrapper installed after import, as the call tracer installs
    one, sees the calls."""
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)
    monkeypatch.setattr(operad, "circ_set", counted("circ_set", operad.circ_set))
    monkeypatch.setattr(SymmetricCsg, "inv", counted("inv", SymmetricCsg.inv))
    assert run(capsys, "eval", "inv(circ_0([1,0],[1,0]))") == (0, "[2,1,0]\n", "")
    assert calls == ["circ_set", "inv"]


def test_commands_are_looked_up_when_called(monkeypatch, capsys):
    """A wrapper installed on a command after the parser was built, as
    the call tracer installs one, sees the next call."""
    assert run(capsys, "eval", "[1,0]") == (0, "[1,0]\n", "")
    calls = []
    cmd_eval = cli.cmd_eval
    monkeypatch.setattr(cli, "cmd_eval",
                        lambda args: calls.append(args.expression) or cmd_eval(args))
    assert run(capsys, "eval", "[1,0]") == (0, "[1,0]\n", "")
    assert calls == ["[1,0]"]


def test_main_builds_one_parser(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    for argv in (["eval", "[1,0]"], ["eval", "s1@1"], ["check", "crossed", "--max-level", "0"]):
        assert run(capsys, *argv)[0] == 0
    assert built == [1]


@pytest.mark.parametrize("between, code", [
    (["eval"], 2), (["check", "nonsense"], 2), (["eval", "--help"], 0),
    (["kan-lift", "-h"], 0), (["nerve", "--level"], 2)])
@pytest.mark.parametrize("expression", ["mul(s1 s2^-1 s1@2, inv(s2 s1@2))",
                                        "circ_1([1,0,2],[1,0])"])
def test_usage_exit_leaves_the_parser_as_it_was(capsys, between, code, expression):
    first = run(capsys, "eval", expression)
    assert first[0] == 0
    with pytest.raises(SystemExit) as exited:
        cli.main(between)
    assert exited.value.code == code
    capsys.readouterr()
    assert run(capsys, "eval", expression) == first


# Each of these was read as if its digits were ASCII.
@pytest.mark.parametrize("expression", ["[\u0661,\u0660]", "s\u0661@1", "1@\u0661",
                                        "d_\u0660([1,0])"])
def test_eval_reads_only_ascii_digits(capsys, expression):
    code, out, err = run(capsys, "eval", expression)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "unexpected character" in err


def test_check_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "crossed", "--instance", "symm",
                       "--max-level", "0")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "check", "operadic", "--instance", "braid",
                       "--trials", "25", "--seed", "42")
    assert code == 0


def test_check_json_deterministic(capsys):
    args = ("check", "monoidal", "--instance", "braid", "--trials", "40",
            "--seed", "7", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["outcome"] == "pass"
    assert payload["params"]["seed"] == 7


def test_check_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "nonsense"])
    assert exc.value.code == 2


def test_nerve_json(capsys):
    code, out, _ = run(capsys, "nerve", "--instance", "braid", "--level", "2",
                       "--dimension", "2", "--count", "2", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    for entry in payload:
        assert entry["level"] == 2
        assert len(entry["chain"]) == entry["dimension"]
        assert len(entry["quotient"]) == entry["dimension"]


# SHA-256 of stdout, as first recorded; pins every object, face and
# edge label, which the structural checks above do not.
@pytest.mark.parametrize("argv,digest", [
    (("--instance", "braid", "--level", "3", "--dimension", "3", "--count", "5",
      "--seed", "4"), "e14bd956b103a200faa4a5533fa049c0bd7c20142bf4942c2c4a2be58f625a31"),
    (("--instance", "symm", "--level", "2", "--dimension", "3", "--count", "5",
      "--seed", "2"), "1ba8c0158d74f22c773c913011a80154f63622b2811b4c040f6dfcdd9eac3a8e"),
    (("--format", "dot", "--level", "2"),
     "031d26cd4c928e7c0e55225dbf277d108a7e4f65514f677200e8a111554b0541"),
])
def test_nerve_output_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "nerve", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_nerve_dot(capsys):
    code, out, _ = run(capsys, "nerve", "--instance", "symm", "--level", "1",
                       "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, _, err = run(capsys, "nerve", "--instance", "braid", "--format", "dot")
    assert code == 2


def test_kan_lift_cli(tmp_path, capsys):
    import random

    from csgroups import BRAID, braids, kan

    rng = random.Random(9)
    g = BRAID.random_element(rng, 2, 4)
    horn = kan.horn_from_filler(BRAID, g, 1)
    path = tmp_path / "horn.json"
    path.write_text(json.dumps({
        "instance": "braid", "level": horn.n, "k": horn.k,
        "base": perms.format_perm(horn.base),
        "faces": {str(r): braids.format_letters(y.payload)
                  for r, y in horn.face_items()}}))
    code, out, _ = run(capsys, "kan-lift", str(path))
    assert code == 0
    assert "projection == base: ok" in out
    assert "face 0 == y_0: ok" in out and "face 2 == y_2: ok" in out

    data = json.loads(path.read_text())
    data["faces"]["0"] = "s1 s1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "kan-lift", str(bad))
    assert code == 1 and "lift failed" in err

    code, _, err = run(capsys, "kan-lift", str(tmp_path / "missing.json"))
    assert code == 2

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{\"level\": 2}")
    code, _, err = run(capsys, "kan-lift", str(mangled))
    assert code == 2


# The braid lift is the freely reduced word, pinned when moore_fill and
# lift_horn began to reduce the filler; perm=, artin= and identity= are
# as they were pinned before, since the braid is the same.  The last
# horn breaks a projection equation (y_2) and a pair equation (y_1 with
# y_3); the projection is reported, as it is checked first.
_PINNED_HORNS = [
    ({"instance": "braid", "level": 3, "k": 1, "base": "[1,3,0,2]",
      "faces": {"0": "s2", "2": "s1 s2^-1", "3": "s1 s2^-1 s2"}},
     (0, "lift: s1 s2 s3^-1 s3^-1 s2^-1 s3 s2 @ 3  perm=[1,3,0,2]  artin=744d204d80ef8680"
      "  identity=false\n"
      "projection == base: ok\nface 0 == y_0: ok\nface 2 == y_2: ok\nface 3 == y_3: ok\n",
      "")),
    ({"instance": "symm", "level": 2, "k": 1, "base": "[2,0,1]",
      "faces": {"0": "[1,0]", "2": "[0,1]"}},
     (0, "lift: [2,0,1]\nprojection == base: ok\nface 0 == y_0: ok\nface 2 == y_2: ok\n",
      "")),
    ({"instance": "braid", "level": 3, "k": 0, "base": "[0,1,2,3]",
      "faces": {"1": "s1 s1", "2": "s2", "3": "1"}},
     (1, "", "lift failed: perm(y_2) != d_2(base)\n")),
]


@pytest.mark.parametrize("horn, result", _PINNED_HORNS,
                         ids=["braid", "symm", "braid-incompatible"])
def test_kan_lift_output_is_pinned(tmp_path, capsys, horn, result):
    path = tmp_path / "horn.json"
    path.write_text(json.dumps(horn))
    assert run(capsys, "kan-lift", str(path)) == result


def test_kan_lift_checks_only_what_lift_horn_checks(monkeypatch, tmp_path, capsys):
    """lift_horn verifies the projection and every face before it
    returns, so kan-lift calls equal, face and underlying_perm exactly as
    often as lift_horn alone does on the same horn."""
    horn = _PINNED_HORNS[0][0]
    path = tmp_path / "horn.json"
    path.write_text(json.dumps(horn))
    calls = {}

    def counting(name):
        method = getattr(core.BraidCsg, name)

        def counted(self, *args):
            calls[name] = calls.get(name, 0) + 1
            return method(self, *args)
        return counted
    for name in ("equal", "face", "underlying_perm"):
        monkeypatch.setattr(core.BraidCsg, name, counting(name))
    kan.lift_horn(core.BRAID, cli.read_horn(core.BRAID, horn))
    alone, calls = calls, {}
    assert run(capsys, "kan-lift", str(path))[0] == 0
    assert calls == alone and alone["equal"] > 0


def test_check_instance_contract(capsys):
    code, out, err = run(capsys, "check", "section", "--instance", "symm")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    code, out, err = run(capsys, "check", "inverse-transport", "--instance", "braid")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    code, out, _ = run(capsys, "check", "section", "--trials", "5")
    assert code == 0 and out.startswith("suite section [braid] pass")
    code, out, _ = run(capsys, "check", "quotient", "--trials", "5")
    assert code == 0 and out.startswith("suite quotient [symm] pass")


@pytest.mark.parametrize("argv", [
    ("crossed", "--max-level", "-3"),
    ("crossed", "--instance", "braid", "--trials", "-5"),
    ("monoidal", "--instance", "braid", "--trials", "0"),
    ("crossed", "--instance", "braid", "--word-len", "-1"),
    ("crossed", "--instance", "braid", "--max-level", "0"),
    ("simplicial", "--instance", "braid", "--max-level", "0"),
    ("extra-degeneracy", "--instance", "braid", "--max-level", "0"),
    # At level 0 the equivariance search refutes none of its readings.
    ("equivariance", "--max-level", "0"),
    ("equivariance", "--instance", "braid", "--max-level", "0"),
])
def test_check_rejects_out_of_range_numbers(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "must be at least" in err


def test_kan_lift_rejects_non_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    code, out, err = run(capsys, "kan-lift", str(path))
    assert code == 2 and out == "" and len(err.splitlines()) == 1


def test_nerve_rejects_negative_level(capsys):
    code, out, err = run(capsys, "nerve", "--level", "-1")
    assert code == 2 and out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("eval", "1@30000000"),
    ("eval", "1@" + "9" * 5000),
    ("eval", "[" + "9" * 5000 + "]"),
    ("eval", "sL(1@1000)"),
    ("nerve", "--level", "30000000", "--count", "1"),
])
def test_level_above_the_limit_is_rejected(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert str(cli.MAX_LEVEL) in err
    # Rejected before anything the size of the level is built.
    assert peak < 1_000_000


def test_eval_nesting_limit(capsys):
    nest = lambda depth: "inv(" * depth + "[1,0]" + ")" * depth
    code, out, _ = run(capsys, "eval", nest(cli.MAX_DEPTH))
    assert code == 0 and out == "[1,0]\n"
    # 500 and 1000 nested calls overflowed the interpreter stack.
    for depth in (cli.MAX_DEPTH + 1, 500, 1000):
        code, out, err = run(capsys, "eval", nest(depth))
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert f"position {4 * cli.MAX_DEPTH}" in err


@pytest.mark.parametrize("content", [
    b'{"level": ' + b"9" * 5000 + b"}",
    b"\xff\xfe{",
    # Overflowed the interpreter stack in the JSON decoder.
    b"[" * 100_000 + b"]" * 100_000,
], ids=["over-long-number", "not-utf-8", "deep-array"])
def test_kan_lift_rejects_unreadable_json(tmp_path, capsys, content):
    path = tmp_path / "horn.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "kan-lift", str(path))
    assert code == 2 and out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize("horn", [
    {"instance": "braid", "level": 2, "k": 1, "base": "[0,1,2]",
     "faces": {"0": 5, "2": "1"}},
    {"instance": "symm", "level": 2, "k": 1, "base": "[0,1,2]",
     "faces": {"0": [0, 1], "2": "[0,1]"}},
    {"instance": "braid", "level": 3000000, "k": 0, "base": "[0,1,2]", "faces": {}},
    {"instance": "braid", "level": float("inf"), "k": 0, "base": "[0,1,2]", "faces": {}},
    # Each of these was lifted as a level-2 horn missing face 1.
    {"instance": "braid", "level": 2.7, "k": True, "base": "[0,1,2]",
     "faces": {"0": "1", "2": "1"}},
    {"instance": "braid", "level": "2", "k": "1", "base": "[0,1,2]",
     "faces": {"0": "1", "2": "1"}},
    {"instance": "braid", "level": 2, "k": 1, "base": "[0,1,2]",
     "faces": {"0": "1", "02": "1"}},
    # A base that is not a string died with an AttributeError traceback.
    {"instance": "braid", "level": 2, "k": 1, "base": 5, "faces": {"0": "1", "2": "1"}},
    {"instance": "braid", "level": 2, "k": 1, "base": None, "faces": {"0": "1", "2": "1"}},
    {"instance": "braid", "level": 2, "k": 1, "base": [0, 1, 2],
     "faces": {"0": "1", "2": "1"}},
    # Each of these was lifted: int() took the sign, and \d the Arabic-Indic digit.
    {"instance": "braid", "level": 1, "k": 1, "base": "[+1,0]", "faces": {"0": "1"}},
    {"instance": "braid", "level": 2, "k": 1, "base": "[0,2,1]",
     "faces": {"0": "s\u0661", "2": "1"}},
])
def test_kan_lift_rejects_malformed_faces(tmp_path, capsys, horn):
    path = tmp_path / "horn.json"
    path.write_text(json.dumps(horn))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "kan-lift", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("malformed horn:")
    # The face set is checked against the level without enumerating it.
    assert peak < 1_000_000


def _trivial_horn_file(tmp_path, level):
    path = tmp_path / f"horn{level}.json"
    path.write_text(json.dumps({
        "instance": "braid", "level": level, "k": 0,
        "base": perms.format_perm(tuple(range(level + 1))),
        "faces": {str(r): "1" for r in range(1, level + 1)}}))
    return str(path)


def test_kan_lift_level_above_the_limit(monkeypatch, tmp_path, capsys):
    """A horn level above cli.MAX_LEVEL, the one level bound of eval,
    nerve and kan-lift, is refused before the base and faces are read,
    so before the horn is validated or lifted."""
    monkeypatch.setattr(kan, "lift_horn", _must_not_run)
    monkeypatch.setattr(kan, "validate_horn", _must_not_run)
    start = time.perf_counter()
    result = run(capsys, "kan-lift", _trivial_horn_file(tmp_path, cli.MAX_LEVEL + 1))
    assert time.perf_counter() - start < 5
    assert result == (2, "", "malformed horn: level is above the limit 1000\n")


def test_kan_lift_refuses_a_level_above_the_limit_before_reading_literals(
        monkeypatch, tmp_path, capsys):
    """The level bound comes before the base and the faces: with the
    expression reader patched to fail, a level-1001 horn whose base and
    faces are not literals is still refused for its level."""
    monkeypatch.setattr(cli, "_ExprParser", _must_not_run)
    path = tmp_path / "horn.json"
    path.write_text(json.dumps({"instance": "braid", "level": cli.MAX_LEVEL + 1, "k": 0,
                                "base": "not a permutation", "faces": {"1": "s1 ^ s2"}}))
    assert run(capsys, "kan-lift", str(path)) == (
        2, "", "malformed horn: level is above the limit 1000\n")


# A level-3 horn cut from the filler s1 s2 s3; face 3 read as s2 s1
# makes it incompatible.
_S1S2_HORN = {"instance": "braid", "level": 3, "k": 1, "base": "[1,2,3,0]",
              "faces": {"0": "1", "2": "s1 s2", "3": "s1 s2"}}


@pytest.mark.parametrize("key, juxtaposed, spaced, code", [
    ("2", "s1s2", "s1 s2", 0), ("0", "s1s1^-1", "s1 s1^-1", 0),
    ("3", "s2^-1s1s1^-1s2s1s2", "s2^-1 s1 s1^-1 s2 s1 s2", 0), ("3", "s2s1", "s2 s1", 1)])
def test_a_face_of_juxtaposed_letters_reads_as_spaced_letters(
        tmp_path, capsys, key, juxtaposed, spaced, code):
    """A face is an eval literal without its @level, so letters written
    together read as they do in eval: the horn gives the stdout, stderr
    and exit code it gives with the letters apart."""
    results = []
    for text in (juxtaposed, spaced):
        path = tmp_path / "horn.json"
        path.write_text(json.dumps(dict(_S1S2_HORN, faces={**_S1S2_HORN["faces"], key: text})))
        results.append(run(capsys, "kan-lift", str(path)))
    assert results[0] == results[1] and results[0][0] == code
    assert run(capsys, "eval", f"{juxtaposed}@2") == run(capsys, "eval", f"{spaced}@2")


@pytest.mark.parametrize("text", ["", "  ", "1", " 1\t"])
def test_an_empty_face_is_the_empty_word(tmp_path, capsys, text):
    for level in range(4):
        assert face(core.BRAID, text, level) == core.BRAID.one(level)
    trivial = {"instance": "braid", "level": 2, "k": 0, "base": "[0,1,2]"}
    path = tmp_path / "horn.json"
    path.write_text(json.dumps(dict(trivial, faces={"1": text, "2": text})))
    empty = run(capsys, "kan-lift", str(path))
    path.write_text(json.dumps(dict(trivial, faces={"1": "1", "2": "1"})))
    assert empty == run(capsys, "kan-lift", str(path)) and empty[0] == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from([core.BRAID, core.SYMMETRIC]), st.integers(0, 6),
       st.randoms(use_true_random=False))
def test_a_formatted_element_reads_back_as_a_face(inst, level, rng):
    """inst.format(g) without its @level, read as a kan-lift face, is g."""
    g = inst.random_element(rng, level, 12)
    assert face(inst, inst.format(g).partition("@")[0], level) == g


def test_the_readme_horn_lifts(tmp_path, capsys):
    """The kan-lift example of the README lifts: the lift, then its
    projection and its two faces, each ok."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    path = tmp_path / "horn.json"
    path.write_text(re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1))
    code, out, err = run(capsys, "kan-lift", str(path))
    assert (code, err) == (0, "") and len(out.splitlines()) == 4
    assert out.startswith("lift: s2 @ 2  perm=[0,2,1]")


def test_overlong_generator_number_is_out_of_range(tmp_path, capsys):
    """A generator number longer than int()'s 4300-digit limit is out of
    range, in an eval word and in a horn face alike."""
    token = "s" + "9" * 5000
    code, out, err = run(capsys, "eval", f"{token}@2")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "out of range at level 2" in err and "4300" not in err
    path = tmp_path / "horn.json"
    path.write_text(json.dumps({"instance": "braid", "level": 2, "k": 1, "base": "[0,1,2]",
                                "faces": {"0": token, "2": "1"}}))
    code, out, err = run(capsys, "kan-lift", str(path))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("malformed horn:") and "out of range at level 1" in err


def test_injected_fault_fails_crossed(monkeypatch, capsys):
    """A degeneracy at the wrong index breaks only s_ identities; the
    report counts every violation and keeps the first 50, sorted."""
    right = perms.degeneracy_perm

    def shifted(i, p):
        return right((i + 1) % len(p), p)

    expected = 0
    for n in range(4):
        for g, h in itertools.product(perms.all_perms(n), repeat=2):
            for i in range(n + 1):
                a = perms.inverse(g)[i]
                expected += shifted(i, perms.compose(g, h)) != perms.compose(
                    shifted(i, g), shifted(a, h))
    monkeypatch.setattr(perms, "degeneracy_perm", shifted)
    report = suites.run_suite("crossed", "symm", max_level=3)
    assert report.outcome == "fail"
    assert report.failures == expected > suites.MAX_RECORDED
    ces = report.counterexamples
    assert len(ces) == suites.MAX_RECORDED
    assert ces == sorted(ces, key=lambda ce: (ce["identity"], ce["inputs"]))
    assert all(ce["identity"].startswith("s_") for ce in ces)
    code, out, _ = run(capsys, "check", "crossed", "--instance", "symm",
                       "--max-level", "3")
    assert code == 1 and out.startswith("suite crossed [symm] fail")


# The index shift of test_injected_fault_fails_crossed, put into the
# kernel that each suite's symmetric path calls: partial composition
# substitutes blocks, and the arrow degeneracy doubles a point.  The
# block index stops at the last point instead of wrapping: wrapped, the
# shift relabels the two slots of level 1 consistently, and the laws
# hold.  The other kernels whose rows the arrow and element reads follow
# get a fault of their own: the face index shifts, compose takes its
# operands in turn (mul, target, n_action), and the identity rotates its
# points (one, identity_arrow).  Each fault is source, for this process
# and a fresh interpreter: kernel -> (suite, max_level, failures, fault).
SHIFTED_FAULTS = {
    "block_substitute": ("operadic-mult", 1, 144,
                         "lambda p, i, q: right(p, min(i + 1, len(p) - 1), q)"),
    "degeneracy_perm": ("groupoid-simplicial", 2, 1020,
                        "lambda i, p: right((i + 1) % len(p), p)"),
    "face_perm": ("groupoid-simplicial", 2, 606, "lambda i, p: right((i + 1) % len(p), p)"),
    "compose": ("groupoid-simplicial", 2, 1390, "lambda g, h: right(h, g)"),
    "identity": ("groupoid-simplicial", 2, 36, "lambda n: right(n)[1:] + right(n)[:1]"),
}
SHIFTED_FAULT = """
import sys
sys.path.insert(0, {src!r})
from csgroups import perms, suites
right = perms.{kernel}
perms.{kernel} = {fault}
print(suites.run_suite({suite!r}, "symm", max_level={level}).to_json())
"""


@pytest.mark.parametrize("kernel", SHIFTED_FAULTS,
                         ids=lambda kernel: "-".join(map(str, SHIFTED_FAULTS[kernel][:3])))
def test_fault_after_warm_up_matches_a_fresh_run(monkeypatch, kernel):
    """Rows filled before a kernel is replaced never answer for the
    replacement: a warm run with the fault reports what a fresh
    interpreter with the same fault reports."""
    suites.run_suite("operadic-mult", "symm", max_level=1)
    suites.run_suite("groupoid-simplicial", "symm", max_level=2)
    suite, level, failures, fault = SHIFTED_FAULTS[kernel]
    monkeypatch.setattr(perms, kernel, eval(fault, {"right": getattr(perms, kernel)}))
    warm = suites.run_suite(suite, "symm", max_level=level)
    src = str(pathlib.Path(suites.__file__).parents[1])
    fresh = subprocess.run(
        [sys.executable, "-c", SHIFTED_FAULT.format(src=src, kernel=kernel, fault=fault,
                                                    suite=suite, level=level)],
        capture_output=True, text=True, check=True, timeout=120).stdout
    assert warm.to_json() + "\n" == fresh
    assert warm.failures == failures > 0
    if kernel == "block_substitute":
        assert "(y.x) o_i (w.v) == (y o_i w).(x o_i v)" in {
            ce["identity"] for ce in warm.counterexamples}


def _circ_gpd_padding_at_slot(inst, a, i, b):
    """circ_gpd with the inner part padded into slot i instead of
    j = a.source^-1(i)."""
    n = a.level
    src = perms.block_substitute(a.source, i, b.source)
    k = inst.underlying_perm(a.f)[a.source.index(i)]
    part = inst.mul(inst.degeneracy_power(k, b.level, a.f), inst.pad(b.f, i, n - i))
    return GroupoidArrow(src, part)


def _face_arrow_at_source_index(inst, i, a):
    """face_arrow taking the group part's face at a.source^-1(i) instead
    of at tau^-1(i)."""
    return GroupoidArrow(perms.face_perm(i, a.source),
                         inst.face(a.source.index(i), a.f))


# A broken target law makes the arrows a functoriality identity
# composes non-composable; that is a failing report (exit 1), not an
# error.
CIRC_FAULT = (operad, "circ_gpd", _circ_gpd_padding_at_slot, "operadic-mult",
              "(y.x) o_i (w.v) == (y o_i w).(x o_i v)")
FACE_FAULT = (groupoid, "face_arrow", _face_arrow_at_source_index,
              "groupoid-simplicial", "d_0 is a functor")


@pytest.mark.parametrize("module, name, fault, suite, identity, scope", [
    (*CIRC_FAULT, ["--instance", "symm", "--max-level", "1"]),
    (*CIRC_FAULT, ["--instance", "braid", "--trials", "20"]),
    (*FACE_FAULT, ["--instance", "symm", "--max-level", "2"]),
    (*FACE_FAULT, ["--instance", "braid", "--trials", "20"]),
], ids=["circ-symm", "circ-braid", "face-symm", "face-braid"])
def test_injected_target_fault_fails(monkeypatch, capsys, module, name, fault,
                                     suite, identity, scope):
    monkeypatch.setattr(module, name, fault)
    code, out, err = run(capsys, "check", suite, *scope, "--format", "json")
    report = json.loads(out)
    assert code == 1 and err == ""
    assert report["outcome"] == "fail"
    assert identity in {ce["identity"] for ce in report["counterexamples"]}


@pytest.mark.parametrize("expression", [
    "mul_" + "9" * 5000 + "([1,0])",
    "d_" + "9" * 5000 + "([1,0],[0,1])",
    "d_" + "0" * 5000 + "5([1,0])",
    "a" * 5000 + "([1,0])",
    "s" + "9" * 5000 + "@2",
    "mul([1,0] " + "9" * 5000 + ")",
    "[1,0] " + "x" * 5000,
    "inv(" + "b" * 5000 + ")",
], ids=["unknown-operator", "argument-count", "index-zeros", "name", "generator",
        "found-token", "trailing", "expression"])
def test_eval_error_lines_are_short(capsys, expression):
    """An error echoes at most perms.MAX_ECHO characters of a name or
    token; the first two printed lines of over 5,000 characters."""
    code, out, err = run(capsys, "eval", expression)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert len(err) <= 200


@pytest.mark.parametrize("flag, limit", [
    ("--count", cli.MAX_COUNT),
    ("--dimension", cli.MAX_DIMENSION),
    ("--word-len", suites.MAX_WORD_LEN),
])
def test_nerve_sizes_above_the_limit(monkeypatch, capsys, flag, limit):
    """Refused before any simplex is drawn; the clock is a loose backstop."""
    for name in ("random_simplex", "skeleton_to_json", "skeleton_to_dot"):
        monkeypatch.setattr(groupoid, name, _must_not_run)
    start = time.perf_counter()
    result = run(capsys, "nerve", "--instance", "braid", flag, "100000000")
    assert time.perf_counter() - start < 5
    assert result == (2, "", f"{flag} must be at most {limit}\n")


_WORD = " ".join(["s1", "s2"] * 1500)


@pytest.mark.parametrize("expression, level", [
    (f"circ_0({_WORD}@999, 1@999)", 1998),
    (f"boxplus({_WORD}@999, {_WORD}@999)", 1999),
], ids=["circ", "boxplus"])
def test_eval_result_above_the_limit(monkeypatch, capsys, expression, level):
    """Refused from the operand levels before the operation runs; the
    circ_0 input ran for 214 s and reached 303 MB before its refusal.
    The clock is a loose backstop."""
    monkeypatch.setattr(operad, "circ_set", _must_not_run)
    monkeypatch.setattr(core.BraidCsg, "boxplus", _must_not_run)
    start = time.perf_counter()
    result = run(capsys, "eval", expression)
    assert time.perf_counter() - start < 5
    name = expression.partition("(")[0]
    assert result == (2, "", f"parse error at position 0: {name}: level {level} "
                             f"is above the limit {cli.MAX_LEVEL}\n")


@pytest.mark.parametrize("inst", [core.SYMMETRIC, core.BRAID], ids=["symm", "braid"])
def test_eval_result_levels_are_the_operations_levels(inst):
    """The level eval refuses an operation by is the level the operation
    returns."""
    rng = random.Random(0)
    for name, (arity, level, operation) in cli._OPERATORS.items():
        levels = (3, 3) if name == "mul" else (3, 2)[:arity]
        operands = [inst.random_element(rng, n, 4) for n in levels]
        value = operation(inst, 1, *operands)
        assert value.level == level(*(g.level for g in operands)), name


def test_check_word_len_above_the_limit(monkeypatch, capsys):
    """Refused before the suite body starts its tally."""
    monkeypatch.setattr(core, "Tally", _must_not_run)
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "crossed", "--instance", "braid",
                         "--word-len", "100000000", "--trials", "1")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert f"word_len must be at most {suites.MAX_WORD_LEN}" in err


def test_kan_lift_lifts_a_trivial_horn_at_the_limit(tmp_path, capsys):
    """A compatible horn is not compared in pairs: the lift checks the n
    faces of its product, so a trivial braid horn at cli.MAX_LEVEL lifts
    at a cost linear in the level."""
    code, out, _ = run(capsys, "kan-lift", _trivial_horn_file(tmp_path, cli.MAX_LEVEL))
    assert code == 0 and "FAIL" not in out and "identity=true" in out


@pytest.mark.parametrize("horn, name", [
    ({"instance": "x" * 5000, "level": 1, "k": 0, "base": "[0,1]", "faces": {"1": "1"}},
     "horn.json"),
    ({"instance": "braid", "level": 1, "k": 0, "base": "[" + "x" * 5000 + "]",
      "faces": {"1": "1"}}, "horn.json"),
    ({"instance": "braid", "level": 1, "k": 0, "base": "[0,1]", "faces": {"1": "x" * 5000}},
     "horn.json"),
    ({"instance": "symm", "level": 1, "k": 0, "base": "[0,1]",
      "faces": {"1": "[" + ",".join(map(str, range(2000))) + "]"}}, "horn.json"),
    # Each of these echoed the whole key or path, or printed int()'s
    # advice on its 4300-digit limit.
    ({"instance": "braid", "level": 1, "k": 0, "base": "[0,1]", "faces": {"x" * 5000: "1"}},
     "horn.json"),
    ({"instance": "braid", "level": 1, "k": 0, "base": "[0,1]", "faces": {"9" * 5001: "1"}},
     "horn.json"),
    ({"instance": "braid", "level": 1, "k": 0, "base": "[0,1]", "faces": {"9" * 5001: 5}},
     "horn.json"),
    (None, "x" * 3000),
], ids=["instance", "base", "braid-face", "symm-face", "face-key", "face-key-digits",
        "face-type", "path"])
def test_kan_lift_error_lines_are_short(tmp_path, capsys, horn, name):
    path = tmp_path / name
    if horn is not None:
        path.write_text(json.dumps(horn))
    code, out, err = run(capsys, "kan-lift", str(path))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert len(err) <= 200 and "int_max_str_digits" not in err


@pytest.mark.parametrize("expression", ["-x", "-1", "--x", "-[1,0]", "-h1"])
def test_eval_reads_a_dash_leading_expression(capsys, expression):
    """An expression that starts with '-' is the expression, not an
    option: it gets the one-line parse error it gets after '--'."""
    expected = run(capsys, "eval", "--", expression)
    assert expected[0] == 2 and expected[1] == "" and len(expected[2].splitlines()) == 1
    assert run(capsys, "eval", expression) == expected


def test_kan_lift_reads_a_dash_leading_path(tmp_path, monkeypatch, capsys):
    from csgroups import SYMMETRIC

    horn = kan.horn_from_filler(SYMMETRIC, SYMMETRIC.element((2, 0, 1)), 1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-horn.json").write_text(json.dumps({
        "instance": "symm", "level": horn.n, "k": horn.k,
        "base": perms.format_perm(horn.base),
        "faces": {str(r): SYMMETRIC.format(y) for r, y in horn.face_items()}}))
    code, out, err = run(capsys, "kan-lift", "-horn.json")
    assert code == 0 and err == "" and "projection == base: ok" in out
    code, out, err = run(capsys, "kan-lift", "-missing.json")
    assert (code, out) == (2, "") and err == (
        "cannot read horn file: [Errno 2] No such file or directory: '-missing.json'\n")


@pytest.mark.parametrize("command", ["eval", "kan-lift"])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_flags_still_print_help(capsys, command, flag):
    with pytest.raises(SystemExit) as exited:
        cli.main([command, flag])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: csgroups {command} [-h]")


def _builds_no_parser():
    raise AssertionError("a one-argument eval or kan-lift line built a parser")


def _same_as_after_dashes(command, argument):
    """main([command, argument]) builds no parser and gives the exit
    code, stdout and stderr of main([command, "--", argument]), which
    goes through argparse."""
    expected = run_cli(command, "--", argument)
    with mock.patch.object(cli, "_parser", None), \
            mock.patch.object(cli, "build_parser", _builds_no_parser):
        assert run_cli(command, argument) == expected
    return expected


@pytest.mark.parametrize("command, argument, code", [
    ("eval", "-x", 2), ("eval", "--he", 2), ("eval", "-", 2), ("eval", "", 2),
    ("eval", "[1,0", 2), ("eval", " [1,0 ", 2), ("eval", "mul(s1 s2^-1 s1@2, inv(s2 s1@2))", 0),
    ("eval", "circ_0([1,0],[1,0])", 0), ("kan-lift", "missing.json", 2),
    ("kan-lift", "-horn.json", 0)])
def test_one_argument_lines_skip_the_parser(tmp_path, monkeypatch, command, argument, code):
    monkeypatch.chdir(tmp_path)
    pathlib.Path(_trivial_horn_file(tmp_path, 2)).rename(tmp_path / "-horn.json")
    assert _same_as_after_dashes(command, argument)[0] == code


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from(["", "-", "--"]), _expression | _soup)
def test_one_argument_eval_matches_argparse(dashes, expression):
    assume(dashes + expression not in ("-h", "--help", "--"))
    _same_as_after_dashes("eval", dashes + expression)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_horns())
def test_one_argument_kan_lift_matches_argparse(tmp_path_factory, horn):
    path = tmp_path_factory.getbasetemp() / "differential-horn.json"
    path.write_text(json.dumps(horn))
    _same_as_after_dashes("kan-lift", str(path))


@pytest.mark.parametrize("argv, code, out, err", [
    (["eval", "circ_0([1,0],[1,0])"], 0, "[2,1,0]\n", ""),
    (["eval", "[1,0"], 2, "",
     "parse error at position 4: expected ']', found the end of the input\n"),
    (["check", "crossed", "--max-level", "1"], 0, None, "")], ids=["eval", "eval-error", "check"])
def test_main_reads_the_process_command_line(argv, code, out, err):
    """main() with no argv reads sys.argv, as the installed script does."""
    src = pathlib.Path(cli.__file__).parents[1]
    done = subprocess.run([sys.executable, "-m", "csgroups.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(src)}, cwd=src.parent,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (code, err)
    assert done.stdout == out if out is not None else done.stdout.startswith(
        "suite crossed [symm] pass")


def _tokenize_per_position(text):
    """The per-position loop the single scan replaced, as the reference
    for tokens, positions and error messages."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = cli._TOKEN.match(text, pos)
        if m is None or m.lastgroup == "bad":
            raise cli.ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except cli.ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("text, expected", [
    ("s1\ns2@2", [("braid", "s1\ns2", 0), ("punct", "@", 5), ("int", "2", 6),
                  ("end", "", 7)]),
    ("[1,\t0]", [("punct", "[", 0), ("int", "1", 1), ("punct", ",", 2),
                 ("int", "0", 4), ("punct", "]", 5), ("end", "", 6)]),
    ("s\u0661@1", "at position 1: unexpected character '\u0661'"),
    ("mul(x\x00)", "at position 5: unexpected character '\\x00'"),
    ("[0]s1s2^-1 x", [("punct", "[", 0), ("int", "0", 1), ("punct", "]", 2),
                      ("braid", "s1s2^-1", 3), ("name", "x", 11), ("end", "", 12)])])
def test_tokenize_pins_tokens_and_positions(text, expected):
    assert _tokens_or_error(cli._tokenize, text) == expected
    assert _tokens_or_error(_tokenize_per_position, text) == expected


# A run of braid letters is one token; an error that finds one names its
# first letter, as when each letter was a token of its own.
@pytest.mark.parametrize("expression, err", [
    ("[s1 s2]", "parse error at position 1: expected int, found 's1'\n"),
    ("mul(s1@2 s2 s1, 1@2)", "parse error at position 9: expected ')', found 's2'\n"),
    ("mul s1 s2", "parse error at position 4: expected '(', found 's1'\n"),
    ("s1 s2@s3 s4", "parse error at position 6: expected int, found 's3'\n"),
    ("[0]s1s2", "parse error at position 3: trailing input 's1'\n"),
    ("1@2 s2^-1 s1", "parse error at position 4: trailing input 's2^-1'\n")])
def test_an_error_names_the_first_letter_of_a_run(capsys, expression, err):
    assert run(capsys, "eval", expression) == (2, "", err)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_soup | st.text(max_size=12))
def test_tokenize_matches_the_per_position_loop(text):
    assert _tokens_or_error(cli._tokenize, text) == _tokens_or_error(_tokenize_per_position, text)

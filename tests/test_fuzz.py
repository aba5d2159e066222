"""Fuzzing the command line in-process: whatever `eval` expression or
horn file it is given, the exit code is 0, 1 or 2, stderr holds at most
one line of at most 200 characters, and nothing escapes as a traceback.
The example budgets are fixed and the search is derandomized, so each
run tries the same inputs."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from csgroups import BRAID, SYMMETRIC, cli, kan, perms


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, err):
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1 and len(err) <= 200
    assert (code == 0) == (err == "")


# eval: well-formed expressions from the grammar, and soups of its tokens
# with overlong numbers and names and stray characters.
_OVERLONG = ["9" * 5000, "0" * 4999 + "1", "a" * 5000, "mul_" + "9" * 5000,
             "d_" + "0" * 5000 + "1", "s" + "9" * 5000, "[" * 200, "inv(" * 150]
_LETTERS = [f"s{i}{power}" for i in range(1, 6) for power in ("", "^-1")]
_OPERATORS = ["mul", "boxplus", "inv", "sL", "sR", "d_0", "d_2", "d_5", "s_0", "s_3",
              "circ_0", "circ_1", "circ_3", "d", "foo"]
_TOKENS = ["[", "]", "(", ")", ",", "@", " ", "0", "1", "2", "12", "-", "_", "^-1",
           "s0", "١"] + _LETTERS + _OPERATORS + _OVERLONG

_word = st.lists(st.sampled_from(_LETTERS), max_size=6).map(" ".join)
_perm = (st.integers(0, 4).flatmap(lambda n: st.permutations(range(n + 1)))
         .map(lambda p: "[" + ",".join(map(str, p)) + "]"))
_braid = st.tuples(_word, st.integers(0, 4)).map(lambda t: f"{t[0] or '1'}@{t[1]}")


def _call(operands):
    return (st.tuples(st.sampled_from(_OPERATORS), st.lists(operands, min_size=1, max_size=3))
            .map(lambda t: f"{t[0]}({', '.join(t[1])})"))


_expression = st.recursive(_perm | _braid, _call, max_leaves=6)
_soup = st.lists(st.sampled_from(_TOKENS) | st.text(max_size=2), max_size=12).map("".join)


@settings(derandomize=True, database=None, deadline=None, max_examples=800)
@given(_expression | _soup)
def test_eval_fuzz(expression):
    code, out, err = run_cli("eval", "--", expression)
    check_outcome(code, err)
    assert code != 1 and (code == 0) == (out != "")


# kan-lift: horns lifted from random fillers at small levels, each with
# at most one field, face key or face value replaced, and files that are
# not horn objects at all.  Levels stay small, or are large enough that
# the face count refuses the horn before any work, so every lift takes
# milliseconds.
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(),
    st.sampled_from([701, 1001, 3_000_000, 10 ** 30] + _OVERLONG),
    st.text(max_size=4), st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
    _perm, _word)
_key = st.sampled_from([str(r) for r in range(-1, 6)] + [
    "02", "+1", " 1", "1.0", "١", "9" * 40, "9" * 5001, "x" * 5000]) | st.text(max_size=2)


def _face_text(inst, y):
    return inst.format(y).partition("@")[0]


@st.composite
def _horns(draw):
    inst = draw(st.sampled_from([BRAID, SYMMETRIC]))
    n = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    horn = kan.horn_from_filler(inst, inst.random_element(rng, n, 6), draw(st.integers(0, n)))
    faces = {str(r): _face_text(inst, y) for r, y in horn.face_items()}
    data = {"instance": inst.name, "level": n, "k": horn.k,
            "base": perms.format_perm(horn.base), "faces": faces}
    where = draw(st.sampled_from(["none", "instance", "level", "k", "base", "faces",
                                  "drop", "key", "face", "other-face", "file"]))
    if where == "file":
        return draw(_junk)
    if where in data:
        data[where] = draw(_junk | st.sampled_from(["braid", "symm"]))
    elif where == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    elif where == "key":
        faces[draw(_key)] = faces.pop(draw(st.sampled_from(sorted(faces))))
    elif where == "face":
        faces[draw(st.sampled_from(sorted(faces)))] = draw(_junk)
    elif where == "other-face":
        # A face of the right level that the others rarely agree with.
        faces[draw(st.sampled_from(sorted(faces)))] = _face_text(
            inst, inst.random_element(rng, n - 1, 4))
    return data


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_horns())
def test_kan_lift_fuzz(tmp_path_factory, horn):
    path = tmp_path_factory.getbasetemp() / "fuzz-horn.json"
    path.write_text(json.dumps(horn))
    code, _, err = run_cli("kan-lift", str(path))
    check_outcome(code, err)

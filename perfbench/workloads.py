"""
The three workloads: their inputs, the timed library calls and the
checks on every result.

An operation is one suite run (`symm-exhaustive`, `braid-sampled`) or
one request (`horn-requests`).  Each operation returns an `Outcome`
with its latency (only the library call is timed, on `speed.clock`)
and whether its result passed the checks.  Inputs come from the
workload seed alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import re
from pathlib import Path

import speed
from csgroups import BRAID, braids, cli, kan, perms, suites

GOLDEN_FILE = Path(__file__).with_name("golden.json")
# The seed the acceptance gate uses; suite reports at this seed must
# match the committed digests.
ACCEPTANCE_SEED = 0

# (suite, keyword arguments) at the acceptance scopes of
# tests/test_acceptance.py.
SYMM_SUITES = (
    ("crossed", {"max_level": 3}),
    ("simplicial", {"max_level": 3}),
    ("extra-degeneracy", {"max_level": 3}),
    ("monoidal", {"max_level": 2}),
    ("operadic", {"max_level": 2}),
    ("shifted-operad", {"max_level": 2}),
    ("unshifted-operad", {"max_level": 2}),
    ("operadic-mult", {"max_level": 2}),
    ("equivariance", {"max_level": 2}),
    ("inverse-transport", {"max_level": 4}),
    ("groupoid-simplicial", {"max_level": 3}),
    ("quotient", {"trials": 200}),
)
BRAID_SUITES = (
    ("crossed", {"trials": 1000, "max_level": 5, "word_len": 12}),
    ("simplicial", {"trials": 1000, "max_level": 5, "word_len": 12}),
    ("extra-degeneracy", {"trials": 1000, "max_level": 5, "word_len": 12}),
    ("monoidal", {"trials": 500}),
    ("operadic", {"trials": 500}),
    ("groupoid-simplicial", {"trials": 300}),
    ("shifted-operad", {"trials": 300}),
    ("unshifted-operad", {"trials": 300}),
    ("operadic-mult", {"trials": 300}),
    ("equivariance", {"trials": 200}),
    ("section", {"trials": 200}),
    ("quotient", {"trials": 200}),
    ("bar", {"trials": 200}),
)

# Horn requests: filler word lengths of the lifted horns by level,
# strand counts and total letters of the evaluated braid products, and
# levels of the symmetric circ_i operands.  Every generated word stays
# within these lengths, because the free-group images behind braid
# equality grow exponentially with the length of the lifted word.
# Lifts of 8-letter level-5 fillers took up to 11 s, and 12-letter ones
# ran out of a 1.5 GB address space, so level 5 is left out and level 4
# stays short; see perfbench/README.md.
LIFT_WORD_LEN = {2: (4, 12), 3: (4, 12), 4: (4, 6)}
EVAL_STRANDS = (3, 6)
EVAL_MAX_LETTERS = 16
EVAL_SYMM_SHARE = 0.15
EVAL_SYMM_LEVELS = (0, 3)


@dataclasses.dataclass
class Outcome:
    latency_s: float
    ok: bool
    # Cases and counterexamples of a suite report; 0 for requests.
    cases: int = 0
    counterexamples: int = 0
    # What the traced and untraced runs must reproduce exactly.
    output: str = ""


# Suite workloads.

@dataclasses.dataclass(frozen=True)
class SuiteOp:
    suite: str
    instance: str
    kwargs: dict

    def run(self, seed: int, golden: dict | None) -> Outcome:
        """Golden digests are compared when `golden` is given."""
        t0 = speed.clock()
        try:
            report = suites.run_suite(self.suite, instance=self.instance,
                                      seed=seed, **self.kwargs)
        except Exception as exc:  # a raising operation is a failed one
            return Outcome(speed.clock() - t0, False, 0, 0, repr(exc))
        latency = speed.clock() - t0
        text = report.to_json()
        ok = report.outcome == "pass"
        if golden is not None:
            ok = ok and golden[self.instance][self.suite] == digest(text)
        return Outcome(latency, ok, report.cases, report.failures, text)


def suite_ops(instance: str) -> list[SuiteOp]:
    table = SYMM_SUITES if instance == "symm" else BRAID_SUITES
    return [SuiteOp(name, instance, kw) for name, kw in table]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text())


def pass_seeds(seed: int):
    """Suite seed of each pass.  The first pass runs at the acceptance
    seed, so every run checks the golden digests; later passes draw
    their seeds from the workload seed, so they sample new braid words
    instead of repeating the first pass."""
    yield ACCEPTANCE_SEED
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


# Horn requests.

@dataclasses.dataclass(frozen=True)
class LiftRequest:
    horn: kan.Horn

    def run(self) -> Outcome:
        t0 = speed.clock()
        try:
            lift = kan.lift_horn(BRAID, self.horn)
        except (kan.IncompatibleHorn, kan.FillError) as exc:
            return Outcome(speed.clock() - t0, False, output=repr(exc))
        latency = speed.clock() - t0
        word = lift.payload
        ok = word_perm(word.letters, word.strands) == self.horn.base
        for r, y in self.horn.face_items():
            face = BRAID.face(r, lift)
            ok = (ok and BRAID.equal(face, y)
                  and braids.artin_act(face.payload) == braids.artin_act(y.payload))
        return Outcome(latency, ok, output=repr(word.letters))


@dataclasses.dataclass(frozen=True)
class BraidEvalRequest:
    expression: str
    strands: int
    letters: tuple  # the product's letters, computed from the operands

    def run(self) -> Outcome:
        latency, code, text = run_cli_eval(self.expression)
        m = _BRAID_LINE.fullmatch(text.strip())
        if code != 0 or m is None:
            return Outcome(latency, False, output=text)
        identity = tuple((i + 1,) for i in range(self.strands))
        expected_id = braids.artin_act(braids.BraidWord(self.strands, self.letters)) == identity
        ok = (m["word"] == letters_text(self.letters)
              and int(m["level"]) == self.strands - 1
              and parse_ints(m["perm"]) == word_perm(self.letters, self.strands)
              and (m["identity"] == "true") == expected_id)
        return Outcome(latency, ok, output=text)


@dataclasses.dataclass(frozen=True)
class SymmEvalRequest:
    expression: str
    expected: tuple

    def run(self) -> Outcome:
        latency, code, text = run_cli_eval(self.expression)
        ok = code == 0 and parse_ints(text.strip()) == self.expected
        return Outcome(latency, ok, output=text)


_BRAID_LINE = re.compile(r"(?P<word>.+) @ (?P<level>\d+)  perm=(?P<perm>\[[\d,]*\])"
                         r"  artin=\w+  identity=(?P<identity>true|false)")


def run_cli_eval(expression: str) -> tuple[float, int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = speed.clock()
        code = cli.main(["eval", expression])
        latency = speed.clock() - t0
    return latency, code, out.getvalue()


def horn_requests(seed: int):
    """Endless seeded stream: half horn lifts, half `eval` calls."""
    rng = random.Random(seed)
    while True:
        if rng.random() < 0.5:
            yield _lift_request(rng)
        elif rng.random() < EVAL_SYMM_SHARE:
            yield _symm_eval_request(rng)
        else:
            yield _braid_eval_request(rng)


def _random_letters(rng, level, length):
    return tuple((rng.randrange(level), rng.choice((1, -1))) for _ in range(length))


def _lift_request(rng) -> LiftRequest:
    """The horn left by forgetting face k of a random filler; its faces
    are computed here, so the inputs do not depend on the library."""
    n = rng.choice(sorted(LIFT_WORD_LEN))
    letters = _random_letters(rng, n, rng.randint(*LIFT_WORD_LEN[n]))
    k = rng.randint(0, n)
    faces = {r: BRAID.element(braids.BraidWord(n, delete_strand(letters, r)))
             for r in range(n + 1) if r != k}
    return LiftRequest(kan.horn_from_faces(n, k, faces, word_perm(letters, n + 1)))


def _braid_eval_request(rng) -> BraidEvalRequest:
    strands = rng.randint(*EVAL_STRANDS)
    level = strands - 1
    a = _random_letters(rng, level, rng.randint(1, EVAL_MAX_LETTERS // 2))
    if rng.random() < 0.2:
        b = a  # mul(a, inv(a)) is the identity
    else:
        b = _random_letters(rng, level, rng.randint(0, EVAL_MAX_LETTERS - len(a)))
    if b is a or rng.random() < 0.5:
        expression = f"mul({letters_text(a)}@{level}, inv({letters_text(b)}@{level}))"
        letters = a + tuple((k, -s) for k, s in reversed(b))
    else:
        expression = f"mul({letters_text(a)}@{level}, {letters_text(b)}@{level})"
        letters = a + b
    return BraidEvalRequest(expression, strands, letters)


def _symm_eval_request(rng) -> SymmEvalRequest:
    n = rng.randint(*EVAL_SYMM_LEVELS)
    m = rng.randint(*EVAL_SYMM_LEVELS)
    p = tuple(rng.sample(range(n + 1), n + 1))
    q = tuple(rng.sample(range(m + 1), m + 1))
    i = rng.randint(0, n)
    expression = f"circ_{i}({perms.format_perm(p)},{perms.format_perm(q)})"
    return SymmEvalRequest(expression, perms.block_substitute(p, i, q))


# Helpers computed here rather than by the library, for the checks.

def letters_text(letters) -> str:
    if not letters:
        return "1"
    return " ".join(f"s{k + 1}" + ("^-1" if s < 0 else "") for k, s in letters)


def word_perm(letters, strands) -> tuple:
    pos = list(range(strands))
    for k, _ in letters:
        pos[k], pos[k + 1] = pos[k + 1], pos[k]
    return tuple(pos)


def delete_strand(letters, i) -> tuple:
    """The letters of the face at i: follow the strand with top position
    i down the word, drop the letters crossing it, and renumber the
    letters to its right."""
    p = i
    out = []
    for k, sign in letters:
        if k == p:
            p = k + 1
        elif k == p - 1:
            p = k
        else:
            out.append((k if k < p else k - 1, sign))
    return tuple(out)


def parse_ints(text: str) -> tuple | None:
    if not (text.startswith("[") and text.endswith("]")):
        return None
    try:
        return tuple(int(v) for v in text[1:-1].split(","))
    except ValueError:
        return None

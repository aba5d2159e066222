"""
Command-line front end.

    csgroups eval "circ_0([1,0],[1,0])"
    csgroups check crossed --instance braid --trials 1000 --seed 7
    csgroups check section            # a suite's first instance by default
    csgroups nerve --instance symm --level 2 --dimension 2 --count 3
    csgroups kan-lift horn.json

Exit codes: 0 on success, 1 when a suite finds a counterexample or a
horn cannot be lifted, 2 on usage or parse errors, among them calls
nested more than MAX_DEPTH deep, an eval or nerve level or index above
MAX_LEVEL, a nerve size above MAX_COUNT, MAX_DIMENSION or
suites.MAX_WORD_LEN, and a horn level above MAX_LEVEL, each caught
before anything that size is built (a horn's before its base and faces
are read).  An error line echoes at most perms.MAX_ECHO characters of
any input.  kan-lift prints the checks kan.lift_horn made, without
making them again.

This module alone turns text into elements, by one grammar: eval reads
an expression with _ExprParser, and read_horn reads a kan-lift file's
base and faces with the same parser, as literals without their @level.
A braid word's run of letters is one token, read into letters by one scan.

main sends eval or kan-lift with one argument to its command, building
no parser; other lines share one argparse parser, built on first use.
main looks cmd_<name> up when called, so a later wrapper sees its calls.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from . import braids, groupoid, kan, operad, perms
from .core import BRAID, INSTANCES, SYMMETRIC, CsgElement, CsgInstance
from .suites import MAX_WORD_LEN, SUITES, run_suite

# Far above any level in use (5 at most); an element's cost grows with
# it.  A compatible kan-lift at this level checks the n faces of its
# product, not the horn's faces in pairs: a trivial horn and three horns
# cut from 12-letter fillers each lifted in 0.06-0.09 s (2-core x86-64,
# Python 3.11.7), where the pairwise check took 1.9-3.1 s.
MAX_LEVEL = 1000
# Far above any nesting in use (2 at most); each nested call takes stack.
MAX_DEPTH = 100
# Far above the nerve defaults (3 simplices of dimension at most 2) and
# every value in use; the output grows with each.
MAX_COUNT = 1000
MAX_DIMENSION = 100


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<braid>s[0-9]+(?:\^-1)?(?:\s*s[0-9]+(?:\^-1)?)*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<name>[A-Za-z]+(?:_[0-9]+)?)"
    r"|(?P<punct>[()\[\],@])"
    r"|(?P<bad>.)", re.DOTALL
)
# One letter of a braid token: the digits lose their leading zeros but the last.
_LETTER = re.compile(r"(s0*([0-9]+)(\^-1)?)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _found(token) -> str:
    """How a parse error names the token it found; a braid run by its first letter."""
    kind, text, _ = token
    if kind == "braid":
        text = _LETTER.match(text).group()
    return "the end of the input" if kind == "end" else repr(perms.clip(text))


class _ExprParser:
    """Permutation literals, braid words with level annotations, and the
    structural operators, as nested calls; literal_at reads one literal
    without its @level, for read_horn.  A run of braid letters is one token."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self, kind, mark=None):
        """The next token, which must be of `kind` and, if a punctuation
        `mark` is given, be that mark."""
        tok = self.tokens[self.idx]
        if tok[0] != kind or mark not in (None, tok[1]):
            expected = kind if mark is None else repr(mark)
            raise ParseError(f"expected {expected}, found {_found(tok)}", tok[2])
        self.idx += 1
        return tok

    def items(self, read, close):
        """One or more items read by `read`, separated by commas, then the
        mark `close`."""
        values = [read()]
        while self.peek()[1] == ",":
            self.take("punct", ",")
            values.append(read())
        self.take("punct", close)
        return values

    def parse(self):
        value = self.expr()
        self.end()
        return value

    def end(self):
        """Refuse any input left after what was read."""
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"trailing input {_found(token)}", token[2])

    def expr(self, depth=0):
        kind, text, pos = self.peek()
        if kind == "punct" and text == "[":
            return SYMMETRIC, SYMMETRIC.element(self.perm_word())
        if kind == "braid" or (kind == "int" and text == "1"):
            return self.braid_literal()
        if kind == "name":
            return self.call(depth + 1)
        raise ParseError(f"expected an expression, found {_found(self.peek())}", pos)

    def number(self, what: str, token=None) -> int:
        """An integer token, the next one by default, of at most
        MAX_LEVEL; a longer digit string is rejected before it is
        converted."""
        _, digits, pos = token or self.take("int")
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_LEVEL)) or int(digits) > MAX_LEVEL:
            raise ParseError(f"{what} is above the limit {MAX_LEVEL}", pos)
        return int(digits)

    def perm_word(self):
        """A permutation literal's entries, checked to be a permutation."""
        _, _, pos = self.take("punct", "[")
        word = tuple(self.items(lambda: self.number("entry"), "]"))
        if not perms.is_perm(word):
            raise ParseError(f"not a permutation of 0..{len(word) - 1}", pos)
        return word

    def braid_literal(self):
        letters, pos = self.braid_letters()
        self.take("punct", "@")
        return BRAID, self.braid_word(letters, pos, self.number("level"))

    def literal_at(self, inst, level):
        """An element literal of `inst` written without its @level: a
        permutation, whose length gives its level, or braid letters at
        `level` (1, or none, for the empty word)."""
        if inst is SYMMETRIC:
            return SYMMETRIC.element(self.perm_word())
        return self.braid_word(*self.braid_letters(), level)

    def braid_letters(self):
        """A braid word's text (its run of letters, the literal 1, or none) and position."""
        kind, text, pos = self.peek()
        if kind == "braid" or (kind, text) == ("int", "1"):
            self.idx += 1
            return text, pos
        return "", pos

    def braid_word(self, letters, pos, level):
        """The element of the run of letters at `level`, each generator
        checked to be in range, or a ParseError at `pos`."""
        width = len(str(level))
        word = []
        for text, digits, inverse in _LETTER.findall(letters):
            # A digit string longer than the level's cannot be in range,
            # and int() refuses one of more than 4300 digits.
            if len(digits) > width or not 1 <= (k := int(digits)) <= level:
                raise ParseError(f"generator {perms.clip(text)!r} out of range "
                                 f"at level {level}", pos)
            word.append((k - 1, -1 if inverse else 1))
        return BRAID.element(braids.BraidWord(level + 1, tuple(word)))

    def call(self, depth):
        _, name, pos = self.take("name")
        if depth > MAX_DEPTH:
            raise ParseError(f"calls nested more than {MAX_DEPTH} deep", pos)
        self.take("punct", "(")
        args = self.items(lambda: self.expr(depth), ")")
        try:
            return self.apply(name, args, pos)
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"{perms.clip(name)}: {exc}", pos) from None

    def apply(self, name, args, pos):
        op, mark, digits = name.partition("_")
        arity, level, operation = _OPERATORS.get(op + mark, (None, None, None))
        if operation is None:
            raise ParseError(f"unknown operator {perms.clip(name)!r}", pos)
        if len(args) != arity:
            count = "one argument" if arity == 1 else "two arguments"
            raise ParseError(f"{perms.clip(name)} takes {count}", pos)
        inst = args[0][0]
        if any(other is not inst for other, _ in args):
            raise ParseError("mixed permutation and braid operands", pos)
        index = self.number("index", ("int", digits, pos)) if mark else None
        # Refused before the operation runs: building a result above the
        # limit costs time and memory that grow with its level.
        result_level = level(*(value.level for _, value in args))
        if result_level > MAX_LEVEL:
            raise ParseError(f"{perms.clip(name)}: level {result_level} is above "
                             f"the limit {MAX_LEVEL}", pos)
        return inst, operation(inst, index, *(value for _, value in args))


# Operator name -> (arity, result level from the operand levels,
# operation(inst, index, *operands)); only a name ending in "_" has an
# index.  An operation looks its method up when called, so it reaches a
# wrapper installed on that method after import.
_OPERATORS = {
    "mul": (2, lambda n, m: n, lambda inst, _, a, b: inst.mul(a, b)),
    "boxplus": (2, lambda n, m: n + m + 1, lambda inst, _, a, b: inst.boxplus(a, b)),
    "inv": (1, lambda n: n, lambda inst, _, a: inst.inv(a)),
    "sL": (1, lambda n: n + 1, lambda inst, _, a: inst.s_left(a)),
    "sR": (1, lambda n: n + 1, lambda inst, _, a: inst.s_right(a)),
    "d_": (1, lambda n: n - 1, lambda inst, i, a: inst.face(i, a)),
    "s_": (1, lambda n: n + 1, lambda inst, i, a: inst.degeneracy(i, a)),
    "circ_": (2, lambda n, m: n + m, lambda inst, i, a, b: operad.circ_set(inst, a, i, b)),
}


def render_element(inst: CsgInstance, g: CsgElement) -> str:
    if inst.name == "symm":
        return perms.format_perm(g.payload)
    word = g.payload
    perm = braids.underlying_perm_word(word)
    value = braids.canonical_value(word)
    _, x, y = value
    return (f"{braids.format_letters(word)} @ {g.level}"
            f"  perm={perms.format_perm(perm)}"
            f"  artin={braids.artin_fingerprint(value)}"
            f"  identity={'true' if not x and not y else 'false'}")


def cmd_eval(args) -> int:
    try:
        inst, value = _ExprParser(args.expression).parse()
    except ParseError as exc:
        print(f"parse error {exc}", file=sys.stderr)
        return 2
    print(render_element(inst, value))
    return 0


def cmd_check(args) -> int:
    try:
        report = run_suite(args.suite, instance=args.instance,
                           max_level=args.max_level, trials=args.trials,
                           seed=args.seed, word_len=args.word_len)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.outcome == "pass" else 1


def cmd_nerve(args) -> int:
    inst = INSTANCES[args.instance]
    limits = {"level": MAX_LEVEL, "dimension": MAX_DIMENSION, "count": MAX_COUNT,
              "word_len": MAX_WORD_LEN}
    for flag in limits:
        if getattr(args, flag) < 0:
            print(f"--{flag.replace('_', '-')} must be at least 0", file=sys.stderr)
            return 2
    for flag, limit in limits.items():
        if getattr(args, flag) > limit:
            print(f"--{flag.replace('_', '-')} must be at most {limit}", file=sys.stderr)
            return 2
    if args.format == "dot":
        try:
            sys.stdout.write(groupoid.skeleton_to_dot(inst, args.level))
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0
    rng = random.Random(args.seed)
    simplices = []
    for _ in range(args.count):
        dim = rng.randint(0, args.dimension)
        simplices.append(groupoid.random_simplex(inst, rng, args.level, dim,
                                                 args.word_len))
    print(groupoid.skeleton_to_json(inst, simplices))
    return 0


def _read(text: str, what: str, read):
    """read(parser) over the whole of `text`; a parse error names `what`."""
    try:
        parser = _ExprParser(text)
        value = read(parser)
        parser.end()
    except ParseError as exc:
        raise ValueError(f"{what} {exc}") from None
    return value


def read_horn(inst: CsgInstance, data: dict) -> kan.Horn:
    """The horn of a kan-lift file's object.  `level` and `k` must be
    JSON integers, and a level above MAX_LEVEL is refused before
    anything else is read.  `base` is a permutation literal, and each
    face, under a key that is the plain decimal text of an index, an
    eval literal without its @level; nothing is coerced.  A bad face set
    is reported before any face is read.  A malformed horn is a
    ValueError (IndexError for k > n or k < 0)."""
    try:
        n, k, base, raw = data["level"], data["k"], data["base"], data["faces"]
        for field, value in (("level", n), ("k", k)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{field} must be an integer, not {type(value).__name__}")
        if not isinstance(base, str):
            raise TypeError(f"base must be a string, not {type(base).__name__}")
        if not isinstance(raw, dict):
            raise TypeError("faces must be an object")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed horn description: {exc}") from None
    if n > MAX_LEVEL:
        raise ValueError(f"level is above the limit {MAX_LEVEL}")
    base = _read(base, "base", _ExprParser.perm_word)
    faces = {}
    for key, text in raw.items():
        if not re.fullmatch(r"0|[1-9][0-9]*", key):
            raise ValueError(f"face key {perms.clip(key)!r} is not an index")
        if not isinstance(text, str):
            raise ValueError(f"face {perms.clip(key)} must be a string, "
                             f"not {type(text).__name__}")
        # A key longer than the level is out of range; int() refuses 4301 digits.
        if len(key) > len(str(n)):
            raise ValueError(f"face key {perms.clip(key)!r} out of range at level {n}")
        # The text stands in for the face until Horn has checked the face set.
        faces[int(key)] = CsgElement(n - 1, text)
    unread = kan.horn_from_faces(n, k, faces, base)
    return kan.Horn(n, k, tuple((r, _read(y.payload, f"face {r}",
                                          lambda p: p.literal_at(inst, n - 1)))
                                for r, y in unread.faces), base)


def cmd_kan_lift(args) -> int:
    try:
        with open(args.horn) as fh:
            data = json.load(fh)
    # Bad JSON, bad UTF-8, an over-long number, or arrays nested too deep.
    except (OSError, ValueError, RecursionError) as exc:
        if isinstance(exc, OSError):  # str(exc) would echo the whole path
            exc.filename = perms.clip(args.horn)
        print(f"cannot read horn file: {exc}", file=sys.stderr)
        return 2
    if not isinstance(data, dict):
        print("malformed horn: expected a JSON object", file=sys.stderr)
        return 2
    name = data.get("instance", "braid")
    if not isinstance(name, str) or name not in INSTANCES:
        print(f"unknown instance {perms.clip(repr(name))}", file=sys.stderr)
        return 2
    inst = INSTANCES[name]
    try:
        horn = read_horn(inst, data)
    except (ValueError, IndexError) as exc:
        print(f"malformed horn: {exc}", file=sys.stderr)
        return 2
    try:
        lift = kan.lift_horn(inst, horn)
    except (kan.IncompatibleHorn, kan.FillError) as exc:
        print(f"lift failed: {exc}", file=sys.stderr)
        return 1
    print(f"lift: {render_element(inst, lift)}")
    print("projection == base: ok")
    for r, _ in horn.faces:
        print(f"face {r} == y_{r}: ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csgroups",
        description="crossed simplicial groups: evaluation, law suites, "
                    "nerve output, horn lifting")
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command looks its cmd_ function up when called, so a wrapper
    # installed on it after the parser was built still sees the calls.

    p_eval = sub.add_parser("eval", help="evaluate an element expression")
    p_eval.add_argument("expression")
    p_eval.set_defaults(func=lambda args: cmd_eval(args))

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.add_argument("--instance", choices=sorted(INSTANCES), default=None,
                         help="default: the first instance the suite runs on")
    p_check.add_argument("--max-level", type=int, default=None)
    p_check.add_argument("--trials", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--word-len", type=int, default=None)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=lambda args: cmd_check(args))

    p_nerve = sub.add_parser("nerve", help="emit nerve simplices (JSON) or a "
                                           "1-skeleton (DOT)")
    p_nerve.add_argument("--instance", choices=sorted(INSTANCES), default="symm")
    p_nerve.add_argument("--level", type=int, default=1)
    p_nerve.add_argument("--dimension", type=int, default=2)
    p_nerve.add_argument("--count", type=int, default=3)
    p_nerve.add_argument("--seed", type=int, default=0)
    p_nerve.add_argument("--word-len", type=int, default=6)
    p_nerve.add_argument("--format", choices=("json", "dot"), default="json")
    p_nerve.set_defaults(func=lambda args: cmd_nerve(args))

    p_kan = sub.add_parser("kan-lift", help="lift a horn described in JSON")
    p_kan.add_argument("horn")
    p_kan.set_defaults(func=lambda args: cmd_kan_lift(args))

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    argv = list(sys.argv[1:] if argv is None else argv)
    # eval and kan-lift read one argument as after '--', with no parser.
    if (len(argv) == 2 and argv[0] in ("eval", "kan-lift")
            and argv[1] not in ("-h", "--help", "--")):
        if argv[0] == "eval":
            return cmd_eval(argparse.Namespace(expression=argv[1]))
        return cmd_kan_lift(argparse.Namespace(horn=argv[1]))
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

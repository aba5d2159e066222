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
suites.MAX_WORD_LEN, and a horn level above MAX_LIFT_LEVEL, each caught
before anything that size is built (a horn's once its faces are read).
An error line echoes at most perms.MAX_ECHO characters of any input.
kan-lift prints the checks kan.lift_horn made, without making them again.

main builds one argparse parser per process, on its first call, and
reuses it; it looks each command's cmd_<name> function up when called,
so a wrapper installed on one after the first call still sees its calls.
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

# Far above any level in use (5 at most); an element's cost grows with it.
MAX_LEVEL = 1000
# Far above any nesting in use (2 at most); each nested call takes stack.
MAX_DEPTH = 100
# Set on trivial horns, whose faces are compared in pairs, so their cost
# grows with the square of the level: a trivial braid horn took 0.8 s at
# level 700 and 1.0-1.1 s at level 800 (2-core x86-64, Python 3.11.7).
# It does not bound a horn with letters, whose lift grows about twofold
# per level: cut from random fillers of at most 12 letters, lifts had
# 117 letters at level 4, 12,279 at level 10 and 524,283 at level 16.
MAX_LIFT_LEVEL = 700
# Far above the nerve defaults (3 simplices of dimension at most 2) and
# every value in use; the output grows with each.
MAX_COUNT = 1000
MAX_DIMENSION = 100


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<braid>s[0-9]+(?:\^-1)?)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<name>[A-Za-z]+(?:_[0-9]+)?)"
    r"|(?P<punct>[()\[\],@])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ExprParser:
    """Permutation literals, braid words with level annotations, and the
    structural operators, as nested calls."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.idx]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {perms.clip(tok[1])!r}", tok[2])
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {perms.clip(tok[1])!r}", tok[2])
        self.idx += 1
        return tok

    def parse(self):
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {perms.clip(text)!r}", pos)
        return value

    def expr(self, depth=0):
        kind, text, pos = self.peek()
        if kind == "punct" and text == "[":
            return self.perm_literal()
        if kind == "braid" or (kind == "int" and text == "1"):
            return self.braid_literal()
        if kind == "name":
            return self.call(depth + 1)
        raise ParseError(f"expected an expression, found {perms.clip(text)!r}", pos)

    def number(self, what: str, token=None) -> int:
        """An integer token, the next one by default, of at most
        MAX_LEVEL; a longer digit string is rejected before it is
        converted."""
        _, digits, pos = token or self.take("int")
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_LEVEL)) or int(digits) > MAX_LEVEL:
            raise ParseError(f"{what} is above the limit {MAX_LEVEL}", pos)
        return int(digits)

    def perm_literal(self):
        _, _, pos = self.take("punct", "[")
        values = [self.number("entry")]
        while self.peek()[1] == ",":
            self.take("punct", ",")
            values.append(self.number("entry"))
        self.take("punct", "]")
        word = tuple(values)
        if not perms.is_perm(word):
            raise ParseError(f"not a permutation of 0..{len(word) - 1}", pos)
        return SYMMETRIC, SYMMETRIC.element(word)

    def braid_literal(self):
        kind, text, pos = self.peek()
        tokens = []
        if kind == "int" and text == "1":
            self.take("int")
        else:
            while self.peek()[0] == "braid":
                tokens.append(self.take("braid")[1])
        self.take("punct", "@")
        level = self.number("level")
        try:
            word = braids.parse_letters(" ".join(tokens) or "1", level)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        return BRAID, BRAID.element(word)

    def call(self, depth):
        _, name, pos = self.take("name")
        if depth > MAX_DEPTH:
            raise ParseError(f"calls nested more than {MAX_DEPTH} deep", pos)
        self.take("punct", "(")
        args = [self.expr(depth)]
        while self.peek()[1] == ",":
            self.take("punct", ",")
            args.append(self.expr(depth))
        self.take("punct", ")")
        try:
            inst, value = self.apply(name, args, pos)
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"{perms.clip(name)}: {exc}", pos) from None
        if value.level > MAX_LEVEL:
            raise ParseError(f"{perms.clip(name)}: level {value.level} is above "
                             f"the limit {MAX_LEVEL}", pos)
        return inst, value

    def apply(self, name, args, pos):
        op, mark, digits = name.partition("_")
        arity, operation = _OPERATORS.get(op + mark, (None, None))
        if operation is None:
            raise ParseError(f"unknown operator {perms.clip(name)!r}", pos)
        if len(args) != arity:
            count = "one argument" if arity == 1 else "two arguments"
            raise ParseError(f"{perms.clip(name)} takes {count}", pos)
        inst = args[0][0]
        if any(other is not inst for other, _ in args):
            raise ParseError("mixed permutation and braid operands", pos)
        index = self.number("index", ("int", digits, pos)) if mark else None
        return inst, operation(inst, index, *(value for _, value in args))


# Operator name -> (arity, operation(inst, index, *operands)); only a
# name ending in "_" has an index.  An operation looks its method up when
# called, so it reaches a wrapper installed on that method after import.
_OPERATORS = {
    "mul": (2, lambda inst, _, a, b: inst.mul(a, b)),
    "boxplus": (2, lambda inst, _, a, b: inst.boxplus(a, b)),
    "inv": (1, lambda inst, _, a: inst.inv(a)),
    "sL": (1, lambda inst, _, a: inst.s_left(a)),
    "sR": (1, lambda inst, _, a: inst.s_right(a)),
    "d_": (1, lambda inst, i, a: inst.face(i, a)),
    "s_": (1, lambda inst, i, a: inst.degeneracy(i, a)),
    "circ_": (2, lambda inst, i, a, b: operad.circ_set(inst, a, i, b)),
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
        horn = kan.horn_from_json(inst, data)
    except (ValueError, IndexError) as exc:
        print(f"malformed horn: {exc}", file=sys.stderr)
        return 2
    if horn.n > MAX_LIFT_LEVEL:
        print(f"malformed horn: level is above the kan-lift limit {MAX_LIFT_LEVEL}",
              file=sys.stderr)
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
    # eval and kan-lift read their one argument even if it starts with '-'.
    if (len(argv) == 2 and argv[0] in ("eval", "kan-lift")
            and argv[1] not in ("-h", "--help", "--")):
        argv.insert(1, "--")
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

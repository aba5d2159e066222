"""
Permutations of [n] = {0, ..., n} in one-line notation.

A permutation at level n is a tuple (s(0), ..., s(n)) of n + 1 distinct
integers; levels count points minus one, so the level-n group acts on
n + 1 points.  Composition is right-to-left: compose(g, h) applies h
first, i.e. compose(g, h)(x) = g(h(x)).

The simplicial structure: the face at index i removes the point whose
value is i (the source position inverse(s)[i] and the value i are both
deleted, and the remaining sources and values are compacted); the
degeneracy at i doubles that point.

block_substitute expands the point i of the outer permutation into a
block of m + 1 consecutive points carrying an inner permutation.  Each
symmetric insertion is one, and so is the whole partial composition:
the oracle the structural formula is checked against.

Each kernel below that builds a permutation keeps a table of its own
results on at most 7 points, keyed by its arguments and filled on first
use: level 6 is the highest level a symmetric acceptance scope reaches
(partial composition lands at level n + m, so the operad axioms on
three level-2 operands reach level 6), and larger levels (an `eval` at
level 1000) would only grow the tables.  They serve the arrow sources
(groupoid.target, face_arrow, degeneracy_arrow, n_action), the
symmetric insertions and the misses of the symmetric elements' own rows
(core.SymmetricCsg).  A miss runs the kernel's body, so every error
still raises and nothing that raised is kept; the rule `kept` admits
only tuples of ints, so sharing is safe.

Every keep of permutations goes through `spend`: these tables, the
symmetric intern store, the arrow store and the rows of elements and
arrows (braids._PAIRS, the braid pair step, does not spend: its domain,
pairs of simple factors on at most 5 strands, bounds it).  An entry on
at most 5 points is always kept: the permutations of levels 0 to 4 are
few, so each store of them is bounded.  An entry on 6 or 7 points takes
one entry of one shared budget; once it is spent such a result is
computed fresh and not kept, as a result on more than 7 points always
is.  So memory stays bounded however many levels and seeds a process
checks, and a caller that spends the budget on large results leaves
the small ones kept.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from typing import Iterator, Sequence

Perm = tuple[int, ...]

_TABLE_POINTS = 7
# Entries on at most _FEW_POINTS points are kept without limit.
_FEW_POINTS = 5
# The entries on more points that all keeps together may add, for the
# life of the process.  The symmetric suites at their acceptance scopes
# spend 26k in one pass and 31k in 14; `check crossed --max-level 6`
# spends it all and then stays flat.
_BUDGET = 2 ** 17
_spent = 0
# One shared tuple per kept permutation: the 5,913 permutations on at
# most 7 points fill many more table entries.
_KEPT: dict[Perm, Perm] = {}


def kept(p) -> bool:
    """The keep rule of the kernel tables and the interned symmetric values:
    a tuple of ints on at most _TABLE_POINTS points.  Not bools or floats:
    as keys True == 1 and 1.0 == 1, so a kept one would stand in for an int."""
    return type(p) is tuple and len(p) <= _TABLE_POINTS and all(type(v) is int for v in p)


def spend(points: int) -> bool:
    """Whether an entry on `points` points may be kept: always on at
    most _FEW_POINTS, else while the shared budget lasts, taking one
    entry of it; False, taking nothing, once _BUDGET entries are taken."""
    global _spent
    if points <= _FEW_POINTS:
        return True
    if _spent >= _BUDGET:
        return False
    _spent += 1
    return True


def _tabled(kernel):
    """Keep kernel's results that `kept` admits, as `spend` allows,
    keyed by its positional arguments.  An argument annotated `int` that
    is not an int always runs the body, which refuses a float.  The
    untabled body stays reachable as `body`; the wrapper takes no
    `__wrapped__`, which marks a wrapper installed from outside the
    library."""
    table, code = {}, kernel.__code__
    at = next((k for k, name in enumerate(code.co_varnames[:code.co_argcount])
               if kernel.__annotations__.get(name) == "int"), None)

    def tabled(*args):
        result = table.get(args)
        if result is None or at is not None and args[at].__class__ is not int:
            result = kernel(*args)
            if kept(result) and spend(len(result)):
                result = table[args] = _KEPT.setdefault(result, result)
        return result
    for attr in functools.WRAPPER_ASSIGNMENTS:
        setattr(tabled, attr, getattr(kernel, attr))
    tabled.table, tabled.body = table, kernel
    return tabled


# An error message shows at most this many characters of an input text.
MAX_ECHO = 40


def clip(text: str) -> str:
    """text, or its first MAX_ECHO characters and '...', for an error line."""
    return text if len(text) <= MAX_ECHO else text[:MAX_ECHO] + "..."


def is_perm(word: Sequence[int]) -> bool:
    """
    Whether word lists 0..len(word) - 1 once each, as ints (not bools).

    >>> [is_perm(w) for w in [(0,), (1, 0), (0, 2), (0, 0), (True, False)]]
    [True, True, False, False, False]
    """
    return all(type(v) is int for v in word) and sorted(word) == list(range(len(word)))


@_tabled
def identity(n: int) -> Perm:
    """The identity at level n (on n + 1 points)."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    return tuple(range(n + 1))


@_tabled
def compose(g: Perm, h: Perm) -> Perm:
    """
    compose(g, h)(x) = g(h(x)): h acts first.

    >>> compose((1, 0, 2), (2, 0, 1))
    (2, 1, 0)
    """
    if len(g) != len(h):
        raise ValueError(f"levels {len(g) - 1} and {len(h) - 1} differ")
    return tuple(g[x] for x in h)


@_tabled
def inverse(p: Perm) -> Perm:
    """
    >>> inverse((1, 2, 0))
    (2, 0, 1)
    """
    inv = [0] * len(p)
    for src, val in enumerate(p):
        inv[val] = src
    return tuple(inv)


@_tabled
def face_perm(i: int, p: Perm) -> Perm:
    """
    Delete the point with value i: drop the position p.index(i), which
    holds it, then shift the values above i down by one.

    >>> face_perm(0, (1, 2, 0))
    (0, 1)
    >>> face_perm(2, (1, 2, 0))
    (1, 0)
    """
    i = operator.index(i)
    n = len(p) - 1
    if n < 1:
        raise ValueError("cannot take a face at level 0")
    if not 0 <= i <= n:
        raise IndexError(f"face index {i} out of range at level {n}")
    a = p.index(i)
    return tuple(v - 1 if v > i else v for v in p[:a] + p[a + 1:])


@_tabled
def degeneracy_perm(i: int, p: Perm) -> Perm:
    """
    Double the point with value i: shift the values above i up by one,
    then replace the position p.index(i) by two positions holding i and
    i + 1.

    >>> degeneracy_perm(0, (1, 0))
    (2, 0, 1)
    >>> degeneracy_perm(1, (1, 0))
    (1, 2, 0)
    """
    i = operator.index(i)
    n = len(p) - 1
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy index {i} out of range at level {n}")
    a = p.index(i)
    up = tuple(v + 1 if v > i else v for v in p)
    return up[:a] + (i, i + 1) + up[a + 1:]


@_tabled
def block_substitute(p: Perm, i: int, q: Perm) -> Perm:
    """
    Substitute q for the point i of p: shift the values above i up by
    m, then replace the position p.index(i) by the block of m + 1
    positions holding i + q(0), ..., i + q(m).

    >>> block_substitute((1, 0), 0, (1, 0))
    (2, 1, 0)
    >>> block_substitute((0, 1), 0, (1, 0))
    (1, 0, 2)
    """
    i = operator.index(i)
    n = len(p) - 1
    m = len(q) - 1
    if not 0 <= i <= n:
        raise IndexError(f"block index {i} out of range at level {n}")
    a = p.index(i)
    up = tuple(v + m if v > i else v for v in p)
    return up[:a] + tuple(i + v for v in q) + up[a + 1:]


# Case-split identities describing how inverse images transport through
# faces, degeneracies and block substitution.  Each kind names the value
# being chased and the operator it is chased through:
#   face-above        d_i(s)^-1(j-1) in terms of s^-1(j), for i < j
#   face-below        d_j(s)^-1(i) in terms of s^-1(i), for i < j
#   degeneracy-below  s_j(s)^-1(i) in terms of s^-1(i), for i < j
#   degeneracy-above  s_i(s)^-1(j+1) in terms of s^-1(j), for i < j
#   block             (p o_i q)^-1(i+j) = p^-1(i) + q^-1(j)

def transport_verdicts(p: Perm, i: int, j: int) -> dict[str, bool]:
    """Check the four face and degeneracy transport identities at i < j."""
    pinv = inverse(p)
    return {
        "face-above": inverse(face_perm(i, p))[j - 1]
            == (pinv[j] - 1 if pinv[i] < pinv[j] else pinv[j]),
        "face-below": inverse(face_perm(j, p))[i]
            == (pinv[i] - 1 if pinv[j] < pinv[i] else pinv[i]),
        "degeneracy-below": inverse(degeneracy_perm(j, p))[i]
            == (pinv[i] + 1 if pinv[j] < pinv[i] else pinv[i]),
        "degeneracy-above": inverse(degeneracy_perm(i, p))[j + 1]
            == (pinv[j] if pinv[j] < pinv[i] else pinv[j] + 1),
    }


def block_transport_holds(p: Perm, i: int, q: Perm, j: int) -> bool:
    """Check the block transport identity for p o_i q at the inner point j."""
    return inverse(block_substitute(p, i, q))[i + j] == inverse(p)[i] + inverse(q)[j]


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations at level n, in lexicographic order."""
    return itertools.permutations(range(n + 1))


def random_perm(rng: random.Random, n: int) -> Perm:
    word = list(range(n + 1))
    rng.shuffle(word)
    return tuple(word)


def format_perm(p: Perm) -> str:
    """Bracketed comma list, e.g. '[1,0,2]'."""
    return "[" + ",".join(str(v) for v in p) + "]"

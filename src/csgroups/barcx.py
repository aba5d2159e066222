"""
Bar-style structure on powers of a finite monoid.

Level n carries the (n + 1)-fold tuples over a fixed finite monoid,
acted on by the level groups through coordinate permutation.  Two
operator families live here.

The cyclic family (bar_face / bar_degeneracy): faces multiply adjacent
entries, the last face wrapping around (the product of the last and
first entries lands in front), degeneracies insert the unit.  These
satisfy the plain simplicial identities, and they satisfy the twisted
identities

    d_i(g t) = d_i(g) d_{a}(t),   s_i(g t) = s_i(g) s_{a}(t)

(a the image of i under the inverse permutation of g) precisely when
g's permutation is a rotation: the wrap is a cyclic structure, and no
assignment of multiplied-pair faces extends it to all permutations,
not even over a commutative monoid (the mismatch is positional).

The symmetric structure that does exist on these levels is the
covariant one (bar_insert / bar_merge): inserting units and merging
adjacent entries, with permutations rewritten past them through the
crossed face and degeneracy maps,

    g . insert_{a}(x) = insert_i(d_i(g) . x)        a = g^-1(i),
    g . merge_j(x)    = merge_{g(j)}(s_{g(j)}(g) . x).

calibrate_conventions runs all candidate readings (cyclic faces with
either wrap and either action side, and the covariant pair with either
action side) on a noncommutative monoid and reports the survivors; the
covariant reading with the inverse-lookup action is the one that
survives, and is the default.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import product

from . import perms
from .core import CsgElement, CsgInstance, Tally, simplicial_report

BarTuple = tuple[str, ...]

WRAPS = ("last-first", "first-last")
TWISTS = ("inverse", "plain")
DEFAULT_WRAP = "last-first"
DEFAULT_TWIST = "inverse"
CALIBRATION_LEVEL = 2


@dataclasses.dataclass(frozen=True)
class FiniteMonoid:
    name: str
    elements: tuple[str, ...]
    unit: str
    table: tuple[tuple[str, ...], ...]  # table[i][j] = elements[i] * elements[j]

    def __post_init__(self):
        idx = {e: i for i, e in enumerate(self.elements)}
        if len(idx) != len(self.elements):
            raise ValueError("duplicate element names")
        if self.unit not in idx:
            raise ValueError(f"unit {self.unit!r} is not an element")
        if len(self.table) != len(self.elements):
            raise ValueError("table has the wrong number of rows")
        for row in self.table:
            if len(row) != len(self.elements) or any(v not in idx for v in row):
                raise ValueError("table row malformed")
        for a in self.elements:
            if self.mult(self.unit, a) != a or self.mult(a, self.unit) != a:
                raise ValueError(f"unit law fails at {a!r}")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.mult(self.mult(a, b), c) != self.mult(a, self.mult(b, c)):
                        raise ValueError(f"associativity fails at ({a!r},{b!r},{c!r})")

    def mult(self, a: str, b: str) -> str:
        return self.table[self.elements.index(a)][self.elements.index(b)]

    def tuples(self, n: int):
        """All bar tuples at level n, the last entry varying fastest."""
        return product(self.elements, repeat=n + 1)

    def random_tuple(self, rng: random.Random, n: int) -> BarTuple:
        return tuple(rng.choice(self.elements) for _ in range(n + 1))


def trivial_monoid() -> FiniteMonoid:
    return FiniteMonoid("trivial", ("e",), "e", (("e",),))


def cyclic_monoid(k: int) -> FiniteMonoid:
    names = tuple(f"c{i}" for i in range(k))
    table = tuple(tuple(names[(i + j) % k] for j in range(k)) for i in range(k))
    return FiniteMonoid(f"cyclic{k}", names, names[0], table)


def left_wins_monoid(k: int) -> FiniteMonoid:
    """The unit e and k - 1 idempotents, among x, y and z, where the
    left factor wins: a*b = a for a != e."""
    if not 1 <= k <= 4:
        raise ValueError(f"left-wins monoids have 1 to 4 elements, not {k}")
    names = ("e", "x", "y", "z")[:k]
    table = tuple(tuple(b if a == "e" else a for b in names) for a in names)
    return FiniteMonoid(f"left-wins{k}", names, "e", table)


def standard_monoids() -> tuple[FiniteMonoid, ...]:
    return (trivial_monoid(), cyclic_monoid(2), left_wins_monoid(3),
            left_wins_monoid(4))


def bar_face(monoid: FiniteMonoid, i: int, t: BarTuple,
             wrap: str = DEFAULT_WRAP) -> BarTuple:
    n = len(t) - 1
    if n < 1:
        raise ValueError("cannot take a face at level 0")
    if not 0 <= i <= n:
        raise IndexError(f"face index {i} out of range at level {n}")
    if i < n:
        return t[:i] + (monoid.mult(t[i], t[i + 1]),) + t[i + 2:]
    if wrap == "last-first":
        return (monoid.mult(t[n], t[0]),) + t[1:n]
    return (monoid.mult(t[0], t[n]),) + t[1:n]  # "first-last"


def bar_degeneracy(monoid: FiniteMonoid, i: int, t: BarTuple) -> BarTuple:
    n = len(t) - 1
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy index {i} out of range at level {n}")
    return t[:i + 1] + (monoid.unit,) + t[i + 1:]


def bar_action(inst: CsgInstance, g: CsgElement, t: BarTuple,
               twist: str = DEFAULT_TWIST) -> BarTuple:
    if g.level != len(t) - 1:
        raise ValueError(f"levels {g.level} and {len(t) - 1} differ")
    sigma = inst.underlying_perm(g)
    lookup = perms.inverse(sigma) if twist == "inverse" else sigma  # else "plain"
    return tuple(t[lookup[i]] for i in range(len(t)))


def check_bar_simplicial(tally: Tally, monoid: FiniteMonoid, t: BarTuple):
    """The plain simplicial identities on one tuple (default wrap)."""
    simplicial_report(
        tally, t, len(t) - 1,
        lambda i, x: bar_face(monoid, i, x),
        lambda i, x: bar_degeneracy(monoid, i, x),
        lambda a, b: a == b,
        lambda x: f"{monoid.name}:{x}")


def bar_insert(monoid: FiniteMonoid, i: int, t: BarTuple) -> BarTuple:
    """Insert the unit at slot i (0 <= i <= len(t))."""
    if not 0 <= i <= len(t):
        raise IndexError(f"insert slot {i} out of range for {len(t)} entries")
    return t[:i] + (monoid.unit,) + t[i:]


def bar_merge(monoid: FiniteMonoid, j: int, t: BarTuple) -> BarTuple:
    """Multiply slots j and j + 1 (0 <= j <= len(t) - 2)."""
    if len(t) < 2 or not 0 <= j <= len(t) - 2:
        raise IndexError(f"merge slot {j} out of range for {len(t)} entries")
    return t[:j] + (monoid.mult(t[j], t[j + 1]),) + t[j + 2:]


def check_covariant_insert(tally: Tally, monoid: FiniteMonoid, inst: CsgInstance,
                           g: CsgElement, x: BarTuple, i: int,
                           twist: str = DEFAULT_TWIST):
    """g . insert_{g^-1(i)}(x) == insert_i(d_i(g) . x); x has g.level
    entries."""
    dg = inst.face(i, g)
    a = inst.underlying_perm(g).index(i)
    lhs = bar_action(inst, g, bar_insert(monoid, a, x), twist)
    rhs = bar_insert(monoid, i, bar_action(inst, dg, x, twist))
    tally.check(lhs == rhs, f"g.insert_{a}(x) == insert_{i}(d_{i}(g).x)",
                lambda: f"{inst.format(g)}, {x}")


def check_covariant_merge(tally: Tally, monoid: FiniteMonoid, inst: CsgInstance,
                          g: CsgElement, x: BarTuple, j: int,
                          twist: str = DEFAULT_TWIST):
    """g . merge_j(x) == merge_{g(j)}(s_{g(j)}(g) . x); x has
    g.level + 2 entries."""
    k = inst.underlying_perm(g)[j]
    lhs = bar_action(inst, g, bar_merge(monoid, j, x), twist)
    rhs = bar_merge(monoid, k,
                    bar_action(inst, inst.degeneracy(k, g), x, twist))
    tally.check(lhs == rhs, f"g.merge_{j}(x) == merge_{k}(s_{k}(g).x)",
                lambda: f"{inst.format(g)}, {x}")


def check_delta_g_object(tally: Tally, monoid: FiniteMonoid, inst: CsgInstance,
                         g: CsgElement, t: BarTuple, i: int,
                         twist: str = DEFAULT_TWIST, wrap: str = DEFAULT_WRAP):
    """The twisted face and degeneracy identities for the coordinate
    action on one input."""
    n = g.level
    sg = inst.degeneracy(i, g)
    a = inst.underlying_perm(g).index(i)
    gt = bar_action(inst, g, t, twist)
    inputs = lambda: f"{inst.format(g)}, {t}"
    if n >= 1:
        lhs = bar_face(monoid, i, gt, wrap)
        rhs = bar_action(inst, inst.face(i, g),
                         bar_face(monoid, a, t, wrap), twist)
        tally.check(lhs == rhs, f"d_{i}(g t) == d_{i}(g) d_{a}(t)", inputs)
    lhs = bar_degeneracy(monoid, i, gt)
    rhs = bar_action(inst, sg, bar_degeneracy(monoid, a, t), twist)
    tally.check(lhs == rhs, f"s_{i}(g t) == s_{i}(g) s_{a}(t)", inputs)


def calibrate_conventions(monoid: FiniteMonoid, inst: CsgInstance) -> dict[str, bool]:
    """
    Which candidate readings of the twisted-action identities hold on
    the given monoid, exhaustively over the levels of inst up to
    CALIBRATION_LEVEL (inst must enumerate its levels).  Keys are
    'cyclic/<twist>/<wrap>' for the multiplying faces and
    'covariant/<twist>' for the insert/merge pair.  Only whether a
    reading holds is kept, so each stops at its first failing case.
    """
    def cyclic(twist, wrap):
        for n in range(CALIBRATION_LEVEL + 1):
            for g, t, i in product(inst.elements(n), monoid.tuples(n), range(n + 1)):
                yield check_delta_g_object, (monoid, inst, g, t, i, twist, wrap)

    def covariant(twist):
        for n in range(1, CALIBRATION_LEVEL + 1):
            for g, x, i in product(inst.elements(n), monoid.tuples(n - 1), range(n + 1)):
                yield check_covariant_insert, (monoid, inst, g, x, i, twist)
            for g, x, j in product(inst.elements(n), monoid.tuples(n + 1), range(n + 1)):
                yield check_covariant_merge, (monoid, inst, g, x, j, twist)

    def holds(cases):
        tally = Tally()
        for check, args in cases:
            check(tally, *args)
            if not tally.ok:
                break
        return tally.ok

    verdicts = {f"cyclic/{twist}/{wrap}": holds(cyclic(twist, wrap))
                for twist in TWISTS for wrap in WRAPS}
    verdicts.update({f"covariant/{twist}": holds(covariant(twist)) for twist in TWISTS})
    return verdicts


def rotation(n: int, shift: int) -> tuple[int, ...]:
    """The rotation p(j) = (j + shift) mod (n + 1) at level n."""
    return tuple((j + shift) % (n + 1) for j in range(n + 1))

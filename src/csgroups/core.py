"""
The two crossed simplicial group families and their law checkers.

SymmetricCsg and BraidCsg each bundle the group operations of one
family at every level, together with the face and degeneracy maps, the
two end insertions s_left and s_right, and the projection onto
permutations; only the symmetric family enumerates its levels.  Their
common base CsgInstance names these primitives and holds the
operations derived from them (purity, padding, the juxtaposition
product).  Faces and degeneracies are not homomorphisms; instead
they satisfy the crossed identities

    d_i(g h) = d_i(g) d_{a}(h),   s_i(g h) = s_i(g) s_{a}(h),

where a is the image of i under the inverse of g's underlying
permutation.  The checkers at the bottom of this module test these and
the related laws (plain simplicial identities, extra degeneracies,
commuting paddings, the degeneracy-conjugation law used by the partial
compositions).  Each takes the caller's Tally first and records every
case into it, naming the failing identity and its inputs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

from . import braids, perms


@dataclasses.dataclass(frozen=True)
class CsgElement:
    """A level-tagged element; the payload type is fixed by the instance."""

    level: int
    payload: object
    # Not fields, so not part of the value; SymmetricCsg sets them when
    # interning.  `arrows` holds the interned arrows (groupoid.arrow).
    rank = -1
    rows = arrows = None


class Tally:
    """Counts checked cases and collects the violations among them as
    (identity, inputs) pairs; every checker records into the tally its
    caller passes.  `describe` formats inputs only for a failing case."""

    __slots__ = ("cases", "violations")

    def __init__(self):
        self.cases = 0
        self.violations: list[tuple[str, str]] = []

    def check(self, ok: bool, identity: str, describe: Callable[[], str]):
        self.cases += 1
        if not ok:
            self.violations.append((identity, describe()))

    @property
    def ok(self) -> bool:
        return not self.violations


class CsgInstance:
    """Operations of one crossed simplicial group family.  A family sets
    `name` and defines one(n), element(payload), mul, inv, face(i, g),
    degeneracy(i, g), underlying_perm, s_left, s_right, equal,
    section(p) (a positive lift through the projection, compatible with
    faces and degeneracies), format, parse_at(text, level) and
    random_element(rng, n, max_len); an enumerable one also defines
    elements(n).  mul and equal raise ValueError on levels that differ.
    The operations derived from these are shared."""

    def is_pure(self, g: CsgElement) -> bool:
        return self.underlying_perm(g) == perms.identity(g.level)

    def degeneracy_power(self, i: int, m: int, g: CsgElement) -> CsgElement:
        """Apply the degeneracy at the literal index i, m times."""
        for _ in range(m):
            g = self.degeneracy(i, g)
        return g

    def pad(self, g: CsgElement, left: int, right: int) -> CsgElement:
        """Insert `left` trivial points on the left and `right` on the
        right, landing at level g.level + left + right."""
        for _ in range(right):
            g = self.s_right(g)
        for _ in range(left):
            g = self.s_left(g)
        return g

    def boxplus(self, g: CsgElement, h: CsgElement) -> CsgElement:
        """Juxtaposition product at level n + m + 1."""
        n, m = g.level, h.level
        return self.mul(self.pad(g, 0, m + 1), self.pad(h, n + 1, 0))


class SymmetricCsg(CsgInstance):
    """Permutation groups; the projection is the identity.  A permutation
    that perms.kept admits has one element in the class (so ranks agree
    across instances), interned on first use and returned by every
    operation.  Its rows keep the interned results of each perms
    kernel (a replaced kernel fills its own) by the other operand's rank
    or the int index; a miss runs the kernel.  Equality is by value."""

    name = "symm"
    _RANKS = sum(map(math.factorial, range(1, perms._TABLE_POINTS + 1)))
    _interned: dict[perms.Perm, CsgElement] = {}

    def _intern(self, p):
        g = self._interned.get(p) or CsgElement(len(p) - 1, p)
        if g.rank < 0 and perms.kept(p):
            # Not vars(g): a materialised __dict__ makes every read of them slower.
            object.__setattr__(g, "rank", len(self._interned))
            object.__setattr__(g, "rows", {})
            object.__setattr__(g, "arrows", {})
            self._interned[p] = g
        return g

    def _fill(self, kernel, g, size, key, *args):
        result = self._intern(kernel(*args))
        if key >= 0 and g.rank >= 0 and result.rank >= 0:
            g.rows.setdefault(kernel, [None] * size)[key] = result
        return result

    def one(self, n: int) -> CsgElement:
        return self._intern(perms.identity(n))

    def element(self, payload) -> CsgElement:
        word = tuple(payload)
        if not perms.is_perm(word):
            raise ValueError(f"{payload!r} is not a permutation")
        return self._intern(word)

    def mul(self, g, h):
        row = g.rows and h.rank >= 0 and g.rows.get(perms.compose)
        return (row and row[h.rank]
                or self._fill(perms.compose, g, self._RANKS, h.rank, g.payload, h.payload))

    def inv(self, g):
        row = g.rows and g.rows.get(perms.inverse)
        return row[0] if row else self._fill(perms.inverse, g, 1, 0, g.payload)

    def face(self, i, g):
        row = g.rows and 0 <= i <= g.level and g.rows.get(perms.face_perm)
        return (row and row[i]
                or self._fill(perms.face_perm, g, g.level + 1, i, i, g.payload))

    def degeneracy(self, i, g):
        row = g.rows and 0 <= i <= g.level and g.rows.get(perms.degeneracy_perm)
        return (row and row[i]
                or self._fill(perms.degeneracy_perm, g, g.level + 1, i, i, g.payload))

    def underlying_perm(self, g):
        return g.payload

    def s_left(self, g):
        row = g.rows and g.rows.get(perms.s_left_perm)
        return row[0] if row else self._fill(perms.s_left_perm, g, 1, 0, g.payload)

    def s_right(self, g):
        row = g.rows and g.rows.get(perms.s_right_perm)
        return row[0] if row else self._fill(perms.s_right_perm, g, 1, 0, g.payload)

    def equal(self, g, h):
        if g is not h and g.level != h.level:
            raise ValueError(f"levels {g.level} and {h.level} differ")
        return g is h or g.payload == h.payload

    section = element

    def format(self, g):
        return perms.format_perm(g.payload)

    def parse_at(self, text, level):
        word = perms.parse_perm(text)
        if len(word) - 1 != level:
            raise ValueError(f"{perms.clip(text)!r} has level {len(word) - 1}, "
                             f"expected {level}")
        return self._intern(word)

    def random_element(self, rng, n, max_len=12):
        return self._intern(perms.random_perm(rng, n))

    def elements(self, n):
        return (self._intern(p) for p in perms.all_perms(n))


class BraidCsg(CsgInstance):
    """Braid groups on level + 1 strands; equality by the left-greedy
    normal form (braids.braids_equal), with the free-group action
    (braids.artin_act) as the reference oracle of the tests."""

    name = "braid"

    def one(self, n: int) -> CsgElement:
        return CsgElement(n, braids.empty_word(n))

    def element(self, payload) -> CsgElement:
        if not isinstance(payload, braids.BraidWord):
            raise ValueError(f"expected a BraidWord, got {payload!r}")
        return CsgElement(payload.level, payload)

    def mul(self, g, h):
        return CsgElement(g.level, braids.concat(g.payload, h.payload))

    def inv(self, g):
        return CsgElement(g.level, braids.invert_word(g.payload))

    def face(self, i, g):
        return CsgElement(g.level - 1, braids.face_word(i, g.payload))

    def degeneracy(self, i, g):
        return CsgElement(g.level + 1, braids.degeneracy_word(i, g.payload))

    def underlying_perm(self, g):
        return braids.underlying_perm_word(g.payload)

    def s_left(self, g):
        return CsgElement(g.level + 1, braids.s_left_word(g.payload))

    def s_right(self, g):
        return CsgElement(g.level + 1, braids.s_right_word(g.payload))

    def equal(self, g, h):
        return braids.braids_equal(g.payload, h.payload)

    def section(self, p):
        return CsgElement(len(p) - 1, braids.permutation_braid(p))

    def format(self, g):
        return f"{braids.format_letters(g.payload)}@{g.level}"

    def parse_at(self, text, level):
        return CsgElement(level, braids.parse_letters(text, level))

    def random_element(self, rng, n, max_len=12):
        return CsgElement(n, braids.random_word(rng, n, max_len))


SYMMETRIC = SymmetricCsg()
BRAID = BraidCsg()

INSTANCES = {inst.name: inst for inst in (SYMMETRIC, BRAID)}


def _inputs(inst: CsgInstance, *gs) -> str:
    return ", ".join(inst.format(g) for g in gs)


def check_crossed_identities(tally: Tally, inst: CsgInstance, g: CsgElement,
                             h: CsgElement, i: int):
    """d_i and s_i applied to a product, against the twisted-index form."""
    n = g.level
    sg = inst.degeneracy(i, g)
    a = inst.underlying_perm(g).index(i)
    describe = lambda: _inputs(inst, g, h)
    if n >= 1:
        lhs = inst.face(i, inst.mul(g, h))
        rhs = inst.mul(inst.face(i, g), inst.face(a, h))
        tally.check(inst.equal(lhs, rhs), f"d_{i}(g*h) == d_{i}(g)*d_{a}(h)", describe)
    lhs = inst.degeneracy(i, inst.mul(g, h))
    rhs = inst.mul(sg, inst.degeneracy(a, h))
    tally.check(inst.equal(lhs, rhs), f"s_{i}(g*h) == s_{i}(g)*s_{a}(h)", describe)


def simplicial_report(tally: Tally, x, n: int, face, degeneracy, equal, describe,
                      rng=None):
    """
    The five families of simplicial identities on one object, for any
    carrier supplying face(i, x), degeneracy(i, x) and equality.  With
    rng=None every index pair is checked, else one pair is drawn per
    family: the face pair (none below level 2), then the degeneracy
    pair, then the mixed pair.
    """
    inputs = lambda: describe(x)

    if rng is None:
        faces = [(i, j) for j in range(n + 1) for i in range(j)] if n >= 2 else []
        degeneracies = [(i, j) for j in range(n + 1) for i in range(j + 1)]
        mixed = [(i, j) for j in range(n + 1) for i in range(n + 2)]
    else:
        faces = []
        if n >= 2:
            j = rng.randint(1, n)
            faces = [(rng.randrange(j), j)]
        j = rng.randint(0, n)
        degeneracies = [(rng.randint(0, j), j)]
        mixed = [(rng.randint(0, n + 1), rng.randint(0, n))]
    for i, j in faces:
        tally.check(equal(face(i, face(j, x)), face(j - 1, face(i, x))),
                    f"d_{i} d_{j} == d_{j}-1 d_{i}", inputs)
    for i, j in degeneracies:
        tally.check(equal(degeneracy(i, degeneracy(j, x)),
                          degeneracy(j + 1, degeneracy(i, x))),
                    f"s_{i} s_{j} == s_{j}+1 s_{i}", inputs)
    for i, j in mixed:
        sj = degeneracy(j, x)
        if i < j:
            tally.check(equal(face(i, sj), degeneracy(j - 1, face(i, x))),
                        f"d_{i} s_{j} == s_{j}-1 d_{i}", inputs)
        elif i in (j, j + 1):
            tally.check(equal(face(i, sj), x), f"d_{i} s_{j} == id", inputs)
        else:
            tally.check(equal(face(i, sj), degeneracy(j, face(i - 1, x))),
                        f"d_{i} s_{j} == s_{j} d_{i}-1", inputs)


def check_simplicial_identities(tally: Tally, inst: CsgInstance, g: CsgElement,
                                rng=None):
    simplicial_report(
        tally, g, g.level, inst.face, inst.degeneracy, inst.equal, inst.format, rng)


def check_extra_degeneracy(tally: Tally, inst: CsgInstance, g: CsgElement):
    """s_left as an extra degeneracy below index 0, s_right above index
    n, and the projection squares for both."""
    n = g.level
    describe = lambda: _inputs(inst, g)
    equal = inst.equal
    # (name, insertion, its permutation form, the index shift it puts on
    # the faces and degeneracies it passes, the face that undoes it)
    ends = (("sL", inst.s_left, perms.s_left_perm, 1, 0),
            ("sR", inst.s_right, perms.s_right_perm, 0, n + 1))
    for name, insert, insert_perm, shift, undo in ends:
        lifted = insert(g)
        tally.check(equal(inst.face(undo, lifted), g), f"d_{undo} {name} == id", describe)
        for i in range(n + 1):
            tally.check(equal(inst.degeneracy(i + shift, lifted),
                              insert(inst.degeneracy(i, g))),
                        f"s_{i + shift} {name} == {name} s_{i}", describe)
        for i in range(n + 1) if n >= 1 else ():
            tally.check(equal(inst.face(i + shift, lifted), insert(inst.face(i, g))),
                        f"d_{i + shift} {name} == {name} d_{i}", describe)
        tally.check(inst.underlying_perm(lifted) == insert_perm(inst.underlying_perm(g)),
                    f"perm({name} g) == {name}(perm g)", describe)


def check_monoidal(tally: Tally, inst: CsgInstance, g: CsgElement, h: CsgElement):
    """The two paddings entering the juxtaposition product commute."""
    n, m = g.level, h.level
    a = inst.pad(g, 0, m + 1)
    b = inst.pad(h, n + 1, 0)
    tally.check(inst.equal(inst.mul(a, b), inst.mul(b, a)),
                "pad(g)*pad(h) == pad(h)*pad(g)", lambda: _inputs(inst, g, h))


def check_operadic(tally: Tally, inst: CsgInstance, g: CsgElement, h: CsgElement,
                   i: int):
    """Padded elements conjugate through iterated degeneracies by moving
    their insertion index along g's inverse permutation."""
    n, m = g.level, h.level
    if not 0 <= i <= n:
        raise IndexError(f"index {i} out of range at level {n}")
    a = inst.underlying_perm(g).index(i)
    si = inst.degeneracy_power(i, m, g)
    lhs = inst.mul(inst.pad(h, i, n - i), si)
    rhs = inst.mul(si, inst.pad(h, a, n - a))
    tally.check(inst.equal(lhs, rhs),
                f"pad(h,{i})*s_{i}^{m}(g) == s_{i}^{m}(g)*pad(h,{a})",
                lambda: _inputs(inst, g, h))


def check_pure_homomorphism(tally: Tally, inst: CsgInstance, p: CsgElement,
                            q: CsgElement, i: int):
    """Faces and degeneracies are plain homomorphisms when the left
    factor projects to the identity."""
    if not inst.is_pure(p):
        raise ValueError("left factor must project to the identity")
    n = p.level
    describe = lambda: _inputs(inst, p, q)
    if n >= 1:
        tally.check(inst.equal(inst.face(i, inst.mul(p, q)),
                               inst.mul(inst.face(i, p), inst.face(i, q))),
                    f"d_{i}(p*q) == d_{i}(p)*d_{i}(q) [p pure]", describe)
    tally.check(inst.equal(inst.degeneracy(i, inst.mul(p, q)),
                           inst.mul(inst.degeneracy(i, p), inst.degeneracy(i, q))),
                f"s_{i}(p*q) == s_{i}(p)*s_{i}(q) [p pure]", describe)

"""
The two crossed simplicial group families and their law checkers.

SymmetricCsg and BraidCsg each bundle the group operations of one
family at every level, the face and degeneracy maps, the end
insertions s_left and s_right, the projection onto permutations, and
one kernel for each insertion of partial composition; only the
symmetric family enumerates its levels.  Their common base CsgInstance
names these, owns the count rule of the insertions, and derives purity
and the juxtaposition product.  Faces and degeneracies are not
homomorphisms; instead they satisfy the crossed identities

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
import operator
from typing import Callable

from . import braids, perms


@dataclasses.dataclass(frozen=True)
class CsgElement:
    """A level-tagged element; the payload type is fixed by the instance."""

    level: int
    payload: object
    # Not fields, so not part of the value; SymmetricCsg sets them when
    # interning.  `rows` holds the element's kept results, `arrows` the
    # interned arrows (groupoid.arrow).
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
    A family also defines _cable(i, m, g), s_i applied m >= 1 times, and
    _pad(g, left, right), left + right >= 1 points, each in one step.
    The operations derived from these are shared; a family may override
    reduced(g), which returns g by default, with a shorter name for the
    same element (kan keeps its horn filler short with it)."""

    def reduced(self, g: CsgElement) -> CsgElement:
        return g

    def is_pure(self, g: CsgElement) -> bool:
        return self.underlying_perm(g) == perms.identity(g.level)

    def degeneracy_power(self, i: int, m: int, g: CsgElement) -> CsgElement:
        """s_i at the literal index i applied m times; g if m <= 0, i unchecked."""
        m = operator.index(m)
        return self._cable(i, m, g) if m > 0 else g

    def pad(self, g: CsgElement, left: int, right: int) -> CsgElement:
        """`left` and `right` (read first) trivial points at the ends; a count < 0 is 0."""
        right, left = max(operator.index(right), 0), max(operator.index(left), 0)
        return self._pad(g, left, right) if left or right else g

    def boxplus(self, g: CsgElement, h: CsgElement) -> CsgElement:
        """Juxtaposition product at level n + m + 1."""
        n, m = g.level, h.level
        return self.mul(self.pad(g, 0, m + 1), self.pad(h, n + 1, 0))


class SymmetricCsg(CsgInstance):
    """Permutation groups; the projection is the identity.  A permutation
    that perms.kept admits has one element in the class (shared by every
    instance), interned on first use as perms.spend allows and returned
    by every operation.  Its rows keep the interned results of each
    operation, keyed by the perms kernels it calls (a replaced kernel
    fills its own) and an insertion's name, as perms.spend allows: a list
    by the int index; for mul a dict by the other operand's id, as
    operad.circ_gpd keys its row (only an interned operand, never freed,
    has one); for _cable and _pad, one block_substitute each, a dict by
    the counts, read only for an int index.  So every kept element, on up
    to perms._TABLE_POINTS points, answers its products from its own row.
    A miss runs the kernel.  Equality is by value."""

    name = "symm"
    _interned: dict[perms.Perm, CsgElement] = {}

    def _intern(self, p):
        g = self._interned.get(p)
        if g is None:
            g = CsgElement(len(p) - 1, p)
            if perms.kept(p) and perms.spend(len(p)):
                # Not vars(g): a materialised __dict__ makes every read of them slower.
                object.__setattr__(g, "rows", {})
                object.__setattr__(g, "arrows", {})
                self._interned[p] = g
        return g

    def _fill(self, kernel, g, empty, key, *args, row=None):
        """The interned kernel(*args), kept at `key` of g's row `row` or
        kernel's (the `empty` row while g has none) as perms.spend allows."""
        result = self._intern(kernel(*args))
        if (g.rows is not None and result.rows is not None
                and perms.spend(max(g.level, result.level) + 1)):
            g.rows.setdefault(row or kernel, empty)[key] = result
        return result

    def one(self, n: int) -> CsgElement:
        return self._intern(perms.identity(n))

    def element(self, payload) -> CsgElement:
        word = tuple(payload)
        if not perms.is_perm(word):
            raise ValueError(f"{payload!r} is not a permutation")
        return self._intern(word)

    def mul(self, g, h):
        # compose refuses another level, so the row holds no key for one.
        if h.rows is None:
            return self._intern(perms.compose(g.payload, h.payload))
        row = g.rows and g.rows.get(perms.compose)
        return (row and row.get(id(h))
                or self._fill(perms.compose, g, {}, id(h), g.payload, h.payload))

    def inv(self, g):
        row = g.rows and g.rows.get(perms.inverse)
        return row[0] if row else self._fill(perms.inverse, g, [None], 0, g.payload)

    def face(self, i, g):
        row = g.rows and 0 <= i <= g.level and g.rows.get(perms.face_perm)
        return (row and row[i]
                or self._fill(perms.face_perm, g, [None] * (g.level + 1), i, i, g.payload))

    def degeneracy(self, i, g):
        row = g.rows and 0 <= i <= g.level and g.rows.get(perms.degeneracy_perm)
        return (row and row[i]
                or self._fill(perms.degeneracy_perm, g, [None] * (g.level + 1), i, i, g.payload))

    def _cable(self, i, m, g):
        row = (perms.block_substitute, perms.identity, "cable")
        return (type(i) is int and g.rows and g.rows.get(row, {}).get((i, m)) or self._fill(
            perms.block_substitute, g, {}, (i, m), g.payload, i, perms.identity(m), row=row))

    def _pad(self, g, left, right):
        row = (perms.block_substitute, perms.identity, "pad")
        return (g.rows and g.rows.get(row, {}).get((left, right)) or self._fill(
            perms.block_substitute, g, {}, (left, right),
            perms.identity(left + right), left, g.payload, row=row))

    def underlying_perm(self, g):
        return g.payload

    def s_left(self, g):
        row = g.rows and g.rows.get(perms.s_left_perm)
        return row[0] if row else self._fill(perms.s_left_perm, g, [None], 0, g.payload)

    def s_right(self, g):
        row = g.rows and g.rows.get(perms.s_right_perm)
        return row[0] if row else self._fill(perms.s_right_perm, g, [None], 0, g.payload)

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


# BraidCsg._build sets the two fields past the frozen __setattr__.
_new_element = object.__new__
_set_field = object.__setattr__


class BraidCsg(CsgInstance):
    """Braid groups on level + 1 strands; equality by the left-greedy
    normal form (braids.braids_equal), with the free-group action
    (braids.artin_act) as the reference oracle of the tests.  mul
    concatenates (eval prints the product's letters); reduced is the
    free reduction (braids.reduced_word).  _cable and _pad are one pass
    each (braids._cable_word, _pad_word); degeneracy is _cable_word at
    m = 1, and s_left and s_right are _pad_word by one strand.  element
    checks its payload; every other result is built by _build,
    unchecked, from a word whose level it is given."""

    name = "braid"

    def _build(self, level: int, word: braids.BraidWord) -> CsgElement:
        g = _new_element(CsgElement)
        _set_field(g, "level", level)
        _set_field(g, "payload", word)
        return g

    def one(self, n: int) -> CsgElement:
        return self._build(n, braids.empty_word(n))

    def element(self, payload) -> CsgElement:
        if not isinstance(payload, braids.BraidWord):
            raise ValueError(f"expected a BraidWord, got {payload!r}")
        return CsgElement(payload.level, payload)

    def mul(self, g, h):
        return self._build(g.level, braids.concat(g.payload, h.payload))

    def reduced(self, g):
        return self._build(g.level, braids.reduced_word(g.payload))

    def inv(self, g):
        return self._build(g.level, braids.invert_word(g.payload))

    def face(self, i, g):
        return self._build(g.level - 1, braids.face_word(i, g.payload))

    def degeneracy(self, i, g):
        return self._build(g.level + 1, braids._cable_word(i, 1, g.payload))

    def _cable(self, i, m, g):
        return self._build(g.level + m, braids._cable_word(i, m, g.payload))

    def _pad(self, g, left, right):
        return self._build(g.level + left + right, braids._pad_word(g.payload, left, right))

    def underlying_perm(self, g):
        return braids.underlying_perm_word(g.payload)

    def s_left(self, g):
        return self._build(g.level + 1, braids._pad_word(g.payload, 1, 0))

    def s_right(self, g):
        return self._build(g.level + 1, braids._pad_word(g.payload, 0, 1))

    def equal(self, g, h):
        return braids.braids_equal(g.payload, h.payload)

    def section(self, p):
        return self._build(len(p) - 1, braids.permutation_braid(p))

    def format(self, g):
        return f"{braids.format_letters(g.payload)}@{g.level}"

    def parse_at(self, text, level):
        return self._build(level, braids.parse_letters(text, level))

    def random_element(self, rng, n, max_len=12):
        return self._build(n, braids.random_word(rng, n, max_len))


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

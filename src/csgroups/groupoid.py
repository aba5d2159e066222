"""
Action groupoids of the level groups over their pure subgroups.

At level n the objects are the permutations and an arrow out of sigma is
a pair [sigma, f] with f a group element; its target is sigma composed
with the inverse of f's underlying permutation, so arrows from sigma to
itself are exactly the pure elements.  Composition multiplies the group
parts, [sigma f^-1, g] . [sigma, f] = [sigma, g f].

Faces and degeneracies act on an arrow by applying the corresponding
permutation operator to the source, and to the group part at the index
that the arrow's target tau sends to i:

    d_i [sigma, f] = [d_i(sigma), d_{tau^-1(i)}(f)],   tau^-1 = pi(f) sigma^-1,

and likewise for degeneracies.  Faces and degeneracies are not group
homomorphisms, but the crossed identity d_i(g f) = d_i(g) d_{g^-1(i)}(f)
splits the face of a composite at exactly these indices, so the maps
are functors.  The permutation group of each level acts freely on the
left by translating sources.

A nerve simplex of dimension m is a start object together with a chain
of m composable arrows, stored by their group parts.  Face indices
count from the end of the chain (the face at 0 drops the last arrow)
so that forgetting the start object intertwines the operators with the
bar structure of the opposite group on plain tuples.

Every arrow is built by `arrow`, which interns one per value when the
group part is an interned symmetric element (on at most 7 points) and
perms.kept admits the source, as perms.spend allows.  Such an arrow
keeps rows of the interned results of target, its faces and
degeneracies and operad.circ_gpd, keyed by the perms kernels they are
computed with, as perms.spend allows; a face or degeneracy row is a
list, so a bool index reads as its int and a float raises TypeError.
Each reads its row inline (identity_arrow and n_action read the group
part's arrows), and only a miss computes and keeps (core._keep).  So a
replaced perms kernel fills rows of its own, but a replaced instance
method (face, degeneracy, mul, pad, ...) is not seen where a row
already holds the result.  Equality is still by value.
"""

from __future__ import annotations

import dataclasses
import json
import random

from . import perms
from .core import CsgElement, CsgInstance, Tally, _keep, simplicial_report
from .perms import Perm


@dataclasses.dataclass(frozen=True)
class GroupoidArrow:
    source: Perm
    f: CsgElement
    # Not a field, so not part of the value; `arrow` sets it when interning
    # (not through vars(a): a materialised __dict__ slows every read).
    rows = None

    def __post_init__(self):
        if len(self.source) - 1 != self.f.level:
            raise ValueError(
                f"source level {len(self.source) - 1} != element level {self.f.level}")

    @property
    def level(self) -> int:
        return self.f.level


# One shared key for each kernel pair of the target rows.
_keys = {}


def arrow(source: Perm, f: CsgElement) -> GroupoidArrow:
    """The arrow [source, f]: when f is interned and perms.kept admits
    source, the interned one, kept in f.arrows as perms.spend allows;
    else a fresh arrow."""
    arrows = f.arrows
    a = arrows.get(source) if arrows is not None else None
    if a is None:
        a = GroupoidArrow(source, f)
        if arrows is not None and perms.kept(source) and perms.spend(len(source)):
            object.__setattr__(a, "rows", {})
            arrows[source] = a
    return a


def target(inst: CsgInstance, a: GroupoidArrow) -> Perm:
    kernels = a.rows is not None and (perms.compose, perms.inverse)
    t = kernels and a.rows.get(kernels)
    if not t:
        t = perms.compose(a.source, perms.inverse(inst.underlying_perm(a.f)))
        if kernels and perms.spend(len(t)):
            a.rows[_keys.setdefault(kernels, kernels)] = t
    return t


def identity_arrow(inst: CsgInstance, p: Perm) -> GroupoidArrow:
    f = inst.one(len(p) - 1)
    return f.arrows and f.arrows.get(p) or arrow(p, f)


def arrows_equal(inst: CsgInstance, a: GroupoidArrow, b: GroupoidArrow) -> bool:
    return a is b or a.source == b.source and inst.equal(a.f, b.f)


def continue_arrow(inst: CsgInstance, a: GroupoidArrow,
                   g: CsgElement) -> tuple[GroupoidArrow, GroupoidArrow]:
    """The arrow [target(a), g] that continues a, and the composite
    [source(a), g a.f] of the two, with a applied first."""
    return arrow(target(inst, a), g), arrow(a.source, inst.mul(g, a.f))


def composite_equals(inst: CsgInstance, c: GroupoidArrow, b: GroupoidArrow,
                     a: GroupoidArrow) -> bool:
    """Whether b . a is defined and equals c.  The checkers ask this of
    arrows whose composability is a target law under test, so a broken
    law reads as a failed identity, not as an error."""
    return (target(inst, a) == b.source and c.source == a.source
            and inst.equal(c.f, inst.mul(b.f, a.f)))


def hom_arrow(inst: CsgInstance, src: Perm, dst: Perm) -> GroupoidArrow:
    """Some arrow src -> dst; witnesses that every level is connected."""
    ratio = perms.compose(perms.inverse(dst), src)
    return arrow(src, inst.section(ratio))


def _simplicial(inst: CsgInstance, kernel, op, i: int, a: GroupoidArrow) -> GroupoidArrow:
    """The face or degeneracy of a by kernel and op, a miss of a's row, kept there."""
    source = kernel(i, a.source)
    return _keep(a, kernel, [None] * (a.f.level + 1), i,
                arrow(source, op(inst.underlying_perm(a.f)[a.source.index(i)], a.f)))


def face_arrow(inst: CsgInstance, i: int, a: GroupoidArrow) -> GroupoidArrow:
    row = a.rows and a.rows.get(perms.face_perm)
    return (row and -1 < i < len(row) and row[i]
            or _simplicial(inst, perms.face_perm, inst.face, i, a))


def degeneracy_arrow(inst: CsgInstance, i: int, a: GroupoidArrow) -> GroupoidArrow:
    row = a.rows and a.rows.get(perms.degeneracy_perm)
    return (row and -1 < i < len(row) and row[i]
            or _simplicial(inst, perms.degeneracy_perm, inst.degeneracy, i, a))


def n_action(t: Perm, a: GroupoidArrow) -> GroupoidArrow:
    """Left translation of the source by a permutation of the same level."""
    source = perms.compose(t, a.source)
    arrows = a.f.arrows
    return arrows and arrows.get(source) or arrow(source, a.f)


def is_automorphism(inst: CsgInstance, a: GroupoidArrow) -> bool:
    return inst.is_pure(a.f)


def random_arrow(inst: CsgInstance, rng: random.Random, n: int,
                 max_len: int = 12) -> GroupoidArrow:
    return arrow(perms.random_perm(rng, n), inst.random_element(rng, n, max_len))


def format_arrow(inst: CsgInstance, a: GroupoidArrow) -> str:
    return f"[{perms.format_perm(a.source)}; {inst.format(a.f)}]"


# Checkers for the simplicial structure of the groupoid.

def check_arrow_simplicial(tally: Tally, inst: CsgInstance, a: GroupoidArrow,
                           rng=None):
    """The simplicial identities on one arrow; see core.simplicial_report."""
    simplicial_report(
        tally, a, a.level, lambda i, x: face_arrow(inst, i, x),
        lambda i, x: degeneracy_arrow(inst, i, x),
        lambda x, y: arrows_equal(inst, x, y), lambda x: format_arrow(inst, x), rng)


def check_arrow_functorial(tally: Tally, inst: CsgInstance, a: GroupoidArrow,
                           fbs, rng=None):
    """d_i and s_i preserve the composite of a with the arrow that
    continues it by each fb of fbs, at every index, or at one index
    drawn from rng after the caller has drawn fbs.  a's own faces and
    degeneracies are taken once for all of fbs; each fb's are its own."""
    n = a.level
    sides = [(i, face_arrow(inst, i, a) if n >= 1 else None, degeneracy_arrow(inst, i, a))
             for i in (range(n + 1) if rng is None else [rng.randint(0, n)])]
    for fb in fbs:
        b, comp = continue_arrow(inst, a, fb)
        inputs = lambda: f"{format_arrow(inst, a)}, {format_arrow(inst, b)}"
        for i, da, sa in sides:
            if n >= 1:
                lhs = face_arrow(inst, i, comp)
                tally.check(composite_equals(inst, lhs, face_arrow(inst, i, b), da),
                            f"d_{i} is a functor", inputs)
            lhs = degeneracy_arrow(inst, i, comp)
            tally.check(composite_equals(inst, lhs, degeneracy_arrow(inst, i, b), sa),
                        f"s_{i} is a functor", inputs)


def check_arrow_action(tally: Tally, inst: CsgInstance, t: Perm, a: GroupoidArrow,
                       indices):
    """At each i of indices, d_i and s_i of the translate t.a, against
    the translate by d_i(t) or s_i(t) of the face or degeneracy at
    t^-1(i).  The translate is taken once for all of indices.  It draws
    nothing: a sampling caller passes the one index it drew after t."""
    n = a.level
    ta = n_action(t, a)
    inputs = lambda: f"{perms.format_perm(t)}, {format_arrow(inst, a)}"
    for i in indices:
        ti = t.index(i)
        if n >= 1:
            lhs = face_arrow(inst, i, ta)
            rhs = n_action(perms.face_perm(i, t), face_arrow(inst, ti, a))
            tally.check(arrows_equal(inst, lhs, rhs),
                        f"d_{i}(t.x) == d_{i}(t).d_t^-1({i})(x)", inputs)
        lhs = degeneracy_arrow(inst, i, ta)
        rhs = n_action(perms.degeneracy_perm(i, t), degeneracy_arrow(inst, ti, a))
        tally.check(arrows_equal(inst, lhs, rhs),
                    f"s_{i}(t.x) == s_{i}(t).s_t^-1({i})(x)", inputs)


@dataclasses.dataclass(frozen=True)
class NerveSimplex:
    start: Perm
    chain: tuple[CsgElement, ...]

    @property
    def dimension(self) -> int:
        return len(self.chain)

    @property
    def level(self) -> int:
        return len(self.start) - 1


def simplex_objects(inst: CsgInstance, s: NerveSimplex) -> tuple[Perm, ...]:
    """The start object followed by the targets along the chain."""
    objs = [s.start]
    for f in s.chain:
        objs.append(target(inst, arrow(objs[-1], f)))
    return tuple(objs)


def chains_equal(inst: CsgInstance, a: tuple[CsgElement, ...],
                 b: tuple[CsgElement, ...]) -> bool:
    """Whether two element chains have the same length and equal entries."""
    return len(a) == len(b) and all(inst.equal(x, y) for x, y in zip(a, b))


def orbit_equivalent(inst: CsgInstance, a: NerveSimplex, b: NerveSimplex) -> bool:
    """Whether some source translation carries a to b.  The translation
    is forced to be b.start relative to a.start, and it leaves the
    chain alone, so only the levels and the chains need comparing."""
    return a.level == b.level and chains_equal(inst, a.chain, b.chain)


def nerve_face(inst: CsgInstance, i: int, s: NerveSimplex) -> NerveSimplex:
    m = s.dimension
    if m < 1:
        raise ValueError("a 0-simplex has no faces")
    if not 0 <= i <= m:
        raise IndexError(f"face index {i} out of range in dimension {m}")
    if i == 0:
        return NerveSimplex(s.start, s.chain[:-1])
    if i == m:
        moved = target(inst, arrow(s.start, s.chain[0]))
        return NerveSimplex(moved, s.chain[1:])
    j = m - i
    combined = inst.mul(s.chain[j], s.chain[j - 1])
    return NerveSimplex(s.start, s.chain[:j - 1] + (combined,) + s.chain[j + 1:])


def nerve_degeneracy(inst: CsgInstance, i: int, s: NerveSimplex) -> NerveSimplex:
    m = s.dimension
    if not 0 <= i <= m:
        raise IndexError(f"degeneracy index {i} out of range in dimension {m}")
    j = m - i
    unit = inst.one(s.level)
    return NerveSimplex(s.start, s.chain[:j] + (unit,) + s.chain[j:])


def nerve_n_action(t: Perm, s: NerveSimplex) -> NerveSimplex:
    return NerveSimplex(perms.compose(t, s.start), s.chain)


def quotient_map(s: NerveSimplex) -> tuple[CsgElement, ...]:
    """Forget the start object; the chain comes out last arrow first."""
    return tuple(reversed(s.chain))


def opposite_nerve_face(inst: CsgInstance, i: int, t: tuple[CsgElement, ...]):
    """Bar-style face on plain tuples, multiplying adjacent entries in
    the opposite order."""
    m = len(t)
    if not 0 <= i <= m:
        raise IndexError(f"face index {i} out of range in dimension {m}")
    if i == 0:
        return t[1:]
    if i == m:
        return t[:-1]
    return t[:i - 1] + (inst.mul(t[i - 1], t[i]),) + t[i + 1:]


def opposite_nerve_degeneracy(inst: CsgInstance, i: int, t: tuple[CsgElement, ...],
                              level: int):
    m = len(t)
    if not 0 <= i <= m:
        raise IndexError(f"degeneracy index {i} out of range in dimension {m}")
    return t[:i] + (inst.one(level),) + t[i:]


def random_simplex(inst: CsgInstance, rng: random.Random, n: int, dim: int,
                   max_len: int = 12) -> NerveSimplex:
    chain = tuple(inst.random_element(rng, n, max_len) for _ in range(dim))
    return NerveSimplex(perms.random_perm(rng, n), chain)


# Serialization.

def simplex_to_json(inst: CsgInstance, s: NerveSimplex) -> dict:
    """Each arrow of the chain runs between consecutive objects."""
    objs = [perms.format_perm(p) for p in simplex_objects(inst, s)]
    return {
        "level": s.level,
        "dimension": s.dimension,
        "start": objs[0],
        "chain": [inst.format(f) for f in s.chain],
        "arrows": [{"source": src, "word": inst.format(f), "target": dst}
                   for src, f, dst in zip(objs, s.chain, objs[1:])],
        "objects": objs,
        "quotient": [inst.format(f) for f in quotient_map(s)],
    }


def skeleton_to_json(inst: CsgInstance, simplices) -> str:
    payload = []
    for s in simplices:
        entry = simplex_to_json(inst, s)
        if s.dimension >= 1:
            entry["faces"] = [
                simplex_to_json(inst, nerve_face(inst, i, s))
                for i in range(s.dimension + 1)
            ]
        entry["degeneracies"] = [
            simplex_to_json(inst, nerve_degeneracy(inst, i, s))
            for i in range(s.dimension + 1)
        ]
        payload.append(entry)
    return json.dumps(payload, sort_keys=True, indent=2)


def skeleton_to_dot(inst: CsgInstance, n: int) -> str:
    """
    DOT digraph of the full 1-skeleton at level n for the symmetric
    family: one node per permutation, one labelled edge per arrow.
    """
    if inst.name != "symm":
        raise ValueError("the full 1-skeleton is only enumerable for symm")
    if n > 2:
        raise ValueError("level > 2 skeletons are too large to draw")
    nodes = list(perms.all_perms(n))
    lines = ["digraph groupoid {"]
    for p in nodes:
        lines.append(f'  "{perms.format_perm(p)}";')
    for src in nodes:
        for dst in nodes:
            f = hom_arrow(inst, src, dst).f
            lines.append(
                f'  "{perms.format_perm(src)}" -> "{perms.format_perm(dst)}"'
                f' [label="{inst.format(f)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

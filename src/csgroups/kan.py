"""
Horn lifting along the projection onto permutations.

Every element splits uniquely as p * s with p pure (trivial underlying
permutation) and s the positive lift of the element's permutation
(decompose; the suites take pure elements from it); the pure elements
at all levels form a genuine simplicial group, because the crossed
twist in the face and degeneracy identities disappears on them.

A horn consists of a level n, a missing index k, compatible faces y_r
at level n - 1 for r != k, held as (r, y_r) pairs sorted by r, and a
base permutation the lift must project to.  Lifting splits each face
against the lifted base, fills the resulting pure horn by the classical
two-sweep degeneracy construction (moore_fill), multiplies the filler
back onto the lifted base, and checks the product: its projection and
its n faces.  Each sweep step and the final product pass through
inst.reduced: a braid word would otherwise about double at every step
while the braid it names stays small.  The fill is sound only on a
compatible horn, and on an incompatible braid horn its products grow
without limit; so the first fill stops past a letter cap that grows
with the horn.  A product that passes every check proves the horn
compatible by itself: its faces satisfy every horn equation.  Past the
cap, or on any failed check, lift_horn takes the checked path: the
horn's equations (validate_horn), then the uncapped fill, then the same
checks, whose first failure is the error.  So a convention slip is an
error rather than a wrong answer; the filler needs no check of its own,
because for pure p the r-th face of p * s is d_r(p) * d_r(s), which is
y_r exactly when d_r(p) is the r-th kernel face.  A horn file is read
by cli.read_horn; this module reads no text.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping

from . import braids, perms
from .core import CsgElement, CsgInstance
from .perms import Perm


class IncompatibleHorn(ValueError):
    pass


class FillError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class Horn:
    n: int
    k: int
    faces: tuple[tuple[int, CsgElement], ...]  # (r, y_r) for r in 0..n without k, by r
    base: Perm

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("horns need level >= 1")
        if not 0 <= self.k <= self.n:
            raise IndexError(f"missing index {self.k} out of range at level {self.n}")
        # Counted first: n comes from the input, and 0..n is walked only after.
        if len(self.faces) != self.n or any(
                r != i + (i >= self.k) for i, (r, _) in enumerate(self.faces)):
            raise ValueError(f"faces present do not match missing index {self.k}")
        if len(self.base) - 1 != self.n:
            raise ValueError("base permutation has the wrong level")
        for r, y in self.faces:
            if y.level != self.n - 1:
                raise ValueError(f"face {r} has level {y.level}, expected {self.n - 1}")

    def face_items(self):
        return self.faces


def horn_from_faces(n: int, k: int, faces: Mapping[int, CsgElement],
                    base: Perm) -> Horn:
    return Horn(n, k, tuple(sorted(faces.items())), base)


def horn_from_filler(inst: CsgInstance, g: CsgElement, k: int) -> Horn:
    """The horn obtained by forgetting the k-th face of g; always liftable."""
    n = g.level
    faces = {r: inst.face(r, g) for r in range(n + 1) if r != k}
    return horn_from_faces(n, k, faces, inst.underlying_perm(g))


def validate_horn(inst: CsgInstance, horn: Horn) -> str | None:
    """
    The first violated horn equation, or None: projection mismatches,
    then face compatibilities in pairs (n(n-1)/2 equality checks on a
    compatible level-n horn).  lift_horn runs it only when its capped
    fill fails, and then before the uncapped fill: on braid horns cut
    from 12-letter fillers with each face times two squared generators,
    the uncapped fill took 1.4 s at level 12 and 143 s at level 16,
    where the sweeps built a 1,085,944-letter product.
    """
    for r, y in horn.faces:
        if inst.underlying_perm(y) != perms.face_perm(r, horn.base):
            return f"perm(y_{r}) != d_{r}(base)"
    for a, (r, yr) in enumerate(horn.faces):
        for t, yt in horn.faces[a + 1:]:
            if not inst.equal(inst.face(r, yt), inst.face(t - 1, yr)):
                return f"d_{r}(y_{t}) != d_{t - 1}(y_{r})"
    return None


@dataclasses.dataclass(frozen=True)
class Decomposition:
    """g == mul(p, s) with p pure and s the lift of g's permutation."""

    p: CsgElement
    s: CsgElement


def decompose(inst: CsgInstance, g: CsgElement) -> Decomposition:
    s = inst.section(inst.underlying_perm(g))
    p = inst.mul(g, inst.inv(s))
    if not inst.is_pure(p):
        raise ValueError("the section does not lift the element's permutation")
    return Decomposition(p, s)


def _letters(g: CsgElement) -> int:
    """A braid word's letters; 0 for a permutation, whose size its level fixes."""
    return len(g.payload.letters) if isinstance(g.payload, braids.BraidWord) else 0


# The first fill's letter cap, per letter of the horn and per point.  On
# horns cut from fillers of at most 12 letters at levels 2-4, the
# longest product was 9.6 times the horn's letters and points.
_CAP_PER_LETTER = 16


def moore_fill(inst: CsgInstance, faces: Mapping[int, CsgElement], n: int,
               k: int, cap: float = math.inf) -> CsgElement | None:
    """
    Fill a pure horn: return a pure element whose r-th face is faces[r]
    for every r != k, or IncompatibleHorn if a face is not pure.  Two
    degeneracy sweeps (May, Simplicial Objects in Algebraic Topology,
    Thm 17.1), upward below k and then downward above it; each step
    corrects one face without disturbing those already matched, and its
    product passes through inst.reduced.  None, before the product is
    built, once a product would have more than `cap` letters.  The
    filler's faces are not re-checked here: lift_horn checks the faces
    of its product with the lifted base, which match the horn exactly
    when the filler's match the kernel faces.
    """
    for r, p in faces.items():
        if not inst.is_pure(p):
            raise IncompatibleHorn(f"face {r} is not pure")
    w = inst.one(n)
    for r, j in [(r, r) for r in range(k)] + [(r, r - 1) for r in range(n, k, -1)]:
        u = inst.inv(inst.face(r, w))
        if _letters(u) + _letters(faces[r]) > cap:
            return None
        u = inst.degeneracy(j, inst.mul(u, faces[r]))
        if _letters(w) + _letters(u) > cap:
            return None
        w = inst.reduced(inst.mul(w, u))
    return w


def _filled(inst: CsgInstance, horn: Horn, cap: float) -> CsgElement | None:
    """The filler of the horn's kernel faces times the lifted base,
    through inst.reduced; None if a product would pass `cap` letters."""
    s = inst.section(horn.base)
    kernel_faces = {r: inst.mul(y, inst.inv(inst.face(r, s))) for r, y in horn.faces}
    p = moore_fill(inst, kernel_faces, horn.n, horn.k, cap - _letters(s))
    return None if p is None else inst.reduced(inst.mul(p, s))


def _mismatch(inst: CsgInstance, horn: Horn, phi: CsgElement) -> str | None:
    """The first check of a lift that fails, or None: its projection,
    then each of its faces against the horn's."""
    if inst.underlying_perm(phi) != horn.base:
        return "lift does not project to the base"
    for r, y in horn.faces:
        if not inst.equal(inst.face(r, phi), y):
            return f"lift face {r} does not match the horn"
    return None


def lift_horn(inst: CsgInstance, horn: Horn) -> CsgElement:
    """
    An element at level n whose faces restrict to the horn and whose
    underlying permutation is the base, both checked before it returns.
    A product of the capped fill (_CAP_PER_LETTER letters per letter and
    point of the horn) that passes these n + 1 checks is returned with no
    pairwise check.  Otherwise the horn takes the checked path: an
    incompatible horn is refused with validate_horn's first violation,
    moore_fill refuses an impure kernel face, and a failed check of the
    uncapped product is a FillError, which also catches a wrong filler.
    The element is the filler times the lifted base, through
    inst.reduced: for braids, a freely reduced word.
    """
    cap = _CAP_PER_LETTER * (sum(_letters(y) for _, y in horn.faces) + horn.n + 1)
    try:
        phi = _filled(inst, horn, cap)
    except IncompatibleHorn:
        phi = None
    if phi is not None and _mismatch(inst, horn, phi) is None:
        return phi
    problem = validate_horn(inst, horn)
    if problem is not None:
        raise IncompatibleHorn(problem)
    phi = _filled(inst, horn, math.inf)
    problem = _mismatch(inst, horn, phi)
    if problem is not None:
        raise FillError(problem)
    return phi

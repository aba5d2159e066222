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
two-sweep degeneracy construction (moore_fill), and multiplies the
filler back onto the lifted base.  Its face equations are re-verified,
so a convention slip or an incompatible input is an error rather than
a wrong answer.  horn_from_json reads a `csgroups kan-lift` horn file
strictly: a malformed horn is a ValueError (IndexError for k > n or k < 0).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Mapping

from . import perms
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


def validate_horn(inst: CsgInstance, horn: Horn) -> list[str]:
    """All violated horn equations, worst first: projection mismatches,
    then face compatibilities."""
    problems = []
    for r, y in horn.faces:
        if inst.underlying_perm(y) != perms.face_perm(r, horn.base):
            problems.append(f"perm(y_{r}) != d_{r}(base)")
    for a, (r, yr) in enumerate(horn.faces):
        for t, yt in horn.faces[a + 1:]:
            if not inst.equal(inst.face(r, yt), inst.face(t - 1, yr)):
                problems.append(f"d_{r}(y_{t}) != d_{t - 1}(y_{r})")
    return problems


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


def moore_fill(inst: CsgInstance, faces: Mapping[int, CsgElement], n: int,
               k: int) -> CsgElement:
    """
    Fill a pure horn: return a pure element whose r-th face is faces[r]
    for every r != k, or IncompatibleHorn if a face is not pure.  Two
    degeneracy sweeps, upward below k and then downward above it; each
    step corrects one face without disturbing those already matched.
    The face equations are re-checked at the end; a failure is FillError.
    """
    for r, p in faces.items():
        if not inst.is_pure(p):
            raise IncompatibleHorn(f"face {r} is not pure")
        if p.level != n - 1:
            raise IncompatibleHorn(f"face {r} has level {p.level}, expected {n - 1}")
    w = inst.one(n)
    for r in range(k):
        u = inst.mul(inst.inv(inst.face(r, w)), faces[r])
        w = inst.mul(w, inst.degeneracy(r, u))
    for r in range(n, k, -1):
        u = inst.mul(inst.inv(inst.face(r, w)), faces[r])
        w = inst.mul(w, inst.degeneracy(r - 1, u))
    for r in range(n + 1):
        if r != k and not inst.equal(inst.face(r, w), faces[r]):
            raise FillError(f"filler face {r} does not match; "
                            "the input horn is not compatible")
    return w


def lift_horn(inst: CsgInstance, horn: Horn) -> CsgElement:
    """
    An element at level n whose faces restrict to the horn and whose
    underlying permutation is the base, both checked before it returns
    (FillError otherwise); moore_fill refuses an impure kernel face.
    """
    problems = validate_horn(inst, horn)
    if problems:
        raise IncompatibleHorn(problems[0])
    s = inst.section(horn.base)
    kernel_faces = {r: inst.mul(y, inst.inv(inst.face(r, s))) for r, y in horn.faces}
    p = moore_fill(inst, kernel_faces, horn.n, horn.k)
    phi = inst.mul(p, s)
    if inst.underlying_perm(phi) != horn.base:
        raise FillError("lift does not project to the base")
    for r, y in horn.faces:
        if not inst.equal(inst.face(r, phi), y):
            raise FillError(f"lift face {r} does not match the horn")
    return phi


def horn_from_json(inst: CsgInstance, data: dict) -> Horn:
    """`level` and `k` must be JSON integers and each face key the plain
    decimal text of an index; nothing is coerced.  A bad face set is
    reported before any face is parsed."""
    try:
        n, k = data["level"], data["k"]
        for field, value in (("level", n), ("k", k)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{field} must be an integer, not {type(value).__name__}")
        base = data["base"]
        if not isinstance(base, str):
            raise TypeError(f"base must be a string, not {type(base).__name__}")
        base = perms.parse_perm(base)
        raw = data["faces"]
        if not isinstance(raw, dict):
            raise TypeError("faces must be an object")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed horn description: {exc}") from None
    level_digits = len(str(n))
    faces = {}
    for key, text in raw.items():
        if not re.fullmatch(r"0|[1-9][0-9]*", key):
            raise ValueError(f"face key {perms.clip(key)!r} is not an index")
        if not isinstance(text, str):
            raise ValueError(f"face {perms.clip(key)} must be a string, "
                             f"not {type(text).__name__}")
        # A key longer than the level is out of range; int() refuses 4301 digits.
        if len(key) > level_digits:
            raise ValueError(f"face key {perms.clip(key)!r} out of range at level {n}")
        # The text stands in for the face until Horn has checked the face set.
        faces[int(key)] = CsgElement(n - 1, text)
    unparsed = horn_from_faces(n, k, faces, base)
    return dataclasses.replace(unparsed, faces=tuple(
        (r, inst.parse_at(y.payload, n - 1)) for r, y in unparsed.faces))

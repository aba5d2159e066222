"""
Braid words over n + 1 strands (level n).

A word is a sequence of letters (k, sign) with 0 <= k <= strands - 2;
the letter (k, +1) crosses the strands at positions k and k + 1 with the
strand at k passing over.  Words multiply by concatenation, and the
induced permutation is obtained by applying the letter swaps in word
order to the identity arrangement, so the projection onto permutations
is a homomorphism for compose(g, h)(x) = g(h(x)).

Reading a word top to bottom with its first letter at the top, the
induced permutation sends a bottom position to the top position of the
strand passing through it.  The face at index i deletes the strand whose
top position is i (the one the permutation pairs with bottom position
inverse(perm)[i]); the degeneracy at i doubles that strand into a
parallel cable.

Word equality is decided through the action on a free group: the letter
(k, +1) maps x_k to x_k x_{k+1} x_k^-1 and x_{k+1} to x_k, fixing the
other generators, and inverse letters act by the inverse substitution.
This action is faithful, so comparing the reduced images of all
generators decides equality.  Free-group words are stored as tuples of
signed integers, +-(i + 1) for the i-th generator, and are reduced
eagerly after every substitution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
import random
import re

from .perms import Perm, degeneracy_perm, face_perm, inverse

FreeWord = tuple[int, ...]
Letter = tuple[int, int]


@dataclasses.dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"braid needs at least one strand, got {self.strands}")
        for k, sign in self.letters:
            if not 0 <= k <= self.strands - 2:
                raise IndexError(f"generator {k} out of range for {self.strands} strands")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {sign}")

    @property
    def level(self) -> int:
        return self.strands - 1

    def __repr__(self):
        return f"BraidWord({format_letters(self)}@{self.level})"


def empty_word(level: int) -> BraidWord:
    return BraidWord(level + 1, ())


def generator(level: int, k: int, sign: int = 1) -> BraidWord:
    return BraidWord(level + 1, ((k, sign),))


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise ValueError(f"levels {a.level} and {b.level} differ")
    return BraidWord(a.strands, a.letters + b.letters)


def invert_word(b: BraidWord) -> BraidWord:
    return BraidWord(b.strands, tuple((k, -s) for k, s in reversed(b.letters)))


def underlying_perm_word(b: BraidWord) -> Perm:
    """Apply the letter swaps in word order to the identity arrangement."""
    pos = list(range(b.strands))
    for k, _ in b.letters:
        pos[k], pos[k + 1] = pos[k + 1], pos[k]
    return tuple(pos)


# Free-group plumbing.

def _reduce(letters) -> FreeWord:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def fg_invert(w: FreeWord) -> FreeWord:
    return tuple(-x for x in reversed(w))


def fg_concat(*words: FreeWord) -> FreeWord:
    merged: list[int] = []
    for w in words:
        merged.extend(w)
    return _reduce(merged)


def artin_act(b: BraidWord) -> tuple[FreeWord, ...]:
    """
    Images of the free generators x_0, ..., x_n under the word's
    substitution action, freely reduced.

    >>> artin_act(generator(1, 0))
    ((1, 2, -1), (1,))
    """
    imgs: list[FreeWord] = [(i + 1,) for i in range(b.strands)]
    for k, sign in b.letters:
        a, c = imgs[k], imgs[k + 1]
        if sign > 0:
            imgs[k], imgs[k + 1] = fg_concat(a, c, fg_invert(a)), a
        else:
            imgs[k], imgs[k + 1] = c, fg_concat(fg_invert(c), a, c)
    return tuple(imgs)


def braids_equal(a: BraidWord, b: BraidWord) -> bool:
    if a.strands != b.strands:
        raise ValueError(f"levels {a.level} and {b.level} differ")
    return artin_act(a) == artin_act(b)


def artin_fingerprint(images: tuple[FreeWord, ...]) -> str:
    """Stable hash of a word's reduced generator images (artin_act), for
    identity comparison."""
    digest = hashlib.sha256(str(images).encode("ascii")).hexdigest()
    return digest[:16]


def face_word(i: int, b: BraidWord) -> BraidWord:
    """
    Delete the strand with top position i.  The track position p walks
    the word downward; letters touching the tracked strand vanish and
    letters to its right shift down by one.
    """
    i = operator.index(i)
    n = b.level
    if n < 1:
        raise ValueError("cannot take a face at level 0")
    if not 0 <= i <= n:
        raise IndexError(f"face index {i} out of range at level {n}")
    p = i
    out: list[Letter] = []
    for k, sign in b.letters:
        if k == p:
            p = k + 1
        elif k == p - 1:
            p = k
        elif k < p:
            out.append((k, sign))
        else:
            out.append((k - 1, sign))
    return BraidWord(b.strands - 1, tuple(out))


def degeneracy_word(i: int, b: BraidWord) -> BraidWord:
    """
    Double the strand with top position i into a parallel cable.  A
    letter crossing the tracked strand becomes two letters carrying the
    neighbour across both cable strands; the cable strands never cross
    each other.
    """
    i = operator.index(i)
    n = b.level
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy index {i} out of range at level {n}")
    p = i
    out: list[Letter] = []
    for k, sign in b.letters:
        if k == p:
            out.append((p + 1, sign))
            out.append((p, sign))
            p += 1
        elif k == p - 1:
            out.append((p - 1, sign))
            out.append((p, sign))
            p -= 1
        elif k < p:
            out.append((k, sign))
        else:
            out.append((k + 1, sign))
    return BraidWord(b.strands + 1, tuple(out))


def s_left_word(b: BraidWord) -> BraidWord:
    """New trivial strand at the left end: every letter shifts by one."""
    return BraidWord(b.strands + 1, tuple((k + 1, s) for k, s in b.letters))


def s_right_word(b: BraidWord) -> BraidWord:
    """New trivial strand at the right end: letters are untouched."""
    return BraidWord(b.strands + 1, b.letters)


def permutation_braid(p: Perm) -> BraidWord:
    """
    The positive word in which exactly the inversion pairs of p cross,
    once each.  Peels the smallest available adjacent swap off the left
    of p until the identity remains; the letters come out in product
    order, so the induced permutation is p itself.

    >>> permutation_braid((2, 1, 0)).letters
    ((0, 1), (1, 1), (0, 1))
    """
    inv = list(inverse(p))
    word: list[Letter] = []
    a = 0
    while a < len(inv) - 1:
        if inv[a] > inv[a + 1]:
            word.append((a, 1))
            inv[a], inv[a + 1] = inv[a + 1], inv[a]
            a = max(a - 1, 0)
        else:
            a += 1
    return BraidWord(len(p), tuple(word))


def section_is_simplicial(p: Perm, i: int) -> bool:
    """
    Both squares relating the positive lift to faces and degeneracies:
    lifting then deleting a strand agrees with deleting the point first,
    and likewise for cabling.
    """
    n = len(p) - 1
    lifted = permutation_braid(p)
    ok = braids_equal(
        permutation_braid(degeneracy_perm(i, p)), degeneracy_word(i, lifted)
    )
    if n >= 1:
        ok = ok and braids_equal(
            permutation_braid(face_perm(i, p)), face_word(i, lifted)
        )
    return ok


def random_word(rng: random.Random, level: int, max_len: int = 12) -> BraidWord:
    """Uniform letters (index and sign) with a uniform length in [0, max_len]."""
    if level < 1:
        return empty_word(level)
    length = rng.randint(0, max_len)
    letters = tuple(
        (rng.randrange(level), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(level + 1, letters)


_TOKEN = re.compile(r"^s([0-9]+)(\^-1)?$")


def format_letters(b: BraidWord) -> str:
    """Surface syntax, 1-indexed: generator 0 prints as s1; empty word is 1."""
    if not b.letters:
        return "1"
    return " ".join(f"s{k + 1}" + ("^-1" if s < 0 else "") for k, s in b.letters)


def parse_letters(text: str, level: int) -> BraidWord:
    """
    Parse whitespace-separated tokens s<k> and s<k>^-1 (1-indexed) at
    the given level; the token 1 denotes the empty word.

    >>> parse_letters("s1 s2^-1", 2).letters
    ((0, 1), (1, -1))
    """
    tokens = text.split()
    if tokens == ["1"] or not tokens:
        return empty_word(level)
    letters: list[Letter] = []
    for tok in tokens:
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad braid token {tok!r}")
        digits = m.group(1)
        # A digit string longer than the level's cannot be in range, and
        # int() refuses one of more than 4300 digits.
        if len(digits.lstrip("0")) > len(str(level)) or not 1 <= int(digits) <= level:
            raise ValueError(f"generator {tok!r} out of range at level {level}")
        letters.append((int(digits) - 1, -1 if m.group(2) else 1))
    return BraidWord(level + 1, tuple(letters))

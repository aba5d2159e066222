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

A word is checked once, by the BraidWord constructor at the boundary;
the operations that build words from words, and random_word, whose
letters are valid by construction, build through _word, which skips
that check and fills the two slots of the word directly.  An element of
core.BRAID is its word, so this is the element's one check too.

Operadic insertion pads one word and cables a strand of another into
m + 1 parallel strands, the degeneracy at one index applied m times.
_cable_word and _pad_word, the only insertion kernels, do each in one
pass over the letters: a letter crossing the cabled strand becomes
m + 1 letters, and padding shifts every letter once.  core.CsgInstance
derives the degeneracy (_cable_word at m = 1) and the end insertions
s_left and s_right (_pad_word by one strand) from them.

Word equality is decided by the left-greedy normal form Delta^d A_1 ...
A_r (Garside, Q. J. Math. 1969; Elrifai and Morton, Q. J. Math. 1994),
whose simple factors A_i are the positive lifts of permutations
(permutation_braid) and are stored as those permutations; it starts
from the simple factors that a word's same-sign runs pack into.  Two
words with identical letters are equal at once.  Otherwise the generators
either word uses split into maximal runs of consecutive indices; the
letters of different runs commute, so the words are equal exactly when
their letters in each run are.  Each run's letters are freely reduced
as they are split, in time linear in the length; words whose generators
form one run, as most do, are reduced whole and not split.  A run whose
reduced letters are identical in both words is equal without a normal
form, and any other run's normal form is on that run's strands.  The pair
step of the normal form is kept in a table on at most 5 strands, as
perms keeps its kernels' results.  The cost is polynomial in the length
and the strand count.
canonical_value gives `eval` one value per braid, whatever generators a
word for it uses, and artin_fingerprint hashes it.

The action on a free group is the reference oracle, kept for the tests
and the benchmark; no library path calls it.  The letter (k, +1) maps
x_k to x_k x_{k+1} x_k^-1 and x_{k+1} to x_k, fixing the other
generators, and inverse letters act by the inverse substitution.  The
action is faithful, so comparing the reduced images of all generators
(artin_act) decides equality too, but the images grow exponentially
with the word's length.  Free-group words are stored as tuples of
signed integers, +-(i + 1) for the i-th generator, and are reduced
eagerly after every substitution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
import random

from .perms import Perm, clip, degeneracy_perm, face_perm, inverse

FreeWord = tuple[int, ...]
Letter = tuple[int, int]


@dataclasses.dataclass(frozen=True, slots=True)
class BraidWord:
    """A word of letters (k, sign) on `strands` strands, checked when
    built by its constructor; see the module docstring."""

    strands: int
    letters: tuple[Letter, ...]
    # An element of core.BRAID is its word: its payload is the word, and
    # it keeps no interned arrows (groupoid.arrow reads `arrows`).
    arrows = None
    payload = property(lambda self: self)

    def __post_init__(self):
        strands, letters = self.strands, self.letters
        if type(strands) is not int or strands < 1 or type(letters) is not tuple:
            raise ValueError(f"a braid word needs an int strand count of at least 1 and a "
                             f"tuple of letters, got {clip(repr(strands))} and a "
                             f"{type(letters).__name__}")
        for letter in letters:
            if not (type(letter) is tuple and len(letter) == 2
                    and type(letter[0]) is type(letter[1]) is int and letter[1] in (1, -1)):
                raise ValueError(f"a letter is a pair (int, 1 or -1), got {clip(repr(letter))}")
            if not 0 <= letter[0] <= strands - 2:
                raise IndexError(f"generator {letter[0]} out of range for {strands} strands")

    @property
    def level(self) -> int:
        return self.strands - 1

    def __repr__(self):
        return f"BraidWord({format_letters(self)}@{self.level})"


# _word fills the slots through their descriptors, past the frozen
# __setattr__.
_new_word = object.__new__
_set_strands = BraidWord.strands.__set__
_set_letters = BraidWord.letters.__set__


def _word(strands: int, letters: tuple[Letter, ...]) -> BraidWord:
    """The word, unchecked: for letters that are valid by construction."""
    w = _new_word(BraidWord)
    _set_strands(w, strands)
    _set_letters(w, letters)
    return w


def empty_word(level: int) -> BraidWord:
    return BraidWord(level + 1, ())


def generator(level: int, k: int, sign: int = 1) -> BraidWord:
    return BraidWord(level + 1, ((k, sign),))


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise ValueError(f"levels {a.level} and {b.level} differ")
    return _word(a.strands, a.letters + b.letters)


def invert_word(b: BraidWord) -> BraidWord:
    return _word(b.strands, tuple((k, -s) for k, s in reversed(b.letters)))


def reduced_word(b: BraidWord) -> BraidWord:
    """
    The same braid with every adjacent cancelling pair (k, s)(k, -s)
    removed, repeatedly, in one linear pass: the free reduction of the
    word.  Faces and degeneracies map a cancelling pair to cancelling
    pairs or to nothing, so they commute with it up to a second
    reduction.
    """
    return _word(b.strands, tuple(_free_reduce(b.letters)))


def _free_reduce(letters, lo: int = 0) -> list[Letter]:
    out: list[Letter] = []
    last = (-1, 0)  # the last letter of out; (-1, 0) cancels no letter
    for letter in letters:
        if last[0] == letter[0] and last[1] != letter[1]:
            out.pop()
            last = out[-1] if out else (-1, 0)
        else:
            out.append(letter)
            last = letter
    return [(k - lo, sign) for k, sign in out] if lo else out


def underlying_perm_word(b: BraidWord) -> Perm:
    """Apply the letter swaps in word order to the identity arrangement."""
    pos = list(range(b.strands))
    for k, _ in b.letters:
        pos[k], pos[k + 1] = pos[k + 1], pos[k]
    return tuple(pos)


# The reference oracle: the action on a free group.  It decides
# equality too, but its reduced images grow exponentially with the
# word's length, so no library path calls it; the tests and the
# benchmark check the normal form below against it.

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
    substitution action, freely reduced: the reference oracle for
    equality, which no library path calls.

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


# The left-greedy normal form.  A simple factor is stored as the
# permutation of its positive lift (permutation_braid); Delta is the
# reversal w0, and tau(p) = w0 p w0 is conjugation by Delta.

# The results of the pair step on at most _PAIR_STRANDS strands, keyed
# by the pair and filled on first use, as perms keeps its kernels'
# results: 81-83% of a braid pass's pair steps are on at most 5 strands,
# and their pairs of simple factors bound the table (15,017 entries).
_PAIR_STRANDS = 5
_PAIRS: dict[tuple[Perm, Perm], tuple[Perm, Perm]] = {}


def _left_weight_body(a: Perm, b: Perm) -> tuple[Perm, Perm]:
    """Make the pair a.b left-weighted: while some s_k starts b (a left
    descent of b) and does not finish a (not a right descent of a),
    move it from the front of b to the back of a.  A move changes the
    descents at k - 1, k and k + 1 only, so the scan resumes at k - 1."""
    a, b = list(a), list(b)
    b_inv = [0] * len(b)
    for i, v in enumerate(b):
        b_inv[v] = i
    k = 0
    while k < len(a) - 1:
        if b_inv[k] > b_inv[k + 1] and a[k] < a[k + 1]:
            a[k], a[k + 1] = a[k + 1], a[k]
            i, j = b_inv[k], b_inv[k + 1]
            b[i], b[j] = k + 1, k
            b_inv[k], b_inv[k + 1] = j, i
            k = max(k - 1, 0)
        else:
            k += 1
    return tuple(a), tuple(b)


def _left_weight(a: Perm, b: Perm) -> tuple[Perm, Perm]:
    if len(a) > _PAIR_STRANDS:
        return _left_weight_body(a, b)
    pair = _PAIRS.get((a, b))
    if pair is None:
        pair = _PAIRS[a, b] = _left_weight_body(a, b)
    return pair


def _push(factors: list[Perm], f: Perm, one: Perm):
    """Append the simple factor f to a left-weighted list and sweep left
    until a pair is left as it was; identities (`one`) left at the end
    go."""
    factors.append(f)
    i = len(factors) - 1
    while i:
        a, b = _left_weight(factors[i - 1], factors[i])
        if a == factors[i - 1]:
            break
        factors[i - 1], factors[i] = a, b
        i -= 1
    while factors and factors[-1] == one:
        factors.pop()


def _tau(p: Perm) -> Perm:
    top = len(p) - 1
    return tuple(top - v for v in reversed(p))


def _run_form(letters, strands: int) -> tuple[int, list[Perm]]:
    """
    The normal form Delta^d A_1 ... A_r of a word on `strands` strands,
    as (d, [A_1, ..., A_r]) with no A_i equal to Delta or the identity.
    Letters pack into simple factors as they are read: an open factor
    takes the next letter while it has the factor's sign and leaves it
    simple, and is pushed otherwise.  A positive factor starts from the
    identity and grows while f[k] < f[k + 1]; s_a^-1 ... s_z^-1 is
    Delta^-1 (w0 s_a ... s_z), so a negative factor starts from Delta
    and shrinks while f[k] > f[k + 1].  Each Delta^-1 passes to the left
    of the factors already built, conjugating them by tau; a parity bit
    records that, and the factors are stored under it (letter k is
    stored as letter top - k while the bit is set) and conjugated once
    at the end.
    """
    top = strands - 2
    one = tuple(range(strands))
    delta = one[::-1]
    d, flipped = 0, False
    factors: list[Perm] = []
    f, open_sign = [], 0
    for k, sign in letters:
        if flipped:
            k = top - k
        if sign != open_sign or (f[k] < f[k + 1]) != (sign > 0):
            if f:
                _push(factors, tuple(f), one)
            open_sign, f = sign, list(one if sign > 0 else delta)
            if sign < 0:
                d, flipped, k = d - 1, not flipped, top - k
        f[k], f[k + 1] = f[k + 1], f[k]
    if f:
        _push(factors, tuple(f), one)
    lead = 0
    while lead < len(factors) and factors[lead] == delta:
        lead += 1
    factors = factors[lead:]
    if flipped:
        factors = [_tau(f) for f in factors]
    return d + lead, factors


def _run_words(*words):
    """
    Split words by the maximal runs of consecutive generators that any
    of them uses.  Letters in different runs commute, and the subgroup
    the runs generate is their direct product, so words are equal
    exactly when their letters in each run are.  Yields (lo, strands,
    subwords): a run's letters renumbered from its lowest generator lo,
    on strands = its generator count + 1, and freely reduced: a letter
    that is the inverse of its subword's last letter removes that letter
    instead of being appended, so cancelling pairs go even when letters
    of other runs stood between them.  A single run takes no lookups.
    """
    gens = {k for w in words for k, _ in w}
    lo = min(gens, default=0)
    if gens and len(gens) == max(gens) - lo + 1:
        yield lo, len(gens) + 1, [_free_reduce(w, lo) for w in words]
        return
    runs: list[list] = []
    where = {}
    for k in sorted(gens):
        if not runs or runs[-1][1] != k - 1:
            runs.append([k, k, tuple([] for _ in words)])
        runs[-1][1] = k
        where[k] = runs[-1]
    for j, w in enumerate(words):
        for k, sign in w:
            run = where[k]
            subword = run[2][j]
            if subword and subword[-1] == (k - run[0], -sign):
                subword.pop()
            else:
                subword.append((k - run[0], sign))
    for lo, hi, subwords in runs:
        yield lo, hi - lo + 2, subwords


def braids_equal(a: BraidWord, b: BraidWord) -> bool:
    """Identical letters are equal; otherwise the runs of generators
    decide one at a time, identical freely reduced runs at once and the
    others by their normal forms."""
    if a.strands != b.strands:
        raise ValueError(f"levels {a.level} and {b.level} differ")
    if a.letters == b.letters:
        return True
    for _, strands, (u, v) in _run_words(a.letters, b.letters):
        if u != v and _run_form(u, strands) != _run_form(v, strands):
            return False
    return True


def _left_fraction(d: int, factors: list[Perm], strands: int):
    """
    The normal form Delta^d A_1 ... A_r as x^-1 y with x and y positive
    and no common left divisor, each as its list of simple factors.
    For d = -k < 0, with m = min(k, r) and dA = A^-1 Delta:
    y = A_k+1 ... A_r and x = dA_m tau(dA_m-1) ... tau^m-1(dA_1) Delta^k-m,
    normalised with Delta^k-m moved to the front.
    """
    one = tuple(range(strands))
    delta = one[::-1]
    if d >= 0:
        return [], [delta] * d + factors
    k = -d
    m = min(k, len(factors))
    x: list[Perm] = []
    for j in range(m):
        f = tuple(reversed(inverse(factors[m - 1 - j])))
        _push(x, _tau(f) if (j + k - m) % 2 else f, one)
    return [delta] * (k - m) + x, factors[k:]


def canonical_value(b: BraidWord):
    """
    A value that two words share exactly when they are the same braid:
    (strands, x, y) for the braid x^-1 y with x and y positive and
    without common left divisor, each in left-greedy normal form.  Each
    simple factor is the tuple of the (point, image) pairs it moves;
    the factors of the runs are merged position by position, so the
    value does not depend on the generators a word happens to use.
    """
    xs, ys = [], []
    for lo, strands, (letters,) in _run_words(b.letters):
        x, y = _left_fraction(*_run_form(letters, strands), strands)
        xs.append((lo, x))
        ys.append((lo, y))
    return b.strands, _merge(xs), _merge(ys)


def _merge(parts):
    merged: list[list] = []
    for lo, factors in parts:
        for i, f in enumerate(factors):
            if i == len(merged):
                merged.append([])
            merged[i] += [(lo + p, lo + v) for p, v in enumerate(f) if p != v]
    return tuple(map(tuple, merged))


def artin_fingerprint(value) -> str:
    """Stable 16-digit hash of a canonical value of a braid, for identity
    comparison: `canonical_value(b)`, or the reduced images
    `artin_act(b)`."""
    digest = hashlib.sha256(str(value).encode("ascii")).hexdigest()
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
    return _word(b.strands - 1, tuple(out))


def _cable_word(i: int, m: int, b: BraidWord) -> BraidWord:
    """
    Cable the strand with top position i into m + 1 >= 2 parallel
    strands: the degeneracy at i applied m times, in one pass, and at
    m = 1 the degeneracy itself.  A letter crossing the tracked strand
    becomes m + 1 letters carrying the neighbour across the whole cable;
    the cable strands never cross each other, and letters to its right
    shift up by m.
    """
    i = operator.index(i)
    n = b.level
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy index {i} out of range at level {n}")
    p = i
    out: list[Letter] = []
    for k, sign in b.letters:
        if k == p:
            for j in range(p + m, p - 1, -1):
                out.append((j, sign))
            p += 1
        elif k == p - 1:
            for j in range(k, p + m):
                out.append((j, sign))
            p = k
        elif k < p:
            out.append((k, sign))
        else:
            out.append((k + m, sign))
    return _word(b.strands + m, tuple(out))


def _pad_word(b: BraidWord, left: int, right: int) -> BraidWord:
    """New trivial strands, `left` >= 0 at the left end and `right` >= 0
    at the right end: every letter shifts by `left`, once."""
    letters = tuple([(k + left, s) for k, s in b.letters]) if left else b.letters
    return _word(b.strands + left + right, letters)


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
        permutation_braid(degeneracy_perm(i, p)), _cable_word(i, 1, lifted)
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
    return _word(level + 1, letters)


def format_letters(b: BraidWord) -> str:
    """Surface syntax, 1-indexed: generator 0 prints as s1; empty word is 1."""
    if not b.letters:
        return "1"
    return " ".join(f"s{k + 1}" + ("^-1" if s < 0 else "") for k, s in b.letters)

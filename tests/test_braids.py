"""Braid words: the free-group action oracle, strand surgery, the
positive permutation lift, and the normal form that decides equality,
against the free-group action and the Burau representation."""

import itertools
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from csgroups import BRAID, braids, cli, perms
from csgroups.braids import BraidWord, empty_word, generator
import runs
from words import face, word


@st.composite
def braid_word_st(draw, max_level=4, max_len=10):
    n = draw(st.integers(min_value=1, max_value=max_level))
    letters = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=n - 1),
                  st.sampled_from((1, -1))),
        max_size=max_len))
    return BraidWord(n + 1, tuple(letters))


def inversion_pairs(p):
    return sum(1 for a, b in itertools.combinations(range(len(p)), 2)
               if p[a] > p[b])


def substitute(images, word):
    """Apply the substitution given by `images` to a free word; the
    independent route for checking that the action composes."""
    out = []
    for x in word:
        img = images[abs(x) - 1]
        out.extend(img if x > 0 else braids.fg_invert(img))
    return braids.fg_concat(tuple(out))


def test_artin_frozen_values():
    g0 = generator(1, 0)
    assert braids.artin_act(g0) == ((1, 2, -1), (1,))
    assert braids.artin_act(empty_word(2)) == ((1,), (2,), (3,))
    both = braids.concat(g0, braids.invert_word(g0))
    assert braids.artin_act(both) == ((1,), (2,))


@given(braid_word_st(), braid_word_st())
@settings(max_examples=60)
def test_artin_action_composes(u, v):
    n = max(u.level, v.level)
    u = BraidWord(n + 1, u.letters)
    v = BraidWord(n + 1, v.letters)
    composite = braids.artin_act(braids.concat(u, v))
    iu = braids.artin_act(u)
    iv = braids.artin_act(v)
    assert composite == tuple(substitute(iu, w) for w in iv)


def test_word_problem_sanity():
    rel1 = BraidWord(3, ((0, 1), (1, 1), (0, 1)))
    rel2 = BraidWord(3, ((1, 1), (0, 1), (1, 1)))
    assert braids.braids_equal(rel1, rel2)
    far1 = BraidWord(4, ((0, 1), (2, 1)))
    far2 = BraidWord(4, ((2, 1), (0, 1)))
    assert braids.braids_equal(far1, far2)
    g0 = generator(1, 0)
    assert not braids.braids_equal(g0, braids.invert_word(g0))
    ab = BraidWord(3, ((0, 1), (1, 1)))
    ba = BraidWord(3, ((1, 1), (0, 1)))
    assert not braids.braids_equal(ab, ba)


def test_underlying_perm_homomorphism():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(1, 4)
        u = braids.random_word(rng, n, 8)
        v = braids.random_word(rng, n, 8)
        assert braids.underlying_perm_word(braids.concat(u, v)) == perms.compose(
            braids.underlying_perm_word(u), braids.underlying_perm_word(v))


def test_underlying_perm_regression():
    assert braids.underlying_perm_word(BraidWord(3, ((0, 1), (1, 1)))) == (1, 2, 0)
    assert braids.underlying_perm_word(generator(1, 0)) == (1, 0)


def test_face_frozen_values():
    b = BraidWord(3, ((0, 1), (1, 1)))
    f = braids.face_word(2, b)
    assert f.strands == 2 and f.letters == ((0, 1),)
    assert braids.face_word(0, generator(1, 0)).letters == ()
    for i in range(3):
        assert braids.face_word(i, empty_word(2)).letters == ()


def test_face_degeneracy_projection_squares():
    """The strand kernels project onto the permutation kernels: a face
    onto face_perm, cabling at m onto degeneracy_perm applied m times,
    and padding by one strand onto s_left_perm and s_right_perm."""
    rng = random.Random(1)
    for _ in range(150):
        n = rng.randint(1, 4)
        b = braids.random_word(rng, n, 10)
        p = braids.underlying_perm_word(b)
        for i in range(n + 1):
            assert braids.underlying_perm_word(braids.face_word(i, b)) == \
                perms.face_perm(i, p)
            q = p
            for m in range(1, 4):
                q = perms.degeneracy_perm(i, q)
                assert braids.underlying_perm_word(braids._cable_word(i, m, b)) == q
        assert braids.underlying_perm_word(braids._pad_word(b, 1, 0)) == perms.s_left_perm(p)
        assert braids.underlying_perm_word(braids._pad_word(b, 0, 1)) == perms.s_right_perm(p)


def test_degeneracy_frozen_value():
    d = braids._cable_word(0, 1, generator(1, 0))
    assert d.letters == ((1, 1), (0, 1))
    assert braids.underlying_perm_word(d) == (2, 0, 1)
    assert braids._cable_word(1, 1, empty_word(1)).letters == ()


def test_end_insertions():
    g0 = generator(1, 0)
    assert braids._pad_word(g0, 0, 1).letters == ((0, 1),)
    assert braids._pad_word(g0, 0, 1).strands == 3
    assert braids._pad_word(g0, 1, 0).letters == ((1, 1),)
    assert braids._pad_word(empty_word(1), 1, 0).letters == ()


def test_permutation_braid_properties():
    assert braids.permutation_braid(perms.identity(2)).letters == ()
    assert braids.permutation_braid((1, 0)).letters == ((0, 1),)
    assert braids.permutation_braid((2, 1, 0)).letters == ((0, 1), (1, 1), (0, 1))
    for n in range(5):
        for p in perms.all_perms(n):
            b = braids.permutation_braid(p)
            assert all(s == 1 for _, s in b.letters)
            assert len(b.letters) == inversion_pairs(p)
            assert braids.underlying_perm_word(b) == p


def test_section_squares_random():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.choice((4, 5))
        p = perms.random_perm(rng, n)
        i = rng.randint(0, n)
        assert braids.section_is_simplicial(p, i)


@given(braid_word_st(max_level=3, max_len=8), braid_word_st(max_level=3, max_len=8))
@settings(max_examples=40)
def test_equality_is_congruence(u, v):
    n = max(u.level, v.level)
    u = BraidWord(n + 1, u.letters)
    v = BraidWord(n + 1, v.letters)
    slack = braids.concat(u, braids.concat(v, braids.invert_word(v)))
    assert braids.braids_equal(slack, u)
    for i in range(n + 1):
        assert braids.braids_equal(braids.face_word(i, slack), braids.face_word(i, u))
        assert braids.braids_equal(braids._cable_word(i, 1, slack),
                                   braids._cable_word(i, 1, u))
    assert braids.braids_equal(braids._pad_word(slack, 1, 0), braids._pad_word(u, 1, 0))
    assert braids.braids_equal(braids._pad_word(slack, 0, 1), braids._pad_word(u, 0, 1))


def test_fingerprint_tracks_equality():
    rel1 = BraidWord(3, ((0, 1), (1, 1), (0, 1)))
    rel2 = BraidWord(3, ((1, 1), (0, 1), (1, 1)))
    assert braids.artin_fingerprint(braids.artin_act(rel1)) == \
        braids.artin_fingerprint(braids.artin_act(rel2))
    assert braids.artin_fingerprint(braids.artin_act(generator(1, 0))) != \
        braids.artin_fingerprint(braids.artin_act(empty_word(1)))


def test_parse_format():
    """Braid literals are read by cli alone, the same as an eval literal
    at `@level` and as a kan-lift face at that level, and print back
    through format_letters."""
    for text, level, letters in [("s1 s2^-1", 2, ((0, 1), (1, -1))), ("1", 3, ()),
                                 ("s01", 1, ((0, 1),))]:
        _, g = cli._ExprParser(f"{text}@{level}").parse()
        assert g.level == level and g.payload.letters == letters
        assert face(BRAID, text, level) == g
    assert braids.format_letters(word("s1 s2^-1", 2)) == "s1 s2^-1"
    assert braids.format_letters(empty_word(3)) == "1"
    for text in ("s3", "x1"):
        with pytest.raises(ValueError):
            cli._ExprParser(f"{text}@2").parse()
        with pytest.raises(ValueError):
            face(BRAID, text, 2)


@pytest.mark.parametrize("text", ["s\u0661", "s\U0001d7cf", "s+1", "s1_0"])
def test_parse_letters_reads_only_ascii_digits(text):
    """A generator number is ASCII digits, in eval and in a horn face."""
    with pytest.raises(ValueError, match="unexpected character"):
        cli._ExprParser(f"{text}@1").parse()
    with pytest.raises(ValueError, match="unexpected character"):
        face(BRAID, text, 1)


def test_validation():
    with pytest.raises(IndexError):
        BraidWord(2, ((1, 1),))
    with pytest.raises(ValueError):
        BraidWord(2, ((0, 2),))
    with pytest.raises(ValueError):
        braids.face_word(0, empty_word(0))


@pytest.mark.parametrize("strands, letters, error", [
    (3, ((0.5, 1),), ValueError),
    (2.0, (), ValueError),
    (True, (), ValueError),
    (0, (), ValueError),
    (3, [(0, 1)], ValueError),
    (3, ([0, 1],), ValueError),
    (3, ((0,),), ValueError),
    (3, ((0, 1, 1),), ValueError),
    (3, ((True, 1),), ValueError),
    (3, ((0, True),), ValueError),
    (3, ((0, 1.0),), ValueError),
    (3, ((0, -1.0),), ValueError),
    (3, ((0, 2),), ValueError),
    (3, ((2, 1),), IndexError),
    (3, ((-1, 1),), IndexError),
])
def test_constructor_accepts_only_words(strands, letters, error):
    """The one check a word gets: an int strand count of at least one,
    a tuple of (int, int) letters, and signs that are the int 1 or -1;
    an index out of range is an IndexError, anything else a
    ValueError."""
    with pytest.raises(error) as caught:
        BraidWord(strands, letters)
    assert caught.type is error


@st.composite
def built_words_st(draw, max_level=5, max_len=12):
    """Two words at one level (0 to max_level) and an index in range."""
    n = draw(st.integers(min_value=0, max_value=max_level))
    letter = st.tuples(st.integers(min_value=0, max_value=max(n - 1, 0)),
                       st.sampled_from((1, -1)))
    u, v = (BraidWord(n + 1, tuple(draw(st.lists(letter, max_size=max_len if n else 0))))
            for _ in range(2))
    return u, v, draw(st.integers(min_value=0, max_value=n))


@given(built_words_st())
@settings(max_examples=200)
def test_builders_return_words_the_constructor_accepts(words):
    """The builders skip the constructor's check; what they build from
    checked words must pass it and equal the checked copy."""
    u, v, i = words
    built = [braids.concat(u, v), braids.invert_word(u), braids._pad_word(u, 1, 0),
             braids._pad_word(u, 0, 1), braids._cable_word(i, 1, u)]
    if u.level:
        built.append(braids.face_word(i, u))
    for w in built:
        checked = BraidWord(w.strands, w.letters)
        assert checked == w and hash(checked) == hash(w)
        assert repr(checked) == repr(w)


# The normal form against independent oracles.

def relator(k):
    """s_k s_k+1 s_k (s_k+1 s_k s_k+1)^-1, a word for the identity."""
    return [(k, 1), (k + 1, 1), (k, 1), (k + 1, -1), (k, -1), (k + 1, -1)]


@st.composite
def word_pair_st(draw, max_strands=6, max_len=12):
    """Two words on 2-6 strands: a random word and either another random
    word or a rewrite of it that may change its generator span (a
    cancelling pair at any index, a braid relation, a far commutation)."""
    n = draw(st.integers(min_value=1, max_value=max_strands - 1))
    letter = st.tuples(st.integers(min_value=0, max_value=n - 1), st.sampled_from((1, -1)))
    u = draw(st.lists(letter, max_size=max_len))
    kind = draw(st.sampled_from(("other", "cancel", "relation", "commute")))
    if kind == "other":
        return BraidWord(n + 1, tuple(u)), BraidWord(n + 1, tuple(draw(st.lists(
            letter, max_size=max_len))))
    v = list(u)
    at = draw(st.integers(min_value=0, max_value=len(v)))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    sign = draw(st.sampled_from((1, -1)))
    if kind == "relation" and n >= 2:
        v[at:at] = relator(min(k, n - 2))
    elif kind == "commute" and n >= 3:
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(i + 2, n)]))
        v[at:at] = [(i, sign), (j, 1), (i, -sign), (j, -1)]
    else:
        v[at:at] = [(k, sign), (k, -sign)]
    return BraidWord(n + 1, tuple(u)), BraidWord(n + 1, tuple(v))


@given(word_pair_st())
@settings(max_examples=300)
def test_normal_form_agrees_with_the_free_group_action(pair):
    u, v = pair
    expected = braids.artin_act(u) == braids.artin_act(v)
    assert braids.braids_equal(u, v) == expected
    assert (braids.canonical_value(u) == braids.canonical_value(v)) == expected


@st.composite
def padded_pair_st(draw, max_strands=6, max_len=12):
    """A word and a copy with one or two pairs s_k^e ... s_k^-e put in
    anywhere, around up to three of its letters, which may belong to
    other runs of generators or to the pair's own; at most max_len
    letters each."""
    n = draw(st.integers(min_value=1, max_value=max_strands - 1))
    letter = st.tuples(st.integers(min_value=0, max_value=n - 1), st.sampled_from((1, -1)))
    u = draw(st.lists(letter, max_size=max_len - 4))
    v = list(u)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        k, sign = draw(letter)
        at = draw(st.integers(min_value=0, max_value=len(v)))
        around = draw(st.integers(min_value=0, max_value=min(3, len(v) - at)))
        v[at:at + around] = [(k, sign), *v[at:at + around], (k, -sign)]
    return BraidWord(n + 1, tuple(u)), BraidWord(n + 1, tuple(v))


@given(padded_pair_st())
@settings(max_examples=300)
def test_free_reduction_agrees_with_the_free_group_action(pair):
    u, v = pair
    expected = braids.artin_act(u) == braids.artin_act(v)
    assert braids.braids_equal(u, v) == expected
    assert (braids.canonical_value(u) == braids.canonical_value(v)) == expected


@st.composite
def cancelling_word_st(draw, max_strands=7, max_len=16):
    """A word on 1 to max_strands strands with up to four pairs
    s_k^e s_k^-e put in anywhere, around up to two of its letters, so
    that nested and chained pairs are common; at most max_len letters."""
    strands = draw(st.integers(min_value=1, max_value=max_strands))
    if strands == 1:
        return BraidWord(1, ())
    letter = st.tuples(st.integers(min_value=0, max_value=strands - 2),
                       st.sampled_from((1, -1)))
    letters = draw(st.lists(letter, max_size=max_len - 8))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        k, sign = draw(letter)
        at = draw(st.integers(min_value=0, max_value=len(letters)))
        around = draw(st.integers(min_value=0, max_value=min(2, len(letters) - at)))
        letters[at:at + around] = [(k, sign), *letters[at:at + around], (k, -sign)]
    return BraidWord(strands, tuple(letters))


@given(cancelling_word_st())
@settings(max_examples=300)
def test_reduced_word_is_the_free_reduction(w):
    """reduced_word keeps the braid, leaves no adjacent cancelling pair
    and is idempotent; and faces and degeneracies commute with it up to
    a second reduction, which is what lets the horn filler's face checks
    end on identical reduced runs."""
    r = braids.reduced_word(w)
    assert BraidWord(r.strands, r.letters) == r
    assert braids.artin_act(r) == braids.artin_act(w)
    assert braids.reduced_word(r) == r
    assert all(a != (b[0], -b[1]) for a, b in zip(r.letters, r.letters[1:]))

    def degeneracy(i, b):
        return braids._cable_word(i, 1, b)

    for i in range(w.strands):
        ops = (braids.face_word, degeneracy) if w.level else (degeneracy,)
        for op in ops:
            assert braids.reduced_word(op(i, r)) == braids.reduced_word(op(i, w))


def reduced_word(draw, p):
    """A positive word in which exactly the inversion pairs of p cross,
    peeling a drawn adjacent swap off the left of p each time; any two
    such words are equal by braid relations alone."""
    inv = list(perms.inverse(p))
    word = []
    while True:
        swaps = [a for a in range(len(inv) - 1) if inv[a] > inv[a + 1]]
        if not swaps:
            return word
        a = draw(st.sampled_from(swaps))
        word.append((a, 1))
        inv[a], inv[a + 1] = inv[a + 1], inv[a]


def run_blocks(draw, strands, max_len):
    """Blocks (p, sign, letters) of long same-sign runs: lifts of
    permutations p, and degeneracy images of positive words (p is
    None), each inverted when its sign is -1, as many as fit in max_len
    letters."""
    blocks, total = [], 0
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        sign = draw(st.sampled_from((1, -1)))
        if strands > 2 and draw(st.booleans()):
            short = draw(st.lists(st.integers(min_value=0, max_value=strands - 3),
                                  min_size=1, max_size=3))
            i = draw(st.integers(min_value=0, max_value=strands - 2))
            p, letters = None, braids._cable_word(i, 1, BraidWord(strands - 1, tuple(
                (k, 1) for k in short))).letters
        else:
            p = tuple(draw(st.permutations(range(strands))))
            letters = braids.permutation_braid(p).letters
        if total + len(letters) <= max_len:
            blocks.append((p, sign, list(letters)))
            total += len(letters)
    return blocks


def blocks_word(strands, blocks):
    letters = []
    for _, sign, block in blocks:
        letters += block if sign > 0 else [(k, -1) for k, _ in reversed(block)]
    return BraidWord(strands, tuple(letters))


@st.composite
def run_pair_st(draw, max_strands=6, max_len=12):
    """Two words made of run_blocks on 2 to max_strands strands.  The
    second is drawn the same way, or is the first with each lift
    written as another reduced word of its permutation."""
    strands = draw(st.integers(min_value=2, max_value=max_strands))
    blocks = run_blocks(draw, strands, max_len)
    if draw(st.booleans()):
        other = [(p, sign, reduced_word(draw, p) if p is not None else letters)
                 for p, sign, letters in blocks]
    else:
        other = run_blocks(draw, strands, max_len)
    return blocks_word(strands, blocks), blocks_word(strands, other)


@given(run_pair_st())
@settings(max_examples=300)
def test_packed_factors_agree_with_the_free_group_action(pair):
    """The normal form packs each same-sign run into as few simple
    factors as it can; on words made of such runs it must still agree
    with the oracle."""
    u, v = pair
    expected = braids.artin_act(u) == braids.artin_act(v)
    assert braids.braids_equal(u, v) == expected
    assert (braids.canonical_value(u) == braids.canonical_value(v)) == expected


def test_the_pair_table_keeps_five_strands_not_six(monkeypatch):
    """braids._PAIRS has a strand bound of its own, whatever perms
    keeps: it keeps a pair step on 5 strands and not one on 6."""
    monkeypatch.setattr(braids, "_PAIRS", {})
    a5, b5 = (1, 0, 2, 4, 3), (0, 2, 1, 3, 4)
    a6, b6 = a5 + (5,), b5 + (5,)
    for a, b in ((a5, b5), (a6, b6)):
        assert braids._left_weight(a, b) == braids._left_weight_body(a, b)
    assert list(braids._PAIRS) == [(a5, b5)]


def test_a_permutation_lift_is_one_factor(monkeypatch):
    """The letters of permutation_braid(p) pack into the one simple
    factor p, and those of its inverse into Delta^-1 (w0 p^-1), with no
    pair step."""
    def refuse(a, b):
        raise AssertionError("pair step taken")
    monkeypatch.setattr(braids, "_left_weight", refuse)
    rng = random.Random(4)
    lifts = [p for n in range(6) for p in perms.all_perms(n)]
    lifts += [perms.random_perm(rng, n) for n in range(6, 12) for _ in range(20)]
    for p in lifts:
        strands = len(p)
        one, delta = tuple(range(strands)), tuple(reversed(range(strands)))
        b = braids.permutation_braid(p)
        d, factors = braids._run_form(b.letters, strands)
        assert (d, factors) == ((1, []) if p == delta and strands > 1 else
                                (0, [] if p == one else [p]))
        rest = perms.compose(delta, perms.inverse(p))
        d, factors = braids._run_form(braids.invert_word(b).letters, strands)
        assert (d, factors) == ((0, []) if p == one else
                                (-1, [] if rest == one else [rest]))


def test_canonical_value_tracks_equality():
    """One value per braid, whichever generators a word for it uses."""
    same = [("s1 s2 s2^-1", "s1"), ("1", "s2 s2^-1"),
            ("s1 s2 s1 s3 s3^-1", "s2 s1 s2"), ("s3^-1 s1", "s1 s3^-1"),
            ("s1^-1 s2 s2^-1", "s1^-1"), ("s2^-1 s1^-1 s2", "s1 s2^-1 s1^-1")]
    for left, right in same:
        a, b = word(left, 3), word(right, 3)
        assert braids.braids_equal(a, b)
        assert braids.canonical_value(a) == braids.canonical_value(b)
        assert braids.artin_fingerprint(braids.canonical_value(a)) == \
            braids.artin_fingerprint(braids.canonical_value(b))
    _, x, y = braids.canonical_value(word("s2 s2^-1", 3))
    assert x == y == ()
    rng = random.Random(11)
    agreed = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(1, 5)
        a = braids.random_word(rng, n, 8)
        letters = list(a.letters)
        at = rng.randint(0, len(letters))
        if rng.random() < 0.5:
            k = rng.randrange(n)
            letters[at:at] = [(k, -1), (k, 1)]
        else:
            letters = list(braids.random_word(rng, n, 8).letters)
        b = BraidWord(n + 1, tuple(letters))
        equal = braids.braids_equal(a, b)
        assert (braids.canonical_value(a) == braids.canonical_value(b)) == equal
        agreed[equal] += 1
    assert min(agreed.values()) > 100



def _split(words):
    return [(lo, strands, [list(u) for u in subwords]) for lo, strands, subwords in words]


def _run_letters(rng, n, gens, length):
    return [(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)]


def test_the_run_split_matches_the_reference():
    """On 2 to 8 strands, words over all the generators (one run from
    0), over a drawn subset of them (one run from above 0, or several),
    or over none; the second word of a pair is drawn the same way, or is
    the first with a cancelling pair, a braid relation or a far
    commutation put in.  The split, the canonical value and equality
    are those of the one-loop reference in tests/runs.py, and equality
    is the free-group action's."""
    rng = random.Random(31)
    shapes = {"none": 0, "one run from 0": 0, "one run above 0": 0, "several runs": 0}
    agreed = {True: 0, False: 0}
    for _ in range(1000):
        n = rng.randint(1, 7)
        words = []
        for _ in range(2):
            gens = (list(range(n)) if rng.random() < 0.4
                    else rng.sample(range(n), rng.randint(1, n)))
            words.append(_run_letters(rng, n, gens, rng.randint(0, 12)))
        u, v = words
        if rng.random() < 0.5:
            v, at, k = list(u), rng.randint(0, len(u)), rng.randrange(n)
            kind = rng.choice(("cancel", "relation", "commute"))
            if kind == "relation" and n >= 2:
                v[at:at] = relator(min(k, n - 2))
            elif kind == "commute" and k + 2 < n:
                v[at:at] = [(k, 1), (k + 2, -1), (k, -1), (k + 2, 1)]
            else:
                v[at:at] = [(k, -1), (k, 1)]
        u, v = BraidWord(n + 1, tuple(u)), BraidWord(n + 1, tuple(v))
        for w in (u, v):
            found = _split(braids._run_words(w.letters))
            assert found == _split(runs.run_words(w.letters))
            assert braids.canonical_value(w) == runs.canonical_value(w)
            shapes["none" if not found else "several runs" if len(found) > 1
                   else "one run above 0" if found[0][0] else "one run from 0"] += 1
        assert (_split(braids._run_words(u.letters, v.letters))
                == _split(runs.run_words(u.letters, v.letters)))
        expected = braids.artin_act(u) == braids.artin_act(v)
        assert braids.braids_equal(u, v) == runs.braids_equal(u, v) == expected
        assert (braids.canonical_value(u) == braids.canonical_value(v)) == expected
        agreed[expected] += 1
    assert min(shapes.values()) >= 50 and min(agreed.values()) >= 200, (shapes, agreed)

# The reduced Burau representation of B_3 over Z[t, t^-1], faithful on
# 3 strands: a Laurent polynomial is a dict from exponent to a nonzero
# coefficient.

def lp_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def lp_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out = lp_add(out, {e1 + e2: c1 * c2})
    return out


def mat_mul(a, b):
    return [[lp_add(lp_mul(a[i][0], b[0][j]), lp_mul(a[i][1], b[1][j]))
             for j in range(2)] for i in range(2)]


BURAU = {
    (0, 1): [[{1: -1}, {0: 1}], [{}, {0: 1}]],
    (0, -1): [[{-1: -1}, {-1: 1}], [{}, {0: 1}]],
    (1, 1): [[{0: 1}, {}], [{1: 1}, {1: -1}]],
    (1, -1): [[{0: 1}, {}], [{0: 1}, {-1: -1}]],
}


def burau(b):
    m = [[{0: 1}, {}], [{}, {0: 1}]]
    for letter in b.letters:
        m = mat_mul(m, BURAU[letter])
    return m


def test_burau_matrices_are_a_representation():
    one = burau(empty_word(2))
    for k in (0, 1):
        assert burau(BraidWord(3, ((k, 1), (k, -1)))) == one
    assert burau(BraidWord(3, tuple(relator(0)))) == one
    assert burau(generator(2, 0)) != one


def test_normal_form_agrees_with_burau_on_long_words():
    """Words of 60 to 90 letters on 3 strands, beyond the free-group
    oracle's reach: rewritten copies are equal, and a copy with one
    letter inverted is not."""
    rng = random.Random(5)
    for _ in range(40):
        u = list(braids.random_word(rng, 2, 30).letters) + [
            (rng.randrange(2), rng.choice((1, -1))) for _ in range(60)]
        v = list(u)
        for _ in range(4):
            at = rng.randint(0, len(v))
            k, sign = rng.randrange(2), rng.choice((1, -1))
            v[at:at] = relator(0) if rng.random() < 0.5 else [(k, sign), (k, -sign)]
        a, b = BraidWord(3, tuple(u)), BraidWord(3, tuple(v))
        flipped = list(u)
        at = rng.randrange(len(flipped))
        flipped[at] = (flipped[at][0], -flipped[at][1])
        c = BraidWord(3, tuple(flipped))
        assert len(a.letters) >= 60
        assert burau(a) == burau(b) and braids.braids_equal(a, b)
        assert burau(b) != burau(c) and not braids.braids_equal(b, c)
        # Two neighbouring letters swapped: same exponent sum.
        swapped = list(u)
        at = rng.randrange(len(swapped) - 1)
        swapped[at:at + 2] = swapped[at + 1], swapped[at]
        d = BraidWord(3, tuple(swapped))
        assert braids.braids_equal(b, d) == (burau(b) == burau(d))


def test_long_word_equality_is_polynomial(monkeypatch):
    """(s1 s2^-1)^50 against three copies: b has a cancelling pair after
    every block, which free reduction settles with no pair step; e has
    the relator s1 s2 s1 (s2 s1 s2)^-1 after every block, which only the
    normal form settles; c has its last letter inverted.  The free-group
    images of 28 such letters already held two million symbols.  Each
    appended factor sweeps left over at most the factors before it, so a
    word of L letters takes at most L(L - 1)/2 pair steps and has at
    most L factors and L powers of Delta."""
    block = ((0, 1), (1, -1))
    a = BraidWord(3, block * 50)
    b = BraidWord(3, tuple(letter for _ in range(50)
                           for letter in block + ((1, 1), (1, -1))))
    e = BraidWord(3, tuple(letter for _ in range(50)
                           for letter in block + tuple(relator(0))))
    c = BraidWord(3, block * 49 + ((0, 1), (1, 1)))
    pairs = ((a, b, True), (a, e, True), (a, c, False))

    def decide():
        for u, v, equal in pairs:
            assert braids.braids_equal(u, v) == equal

    left_weight = braids._left_weight
    for u, v, equal in pairs:
        steps = 0

        def counted(x, y):
            nonlocal steps
            steps += 1
            return left_weight(x, y)

        with monkeypatch.context() as patched:
            patched.setattr(braids, "_left_weight", counted)
            assert braids.braids_equal(u, v) == equal
        assert steps <= sum(len(w.letters) * (len(w.letters) - 1) // 2 for w in (u, v))
        assert (steps == 0) == (v is b)
    for w in (a, b, c, e):
        d, factors = braids._run_form(w.letters, w.strands)
        assert abs(d) <= len(w.letters) and len(factors) <= len(w.letters)

    start = time.perf_counter()
    decide()
    assert time.perf_counter() - start < 1

    tracemalloc.start()
    try:
        decide()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_no_library_path_calls_the_oracle(monkeypatch, tmp_path, capsys):
    """A braid suite, a braid eval and a braid kan-lift run with the
    free-group action patched to raise."""
    from csgroups import BRAID, cli, kan, suites

    def refuse(b):
        raise AssertionError("artin_act called")
    monkeypatch.setattr(braids, "artin_act", refuse)
    assert suites.run_suite("crossed", "braid", trials=50).outcome == "pass"
    assert cli.main(["eval", "mul(s1 s2^-1 s1@2, inv(s2 s1@2))"]) == 0
    horn = kan.horn_from_filler(BRAID, BRAID.random_element(random.Random(3), 3, 8), 1)
    path = tmp_path / "horn.json"
    path.write_text(json.dumps({
        "instance": "braid", "level": horn.n, "k": horn.k,
        "base": perms.format_perm(horn.base),
        "faces": {str(r): braids.format_letters(y.payload) for r, y in horn.face_items()}}))
    assert cli.main(["kan-lift", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "identity=false" in out

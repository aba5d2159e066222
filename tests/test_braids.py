"""Braid words: the free-group action oracle, strand surgery, and the
positive permutation lift."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from csgroups import braids, perms
from csgroups.braids import BraidWord, empty_word, generator


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
    rng = random.Random(1)
    for _ in range(150):
        n = rng.randint(1, 4)
        b = braids.random_word(rng, n, 10)
        p = braids.underlying_perm_word(b)
        for i in range(n + 1):
            assert braids.underlying_perm_word(braids.face_word(i, b)) == \
                perms.face_perm(i, p)
            assert braids.underlying_perm_word(braids.degeneracy_word(i, b)) == \
                perms.degeneracy_perm(i, p)


def test_degeneracy_frozen_value():
    d = braids.degeneracy_word(0, generator(1, 0))
    assert d.letters == ((1, 1), (0, 1))
    assert braids.underlying_perm_word(d) == (2, 0, 1)
    assert braids.degeneracy_word(1, empty_word(1)).letters == ()


def test_end_insertions():
    g0 = generator(1, 0)
    assert braids.s_right_word(g0).letters == ((0, 1),)
    assert braids.s_right_word(g0).strands == 3
    assert braids.s_left_word(g0).letters == ((1, 1),)
    assert braids.s_left_word(empty_word(1)).letters == ()


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
        assert braids.braids_equal(braids.degeneracy_word(i, slack),
                                   braids.degeneracy_word(i, u))
    assert braids.braids_equal(braids.s_left_word(slack), braids.s_left_word(u))
    assert braids.braids_equal(braids.s_right_word(slack), braids.s_right_word(u))


def test_fingerprint_tracks_equality():
    rel1 = BraidWord(3, ((0, 1), (1, 1), (0, 1)))
    rel2 = BraidWord(3, ((1, 1), (0, 1), (1, 1)))
    assert braids.artin_fingerprint(braids.artin_act(rel1)) == \
        braids.artin_fingerprint(braids.artin_act(rel2))
    assert braids.artin_fingerprint(braids.artin_act(generator(1, 0))) != \
        braids.artin_fingerprint(braids.artin_act(empty_word(1)))


def test_parse_format():
    w = braids.parse_letters("s1 s2^-1", 2)
    assert w.letters == ((0, 1), (1, -1))
    assert braids.format_letters(w) == "s1 s2^-1"
    assert braids.parse_letters("1", 3).letters == ()
    assert braids.parse_letters("s01", 1).letters == ((0, 1),)
    assert braids.format_letters(empty_word(3)) == "1"
    with pytest.raises(ValueError):
        braids.parse_letters("s3", 2)
    with pytest.raises(ValueError):
        braids.parse_letters("x1", 2)


@pytest.mark.parametrize("text", ["s\u0661", "s\U0001d7cf", "s+1", "s1_0"])
def test_parse_letters_reads_only_ascii_digits(text):
    with pytest.raises(ValueError, match="bad braid token"):
        braids.parse_letters(text, 1)


def test_validation():
    with pytest.raises(IndexError):
        BraidWord(2, ((1, 1),))
    with pytest.raises(ValueError):
        BraidWord(2, ((0, 2),))
    with pytest.raises(ValueError):
        braids.face_word(0, empty_word(0))

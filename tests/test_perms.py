"""Permutation operations against independent table-level oracles."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from csgroups import SYMMETRIC, braids, cli, groupoid, perms
from csgroups.core import SymmetricCsg
from words import base, face, word


def face_table(i, p):
    """Delete the pair (source, value) with value i from the function
    table and compact both coordinate ranges by rank."""
    pairs = [(s, v) for s, v in enumerate(p) if v != i]
    srcs = sorted(s for s, _ in pairs)
    vals = sorted(v for _, v in pairs)
    image = {srcs.index(s): vals.index(v) for s, v in pairs}
    return tuple(image[j] for j in range(len(image)))


def degeneracy_table(i, p):
    """Duplicate the point with value i: a fresh source right after
    p^-1(i) pairs with a fresh value right after i."""
    a = p.index(i)
    pairs = [(s + (1 if s > a else 0), v + (1 if v > i else 0))
             for s, v in enumerate(p)]
    pairs.append((a + 1, i + 1))
    image = dict(pairs)
    return tuple(image[j] for j in range(len(image)))


@st.composite
def random_perm_st(draw, max_level=4):
    n = draw(st.integers(min_value=0, max_value=max_level))
    word = list(range(n + 1))
    draw(st.randoms(use_true_random=False)).shuffle(word)
    return tuple(word)


def test_compose_inverse_examples():
    assert perms.compose((1, 0, 2), (2, 0, 1)) == (2, 1, 0)
    assert perms.inverse((1, 2, 0)) == (2, 0, 1)
    assert perms.compose((1, 0), (1, 0)) == (0, 1)


@given(random_perm_st(), random_perm_st(), random_perm_st())
def test_group_laws(p, q, r):
    n = max(len(p), len(q), len(r)) - 1
    p, q, r = (perm + tuple(range(len(perm), n + 1)) for perm in (p, q, r))
    assert perms.compose(perms.compose(p, q), r) == perms.compose(p, perms.compose(q, r))
    assert perms.compose(p, perms.inverse(p)) == perms.identity(n)
    assert perms.compose(p, perms.identity(n)) == p


def test_face_matches_table_oracle():
    for n in range(1, 5):
        for p in perms.all_perms(n):
            for i in range(n + 1):
                assert perms.face_perm(i, p) == face_table(i, p)


def test_degeneracy_matches_table_oracle():
    for n in range(4):
        for p in perms.all_perms(n):
            for i in range(n + 1):
                assert perms.degeneracy_perm(i, p) == degeneracy_table(i, p)


def test_face_degeneracy_frozen_values():
    assert perms.face_perm(0, (1, 2, 0)) == (0, 1)
    assert perms.face_perm(2, (1, 2, 0)) == (1, 0)
    assert perms.degeneracy_perm(0, (1, 0)) == (2, 0, 1)
    assert perms.degeneracy_perm(1, (1, 0)) == (1, 2, 0)
    for n in range(4):
        for i in range(n + 1):
            assert perms.degeneracy_perm(i, perms.identity(n)) == perms.identity(n + 1)
            if n >= 1:
                assert perms.face_perm(i, perms.identity(n)) == perms.identity(n - 1)


def test_end_insertions():
    assert perms.s_right_perm((1, 0)) == (1, 0, 2)
    assert perms.s_left_perm((1, 0)) == (0, 2, 1)
    for p in perms.all_perms(2):
        for q in perms.all_perms(2):
            pq = perms.compose(p, q)
            assert perms.s_left_perm(pq) == perms.compose(
                perms.s_left_perm(p), perms.s_left_perm(q))
            assert perms.s_right_perm(pq) == perms.compose(
                perms.s_right_perm(p), perms.s_right_perm(q))


def test_block_substitute_frozen_values():
    assert perms.block_substitute((1, 0), 0, (1, 0)) == (2, 1, 0)
    assert perms.block_substitute((0, 1), 0, (1, 0)) == (1, 0, 2)
    for n in range(3):
        for p in perms.all_perms(n):
            for i in range(n + 1):
                assert perms.block_substitute(p, i, (0,)) == p


def test_block_substitute_unit_and_levels():
    rng = random.Random(0)
    for _ in range(50):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        p = perms.random_perm(rng, n)
        q = perms.random_perm(rng, m)
        i = rng.randint(0, n)
        out = perms.block_substitute(p, i, q)
        assert len(out) == n + m + 1
        assert perms.is_perm(out)


def test_transport_identities_exhaustive():
    for n in range(1, 5):
        for p in perms.all_perms(n):
            for j in range(1, n + 1):
                for i in range(j):
                    verdicts = perms.transport_verdicts(p, i, j)
                    assert list(verdicts) == ["face-above", "face-below",
                                              "degeneracy-below", "degeneracy-above"]
                    assert all(verdicts.values()), (verdicts, p, i, j)


def test_transport_block_exhaustive():
    for n in range(3):
        for m in range(3):
            for p in perms.all_perms(n):
                for q in perms.all_perms(m):
                    for i in range(n + 1):
                        for j in range(m + 1):
                            assert perms.block_transport_holds(p, i, q, j)


def test_parse_format_roundtrip():
    """Permutation literals are read by cli alone, the same as an eval
    literal, a kan-lift face and a kan-lift base, and print back through
    format_perm."""
    for text, p in [("[1, 0, 2]", (1, 0, 2)), ("[ 01 ,\t00 ]", (1, 0))]:
        assert cli._ExprParser(text).parse() == (SYMMETRIC, SYMMETRIC.element(p))
        assert face(SYMMETRIC, text, len(p) - 1).payload == p
        assert base(text, len(p) - 1) == p
    assert perms.format_perm((1, 0, 2)) == "[1,0,2]"
    for text in ("[0, 0]", "1,0"):
        with pytest.raises(ValueError):
            cli._ExprParser(text).parse()
        with pytest.raises(ValueError):
            face(SYMMETRIC, text, 1)
        with pytest.raises(ValueError):
            base(text, 1)


@pytest.mark.parametrize("text", ["[+1,0]", "[1,0_0]", "[\u0661,\u0660]", "[1,-0]"])
def test_parse_perm_reads_only_ascii_digits(text):
    """An entry is ASCII digits, in eval, a horn face and a horn base."""
    with pytest.raises(ValueError, match="unexpected character"):
        cli._ExprParser(text).parse()
    with pytest.raises(ValueError, match="unexpected character"):
        face(SYMMETRIC, text, 1)
    with pytest.raises(ValueError, match="unexpected character"):
        base(text, 1)


def test_index_errors():
    with pytest.raises(ValueError):
        perms.face_perm(0, (0,))
    with pytest.raises(IndexError):
        perms.face_perm(3, (1, 0, 2))
    with pytest.raises(IndexError):
        perms.degeneracy_perm(4, (1, 0, 2))


# The tables each kernel keeps of its own results.

KERNELS = ("identity", "compose", "inverse", "face_perm", "degeneracy_perm",
           "s_left_perm", "s_right_perm", "block_substitute")


def _clear_tables():
    for name in KERNELS:
        getattr(perms, name).table.clear()


def _table_sizes():
    return {name: len(getattr(perms, name).table) for name in KERNELS}


def _calls(top):
    """(kernel name, arguments) for every valid call on permutations up
    to level top, with every index and every pair."""
    levels = [list(perms.all_perms(n)) for n in range(top + 1)]
    for n, level in enumerate(levels):
        yield "identity", (n,)
        for p in level:
            yield "inverse", (p,)
            yield "s_left_perm", (p,)
            yield "s_right_perm", (p,)
            for q in level:
                yield "compose", (p, q)
            for i in range(n + 1):
                if n >= 1:
                    yield "face_perm", (i, p)
                yield "degeneracy_perm", (i, p)
                for q in itertools.chain.from_iterable(levels):
                    yield "block_substitute", (p, i, q)


def _calls_past_the_bound():
    """(kernel name, arguments) for 20 seeded calls of each kernel whose
    result has perms._TABLE_POINTS + 1 points."""
    rng = random.Random(0)
    top = perms._TABLE_POINTS  # the level of such a result
    for _ in range(20):
        p, small = perms.random_perm(rng, top), perms.random_perm(rng, top - 1)
        i = rng.randint(0, top - 1)
        yield "identity", (top,)
        yield "compose", (p, perms.random_perm(rng, top))
        yield "inverse", (p,)
        yield "face_perm", (i, perms.random_perm(rng, top + 1))
        yield "degeneracy_perm", (i, small)
        yield "s_left_perm", (small,)
        yield "s_right_perm", (small,)
        yield "block_substitute", (perms.random_perm(rng, 3), rng.randint(0, 3),
                                   perms.random_perm(rng, top - 3))


@pytest.mark.usefixtures("kept_entries")
def test_tables_agree_with_the_kernel_bodies():
    """A miss and then a hit both return what the untabled body computes,
    the same object exactly when it has at most perms._TABLE_POINTS points."""
    for name, args in itertools.chain(_calls(3), _calls_past_the_bound()):
        kernel = getattr(perms, name)
        expected = kernel.body(*args)
        first, second = kernel(*args), kernel(*args)
        assert first == second == expected, (name, args)
        assert all(type(v) is int for v in second)
        assert (second is first) == (len(expected) <= perms._TABLE_POINTS), (name, args)


def test_errors_still_raise_next_to_table_entries():
    _clear_tables()
    for name, args in _calls(3):
        getattr(perms, name)(*args)
    sizes = _table_sizes()
    for _ in range(2):
        with pytest.raises(ValueError, match="levels 1 and 2 differ"):
            perms.compose((1, 0), (0, 1, 2))
        with pytest.raises(ValueError, match="level 0"):
            perms.face_perm(0, (0,))
        with pytest.raises(ValueError):
            perms.identity(-1)
        for i in (-1, 3):
            with pytest.raises(IndexError, match="face index"):
                perms.face_perm(i, (1, 0, 2))
            with pytest.raises(IndexError, match="degeneracy index"):
                perms.degeneracy_perm(i, (1, 0, 2))
            with pytest.raises(IndexError, match="block index"):
                perms.block_substitute((1, 0, 2), i, (1, 0))
    assert _table_sizes() == sizes


@pytest.mark.usefixtures("kept_entries")
def test_larger_permutations_are_not_kept():
    """No result on more than perms._TABLE_POINTS points is kept, though
    the budget has room: a result on that many is."""
    p7, p8, p9 = (5, 3, 1, 0, 2, 4, 6), (7, 5, 3, 1, 0, 2, 4, 6), (8, 7, 5, 3, 1, 0, 2, 4, 6)
    assert len(p8) == perms._TABLE_POINTS + 1
    for _ in range(2):
        sizes = _table_sizes()
        perms.identity(7)
        perms.compose(p8, p8)
        perms.inverse(p8)
        perms.face_perm(2, p9)
        perms.degeneracy_perm(2, p7)
        perms.degeneracy_perm(2, p8)
        perms.s_left_perm(p7)
        perms.s_right_perm(p8)
        perms.block_substitute(p7, 1, (1, 0))
        perms.block_substitute((1, 0), 1, p7)
        perms.block_substitute(p8, 1, (0,))
        assert _table_sizes() == sizes
    assert perms.face_perm(2, p8) is perms.face_perm(2, p8)
    assert perms.compose(p7, p7) is perms.compose(p7, p7)


def test_bool_arguments_leave_no_bool_in_a_table():
    """True == 1 and (True, False) == (1, 0) as keys, so a result built
    from bools must not be handed to int callers."""
    calls = [("identity", (1,)), ("compose", ((1, 0), (0, 1))), ("inverse", ((1, 0),)),
             ("face_perm", (1, (1, 0, 2))), ("degeneracy_perm", (1, (0, 1))),
             ("s_left_perm", ((1, 0),)), ("s_right_perm", ((1, 0),)),
             ("block_substitute", ((1, 0), 1, (1, 0)))]

    def as_bools(value):
        if isinstance(value, tuple):
            return tuple(as_bools(v) for v in value)
        return bool(value) if value in (0, 1) else value

    _clear_tables()
    for name, args in calls:
        try:
            getattr(perms, name)(*as_bools(args))
        except (TypeError, ValueError, IndexError):
            pass
    for name, args in calls:
        result = getattr(perms, name)(*args)
        assert result == getattr(perms, name).body(*args)
        assert all(type(v) is int for v in result), (name, result)


# The five kernels that take an index, as (kernel, arguments before the
# index, arguments after it); braids' take a word, perms' a permutation.
INDEXED = [
    (perms.face_perm, (), ((1, 0, 2),)),
    (perms.degeneracy_perm, (), ((1, 0),)),
    (perms.block_substitute, ((1, 0),), ((1, 0),)),
    (braids.face_word, (), (word("s1 s2", 2),)),
    (braids._cable_word, (), (1, word("s1 s2", 2))),
]


@pytest.mark.parametrize("kernel, before, after", INDEXED,
                         ids=[kernel.__name__ for kernel, _, _ in INDEXED])
def test_indices_are_read_as_ints(kernel, before, after):
    """A bool index acts as its int and a float one is refused.  Before,
    degeneracy_perm(True, (1, 0)) was (True, 2, 0), block_substitute
    put 1.0 + q(j) in its block, and the braid degeneracy made the
    letter (True, 1)."""
    _clear_tables()
    body = getattr(kernel, "body", kernel)
    result = body(*before, True, *after)
    assert result == body(*before, 1, *after)
    values = [k for k, _ in result.letters] if isinstance(result, braids.BraidWord) else result
    assert all(type(v) is int for v in values), result
    for index in (1.0, 7.0):
        with pytest.raises(TypeError):
            kernel(*before, index, *after)


@pytest.mark.parametrize("kernel, before, after", [(perms.identity, (), ()), *INDEXED[:3]],
                         ids=["identity", *(kernel.__name__ for kernel, _, _ in INDEXED[:3])])
@pytest.mark.parametrize("order", ["float-first", "int-first"])
def test_float_index_is_refused_by_a_warm_table(kernel, before, after, order):
    """A float index equals its int as a table key, but a table never
    answers it: before, face_perm(1.0, (1, 0, 2)) raised on an empty
    table and returned (0, 1) after face_perm(1, (1, 0, 2))."""
    _clear_tables()
    for index in [1.0, 1, 1.0] if order == "float-first" else [1, 1.0]:
        if type(index) is int:
            result = kernel(*before, index, *after)
        else:
            with pytest.raises(TypeError):
                kernel(*before, index, *after)
    assert kernel(*before, True, *after) == result
    assert kernel(*before, 1, *after) is result


def test_no_store_keeps_past_the_budget(kept_entries):
    """Every call a table can keep is kept: results on at most
    perms._FEW_POINTS points always, larger ones on at most
    perms._TABLE_POINTS while the shared budget lasts and none once it is
    spent, perms._BUDGET of them in all; under 18 MB together."""
    tracemalloc.start()
    try:
        for n in range(5):
            for p, q in itertools.product(perms.all_perms(n), repeat=2):
                perms.compose(p, q)
        for n in range(1, 6):
            for p in perms.all_perms(n):
                for i in range(n + 1):
                    perms.face_perm(i, p)
        # compose: sum of (n+1)!^2 for n <= 4; face_perm: (n+1)!(n+1) for 1 <= n <= 5.
        assert len(perms.compose.table) == 1 + 4 + 36 + 576 + 14400
        assert len(perms.face_perm.table) == 4 + 18 + 96 + 600 + 4320
        assert kept_entries() == 0
        # More 7-point results than the budget holds.
        pairs = itertools.product(perms.all_perms(6), repeat=2)
        for p, q in itertools.islice(pairs, perms._BUDGET + 1000):
            perms.compose(p, q)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept_entries() == perms._spent == perms._BUDGET
    assert len(perms.compose.table) == 1 + 4 + 36 + 576 + 14400 + perms._BUDGET
    tables = {name: getattr(perms, name).table for name in KERNELS}
    assert all(len(v) <= perms._TABLE_POINTS for table in tables.values()
               for v in table.values())
    # Once the budget is spent, small results are still kept.
    assert perms.s_left_perm((1, 0, 3, 2)) is perms.s_left_perm((1, 0, 3, 2))
    assert kept_entries() == perms._BUDGET
    assert size < 18_000_000, size


def _keep_candidates():
    """Every permutation on at most 6 points and seeded ones on 7 and 8
    (perms._TABLE_POINTS and one more), each with its bool, float and
    list variants."""
    rng = random.Random(0)
    samples = [perms.random_perm(rng, n) for n in (6, 7) for _ in range(200)]
    for p in itertools.chain(*map(perms.all_perms, range(6)), samples):
        yield p
        yield tuple(bool(v) if v < 2 else v for v in p)
        yield (float(p[0]),) + p[1:]
        yield list(p)


@pytest.mark.usefixtures("kept_entries")
def test_one_keep_rule_for_tables_elements_and_arrows():
    """perms.kept is the one keep rule: while the budget lasts, a kernel
    table keeps a result, the symmetric family interns a permutation, and
    groupoid.arrow interns an arrow with it as source (over an interned
    group part) exactly when kept admits it."""
    candidates = list(_keep_candidates())
    assert {len(p) for p in candidates} == set(range(1, perms._TABLE_POINTS + 2))
    echo = perms._tabled(lambda i: candidates[i])
    seen = set()
    for i, p in enumerate(candidates):
        seen.add(kept := perms.kept(p))
        echo(i)
        assert ((i,) in echo.table) == kept, p
        # A store of its own, so that a bool or float variant does not
        # meet its int twin, which equals it as a key.
        inst = SymmetricCsg()
        inst._interned = {}
        if type(p) is list:  # not hashable, so no store can hold it
            with pytest.raises(TypeError, match="unhashable"):
                inst._intern(p)
        else:
            g = inst._intern(p)
            assert (g.rows is not None) == kept, p
        f = inst.one(len(p) - 1)
        assert (f.rows is not None) == (len(p) <= perms._TABLE_POINTS)
        if type(p) is list and f.arrows is not None:
            with pytest.raises(TypeError, match="unhashable"):
                groupoid.arrow(p, f)
        else:
            assert (groupoid.arrow(p, f).rows is not None) == kept, p
        if type(p) is tuple and perms.is_perm(p):
            assert (SymmetricCsg().element(p).rows is not None) == kept
    assert seen == {True, False}

"""The instance interface and the crossed-law checkers on both families."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from csgroups import BRAID, SYMMETRIC
from csgroups import braids, cli, core, groupoid, operad, perms, suites

import loops
from words import face


def test_group_axioms_exhaustive_symm():
    for n in range(4):
        els = list(SYMMETRIC.elements(n))
        one = SYMMETRIC.one(n)
        for g in els:
            assert SYMMETRIC.equal(SYMMETRIC.mul(g, one), g)
            assert SYMMETRIC.equal(SYMMETRIC.mul(SYMMETRIC.inv(g), g), one)
            for h in els:
                for k in els:
                    assert SYMMETRIC.equal(
                        SYMMETRIC.mul(SYMMETRIC.mul(g, h), k),
                        SYMMETRIC.mul(g, SYMMETRIC.mul(h, k)))


def test_group_axioms_random_braid():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(1, 4)
        g, h, k = (BRAID.random_element(rng, n, 8) for _ in range(3))
        one = BRAID.one(n)
        assert BRAID.equal(BRAID.mul(g, one), g)
        assert BRAID.equal(BRAID.mul(BRAID.inv(g), g), one)
        assert BRAID.equal(BRAID.mul(BRAID.mul(g, h), k),
                           BRAID.mul(g, BRAID.mul(h, k)))


def test_mul_examples():
    assert SYMMETRIC.mul(SYMMETRIC.element((1, 0)),
                         SYMMETRIC.element((1, 0))).payload == (0, 1)
    assert SYMMETRIC.mul(SYMMETRIC.element((1, 0, 2)),
                         SYMMETRIC.element((2, 0, 1))).payload == (2, 1, 0)
    assert SYMMETRIC.inv(SYMMETRIC.element((1, 2, 0))).payload == (2, 0, 1)
    with pytest.raises(ValueError, match="levels 1 and 2 differ"):
        SYMMETRIC.mul(SYMMETRIC.one(1), SYMMETRIC.one(2))


@pytest.mark.parametrize("inst", [SYMMETRIC, BRAID], ids=["symm", "braid"])
@pytest.mark.parametrize("op", ["mul", "equal"])
def test_cross_level_operations_raise(inst, op):
    """perms.compose, braids.concat, braids.braids_equal and
    SymmetricCsg.equal own the level check."""
    with pytest.raises(ValueError, match="^levels 1 and 2 differ$"):
        getattr(inst, op)(inst.one(1), inst.one(2))


@pytest.mark.parametrize("payload", [[True, False], (1.0, 0.0), (0, True)])
def test_symmetric_elements_take_only_int_entries(payload):
    with pytest.raises(ValueError, match="is not a permutation"):
        SYMMETRIC.element(payload)


@pytest.mark.parametrize("inst, payload, text", [
    (SYMMETRIC, (0,) * 3000, "{} is not a permutation"),
    (BRAID, "x" * 3000, "expected a BraidWord, got {}")], ids=["symm", "braid"])
def test_element_errors_clip_the_payload(inst, payload, text):
    """element echoes a refused payload through perms.clip, as every
    other boundary error does, so a long payload gives a short line."""
    with pytest.raises(ValueError) as err:
        inst.element(payload)
    assert str(err.value) == text.format(perms.clip(repr(payload)))
    assert len(str(err.value)) <= perms.MAX_ECHO + len("...") + len(text) - len("{}")


def test_projection_is_homomorphism():
    rng = random.Random(1)
    for inst in (SYMMETRIC, BRAID):
        for _ in range(40):
            n = rng.randint(1, 4)
            g = inst.random_element(rng, n, 8)
            h = inst.random_element(rng, n, 8)
            assert inst.underlying_perm(inst.mul(g, h)) == perms.compose(
                inst.underlying_perm(g), inst.underlying_perm(h))
            assert inst.underlying_perm(inst.one(n)) == perms.identity(n)


def test_projection_commutes_with_structure():
    rng = random.Random(2)
    for inst in (SYMMETRIC, BRAID):
        for _ in range(40):
            n = rng.randint(1, 3)
            m = rng.randint(0, 3)
            g = inst.random_element(rng, n, 6)
            h = inst.random_element(rng, m, 6)
            pg = inst.underlying_perm(g)
            ph = inst.underlying_perm(h)
            for i in range(n + 1):
                assert inst.underlying_perm(inst.face(i, g)) == perms.face_perm(i, pg)
                assert inst.underlying_perm(inst.degeneracy(i, g)) == \
                    perms.degeneracy_perm(i, pg)
            assert inst.underlying_perm(inst.s_left(g)) == loops.s_left_perm(pg)
            assert inst.underlying_perm(inst.s_right(g)) == loops.s_right_perm(pg)
            assert inst.underlying_perm(inst.pad(g, 2, 1)) == \
                loops.s_left_perm(loops.s_left_perm(loops.s_right_perm(pg)))
            assert inst.underlying_perm(inst.boxplus(g, h)) == SYMMETRIC.boxplus(
                SYMMETRIC.element(pg), SYMMETRIC.element(ph)).payload


def test_pad_boxplus_frozen_values():
    g = SYMMETRIC.element((1, 0))
    h = SYMMETRIC.element((0,))
    assert SYMMETRIC.pad(g, 0, 1).payload == (1, 0, 2)
    assert SYMMETRIC.pad(g, 0, 0).payload == (1, 0)
    assert SYMMETRIC.pad(g, 1, 1).payload == (0, 2, 1, 3)
    assert SYMMETRIC.boxplus(g, h).payload == (1, 0, 2)
    assert SYMMETRIC.boxplus(h, g).payload == (0, 2, 1)
    assert SYMMETRIC.boxplus(SYMMETRIC.one(1), SYMMETRIC.one(2)).payload == \
        perms.identity(4)
    b = BRAID.element(braids.generator(1, 0))
    assert BRAID.s_right(b).payload.letters == ((0, 1),)
    assert BRAID.s_left(b).payload.letters == ((1, 1),)
    assert BRAID.boxplus(b, b).payload.letters == ((0, 1), (2, 1))


def _outcome(call):
    """A call's result as (level, strands, letters), or its error as
    (type, message).  A result's word must be one the checked
    constructor accepts."""
    try:
        g = call()
    except (IndexError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    word = g.payload
    assert braids.BraidWord(word.strands, word.letters) == word
    return g.level, word.strands, word.letters


@st.composite
def braid_element_st(draw, max_level=5, max_len=12, levels=None):
    n = draw(st.integers(min_value=0, max_value=max_level) if levels is None else levels)
    letters = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=max(n - 1, 0)),
                                      st.sampled_from((1, -1))), max_size=max_len if n else 0))
    return BRAID.element(braids.BraidWord(n + 1, tuple(letters)))


# Counts 0-5, negative ones (they act as 0) and values range() refuses;
# indices out of range on both sides and ones operator.index refuses.
_COUNT = st.one_of(st.integers(min_value=-2, max_value=5), st.sampled_from((1.0, "1", True)))
_INDEX = st.one_of(st.integers(min_value=-2, max_value=7), st.sampled_from((0.0, True)))


@given(braid_element_st(), _INDEX, _COUNT, _COUNT, _COUNT)
@settings(max_examples=400)
def test_braid_insertion_kernels_match_the_shared_loops(g, i, m, left, right):
    """BraidCsg cables and pads in one pass each (braids._cable_word,
    braids._pad_word); the test-side loops, which apply the one-strand
    operations a count of times, are the reference for the letters, the
    level and the error."""
    assert _outcome(lambda: BRAID.degeneracy_power(i, m, g)) == \
        _outcome(lambda: loops.degeneracy_power(BRAID, i, m, g))
    assert _outcome(lambda: BRAID.pad(g, left, right)) == \
        _outcome(lambda: loops.pad(BRAID, g, left, right))


@given(braid_element_st(), braid_element_st(), st.data())
@settings(max_examples=200)
def test_every_braid_operation_returns_a_word(g, k, data):
    """A braid element is its word: every BRAID operation returns the
    braids.BraidWord its kernel builds, at the level its rule gives;
    element returns a word as it is, a word's payload is the word, and
    a word keeps no interned arrows, so each groupoid.arrow is fresh."""
    n = g.level
    h = data.draw(braid_element_st(levels=st.just(n)))
    i = data.draw(st.integers(min_value=0, max_value=n))
    m, left, right = data.draw(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3))
    p = tuple(data.draw(st.permutations(range(n + 1))))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 16)))
    results = [(BRAID.one(n), n), (BRAID.mul(g, h), n), (BRAID.inv(g), n),
               (BRAID.reduced(g), n), (BRAID.degeneracy(i, g), n + 1),
               (BRAID.s_left(g), n + 1), (BRAID.s_right(g), n + 1),
               (BRAID.degeneracy_power(i, m, g), n + m),
               (BRAID.pad(g, left, right), n + left + right),
               (BRAID.boxplus(g, k), n + k.level + 1), (BRAID.section(p), n),
               (BRAID.random_element(rng, n, 12), n)]
    if n >= 1:
        results.append((BRAID.face(i, g), n - 1))
    for w, level in results:
        assert type(w) is braids.BraidWord and w.level == level
        assert BRAID.element(w) is w and w.payload is w and w.arrows is None
        source = perms.identity(level)[::-1]
        a, b = groupoid.arrow(source, w), groupoid.arrow(source, w)
        assert a == b and a is not b


def _symm_outcome(call, message):
    """A call's result as (level, payload), or its error's type, and its
    message when `message` is true.  A count's error has the loops'
    message; an index's does not, since block_substitute names it."""
    try:
        g = call()
    except (IndexError, TypeError, ValueError) as exc:
        return (type(exc), str(exc)) if message else type(exc)
    return g.level, g.payload


# Levels 0-4, and level 8, on more points than an interned element has.
_LEVELS = st.one_of(st.integers(min_value=0, max_value=4), st.just(8))


@given(_LEVELS.flatmap(lambda n: st.permutations(range(n + 1))), _INDEX, _COUNT, _COUNT,
       _COUNT)
@settings(max_examples=400)
def test_symmetric_insertion_kernels_match_the_shared_loops(p, i, m, left, right):
    """SymmetricCsg inserts with one block substitution each; the same
    test-side loops are the reference for the payload, the level, the
    type of the error and, for a count's error, its message."""
    g = SYMMETRIC.element(p)
    count_error = not isinstance(m, int)
    assert _symm_outcome(lambda: SYMMETRIC.degeneracy_power(i, m, g), count_error) == \
        _symm_outcome(lambda: loops.degeneracy_power(SYMMETRIC, i, m, g), count_error)
    assert _symm_outcome(lambda: SYMMETRIC.pad(g, left, right), True) == \
        _symm_outcome(lambda: loops.pad(SYMMETRIC, g, left, right), True)


@given(st.one_of(_LEVELS.flatmap(lambda n: st.permutations(range(n + 1)))
                 .map(lambda p: SYMMETRIC.element(tuple(p))),
                 braid_element_st(levels=_LEVELS)), _INDEX)
@settings(max_examples=400)
def test_one_strand_insertions_are_the_insertion_kernels_at_one(g, i):
    """On both families the end insertions equal the test-side loops'
    padding by one point, and the degeneracy equals their degeneracy
    step (written out on braid words) and the family's _cable at m = 1.
    An index the degeneracy refuses, out of range or a float, is refused
    with the same type of error; the symmetric messages differ
    (`degeneracy index`, `block index`)."""
    inst = SYMMETRIC if isinstance(g.payload, tuple) else BRAID
    assert _symm_outcome(lambda: inst.s_left(g), False) == \
        _symm_outcome(lambda: loops.pad(inst, g, 1, 0), False)
    assert _symm_outcome(lambda: inst.s_right(g), False) == \
        _symm_outcome(lambda: loops.pad(inst, g, 0, 1), False)
    assert _symm_outcome(lambda: inst.degeneracy(i, g), False) == \
        _symm_outcome(lambda: loops.degeneracy_power(inst, i, 1, g), False) == \
        _symm_outcome(lambda: inst.degeneracy_power(i, 1, g), False)


def test_insertion_rows_answer_only_their_own_operation():
    """Each symmetric insertion keeps its results in a row of its own,
    by its counts: degeneracy_power(0, 1, g) and pad(g, 0, 1) share
    their counts but not their row, and a float index, which equals its
    int as a key, reads no row, warm or cold."""
    g = SYMMETRIC.element((1, 0, 2))
    for _ in range(2):
        assert SYMMETRIC.degeneracy_power(0, 1, g).payload == (2, 0, 1, 3)
        assert SYMMETRIC.pad(g, 0, 1).payload == (1, 0, 2, 3)
        for m in (1, 2):
            assert SYMMETRIC.degeneracy_power(True, m, g) is SYMMETRIC.degeneracy_power(1, m, g)
            with pytest.raises(TypeError):
                SYMMETRIC.degeneracy_power(1.0, m, g)


def test_insertion_counts_are_read_before_a_word_is_built():
    """A float count is refused and a negative one inserts nothing, so
    no insertion returns a word the BraidWord constructor refuses; the
    kernels that take counts unchecked are private."""
    g = BRAID.element(braids.generator(2, 1))
    with pytest.raises(TypeError):
        BRAID.degeneracy_power(0, 1.0, g)
    assert BRAID.pad(g, 0, -2) is g
    assert not hasattr(braids, "cable_word") and not hasattr(braids, "pad_word")


def test_checkers_symm_exhaustive():
    tally = core.Tally()
    for n in range(3):
        els = list(SYMMETRIC.elements(n))
        for g in els:
            core.check_simplicial_identities(tally, SYMMETRIC, g)
            core.check_extra_degeneracy(tally, SYMMETRIC, g)
            for h in els:
                for i in range(n + 1):
                    core.check_crossed_identities(tally, SYMMETRIC, g, h, i)
    assert tally.ok, tally.violations[0]


def test_checkers_braid_random():
    rng = random.Random(3)
    tally = core.Tally()
    for _ in range(80):
        n = rng.randint(1, 4)
        g = BRAID.random_element(rng, n, 8)
        h = BRAID.random_element(rng, n, 8)
        i = rng.randint(0, n)
        core.check_crossed_identities(tally, BRAID, g, h, i)
        core.check_simplicial_identities(tally, BRAID, g)
        core.check_extra_degeneracy(tally, BRAID, g)
    assert tally.ok, tally.violations[0]


def _s_left_as_s_right(self, g):
    return self._pad(g, 0, 1)


def _degeneracy_one_strand_over(i, m, b, right=braids._cable_word):
    return right((i + 1) % b.strands, m, b)


def _symm_cases():
    return [g for n in range(4) for g in SYMMETRIC.elements(n)]


def _braid_cases():
    rng = random.Random(0)
    return [BRAID.random_element(rng, rng.randint(1, 5), 12) for _ in range(200)]


# Every failing identity under each fault, the suite's report totals at
# its acceptance scope, and the whole-tally totals, as the extra-degeneracy
# checker gave them when it wrote the laws of s_left and s_right apart.
# The shared s_left swapped for s_right also fails the projection square,
# whose permutation forms are written out in the checker.
@pytest.mark.parametrize("module, name, fault, inst, cases, report, tally, identities", [
    (core.CsgInstance, "s_left", _s_left_as_s_right, SYMMETRIC, _symm_cases, (606, 207),
     (606, 207), ["d_0 sL == id", "perm(sL g) == sL(perm g)"]
     + [f"d_{i + 1} sL == sL d_{i}" for i in range(4)]
     + [f"s_{i + 1} sL == sL s_{i}" for i in range(4)]),
    (braids, "_cable_word", _degeneracy_one_strand_over, BRAID, _braid_cases,
     (20140, 1545), (4032, 312), [f"s_{i} sR == sR s_{i}" for i in range(1, 6)]
     + [f"s_{i + 1} sL == sL s_{i}" for i in range(1, 6)]),
], ids=["sL-symm", "degeneracy-braid"])
def test_extra_degeneracy_fault_identities(monkeypatch, module, name, fault, inst, cases,
                                           report, tally, identities):
    monkeypatch.setattr(module, name, fault)
    result = suites.run_suite("extra-degeneracy", inst.name)
    assert result.outcome == "fail" and (result.cases, result.failures) == report
    whole = core.Tally()
    for g in cases():
        core.check_extra_degeneracy(whole, inst, g)
    assert (whole.cases, len(whole.violations)) == tally
    assert sorted({identity for identity, _ in whole.violations}) == sorted(identities)


def test_monoidal_operadic_checkers():
    rng = random.Random(4)
    tally = core.Tally()
    for _ in range(60):
        n = rng.randint(1, 2)
        m = rng.randint(0, 2)
        g = BRAID.random_element(rng, n, 5)
        h = BRAID.random_element(rng, m, 5)
        core.check_monoidal(tally, BRAID, g, h)
        core.check_operadic(tally, BRAID, g, h, rng.randint(0, n))
    for n in range(2):
        for m in range(2):
            for g in SYMMETRIC.elements(n):
                for h in SYMMETRIC.elements(m):
                    core.check_monoidal(tally, SYMMETRIC, g, h)
                    for i in range(n + 1):
                        core.check_operadic(tally, SYMMETRIC, g, h, i)
    assert tally.ok, tally.violations[0]


def test_pure_homomorphism_checker():
    rng = random.Random(5)
    tally = core.Tally()
    for _ in range(40):
        n = rng.randint(1, 3)
        g = BRAID.random_element(rng, n, 8)
        p = BRAID.mul(g, BRAID.inv(BRAID.section(BRAID.underlying_perm(g))))
        assert BRAID.is_pure(p)
        q = BRAID.random_element(rng, n, 8)
        core.check_pure_homomorphism(tally, BRAID, p, q, rng.randint(0, n))
    assert tally.ok, tally.violations[0]
    with pytest.raises(ValueError):
        core.check_pure_homomorphism(
            tally, BRAID, BRAID.element(braids.generator(1, 0)), BRAID.one(1), 0)


def test_report_shape():
    tally = core.Tally()
    assert core.check_crossed_identities(
        tally, SYMMETRIC, SYMMETRIC.one(1), SYMMETRIC.one(1), 0) is None
    assert tally.ok and tally.cases == 2 and tally.violations == []
    core.check_monoidal(tally, SYMMETRIC, SYMMETRIC.one(0), SYMMETRIC.one(1))
    assert tally.ok and tally.cases == 3


def test_tally_describes_only_failures():
    described = []

    def describe():
        described.append(True)
        return "inputs"

    tally = core.Tally()
    tally.check(True, "holds", describe)
    assert tally.ok and not described
    tally.check(False, "breaks", describe)
    tally.check(True, "holds", describe)
    assert len(described) == 1
    assert tally.cases == 3 and not tally.ok
    assert tally.violations == [("breaks", "inputs")]


def test_section_and_parse():
    assert SYMMETRIC.section((1, 0, 2)).payload == (1, 0, 2)
    assert BRAID.section((1, 0, 2)).payload.letters == ((0, 1),)
    # Literals are read by cli alone: as kan-lift faces, and in eval.
    assert face(SYMMETRIC, "[1,0]", 1).payload == (1, 0)
    with pytest.raises(ValueError, match="face 1 has level 1, expected 2"):
        face(SYMMETRIC, "[1,0]", 2)
    assert face(BRAID, "s1 s1", 2).payload.letters == ((0, 1), (0, 1))
    assert cli._ExprParser("s1 s1@2").parse() == (BRAID, face(BRAID, "s1 s1", 2))
    assert BRAID.format(BRAID.one(2)) == "1@2"
    assert SYMMETRIC.format(SYMMETRIC.one(1)) == "[0,1]"


# The interned symmetric elements and their operation rows.

def _clear_rows():
    for g in core.SymmetricCsg._interned.values():
        g.rows.clear()


def _symm_up_to(top):
    return [g for n in range(top + 1) for g in SYMMETRIC.elements(n)]


def _fill_rows(g):
    """Every operation of g that succeeds, so each of its rows is full."""
    for h in SYMMETRIC.elements(g.level):
        SYMMETRIC.mul(g, h)
    SYMMETRIC.inv(g), SYMMETRIC.s_left(g), SYMMETRIC.s_right(g)
    for i in range(g.level + 1):
        if g.level >= 1:
            SYMMETRIC.face(i, g)
        SYMMETRIC.degeneracy(i, g)


def test_interned_operations_agree_with_the_kernel_bodies():
    """Every operation at every index and on every pair up to level 3,
    from empty rows and then from full ones, gives the untabled kernel
    body's permutation, as the one interned element for it."""
    _clear_rows()
    els = _symm_up_to(3)
    for _ in range(2):
        for g in els:
            p, n = g.payload, g.level
            results = [(SYMMETRIC.inv(g), perms.inverse.body(p)),
                       (SYMMETRIC.s_left(g), loops.s_left_perm(p)),
                       (SYMMETRIC.s_right(g), loops.s_right_perm(p))]
            results += [(SYMMETRIC.mul(g, h), perms.compose.body(p, h.payload))
                        for h in els if h.level == n]
            results += [(SYMMETRIC.degeneracy(i, g), perms.degeneracy_perm.body(i, p))
                        for i in range(n + 1)]
            results += [(SYMMETRIC.face(i, g), perms.face_perm.body(i, p))
                        for i in range(n + 1) if n >= 1]
            for result, expected in results:
                assert (result.level, result.payload) == (len(expected) - 1, expected)
                assert result is SYMMETRIC.element(expected), (g, expected)


@pytest.mark.usefixtures("kept_entries")
def test_only_small_results_are_interned():
    """A result on at most perms._TABLE_POINTS points is the interned
    element; a larger one is a fresh element that still equals by value."""
    g = SYMMETRIC.element((1, 0, 3, 2, 5, 4, 6))
    _, identity = cli._ExprParser("[0,1,2,3,4,5,6]").parse()
    assert len(g.payload) == perms._TABLE_POINTS
    assert SYMMETRIC.mul(g, g) is SYMMETRIC.one(6) is identity
    assert SYMMETRIC.s_left(SYMMETRIC.element((1, 0, 2, 3, 4, 5))) is SYMMETRIC.section(
        (0, 2, 1, 3, 4, 5, 6))
    big = [SYMMETRIC.degeneracy(0, g) for _ in range(2)]
    assert big[0] is not big[1] and big[0] == big[1]
    assert SYMMETRIC.equal(*big) and big[0].rows is None
    assert SYMMETRIC.face(0, big[0]) is g
    assert SYMMETRIC.element((1, 0)) == core.CsgElement(1, (1, 0))
    assert SYMMETRIC.equal(SYMMETRIC.element((1, 0)), core.CsgElement(1, (1, 0)))


def test_a_small_budget_bounds_every_store(kept_entries, monkeypatch):
    """With a budget of 1,000 entries, every product of two 6-point
    permutations is the kernel body's, and all the stores together keep
    exactly the 1,000 entries the budget holds.  Results on at most
    perms._FEW_POINTS points are still kept once it is spent."""
    monkeypatch.setattr(perms, "_BUDGET", 1000)
    els = list(SYMMETRIC.elements(5))
    for g in els:
        for h in els:
            assert SYMMETRIC.mul(g, h).payload == perms.compose.body(g.payload, h.payload)
    assert kept_entries() == perms._spent == 1000
    g = SYMMETRIC.element((1, 0, 3, 2, 4))
    assert SYMMETRIC.mul(g, g) is SYMMETRIC.one(4) and g.rows is not None
    a = groupoid.arrow((4, 3, 2, 1, 0), g)
    assert groupoid.face_arrow(SYMMETRIC, 0, a).rows is not None
    assert kept_entries() == 1000


@pytest.mark.parametrize("op", ["face", "degeneracy"])
@pytest.mark.parametrize("order", ["float-first", "int-first", "kernel-table-warm"])
def test_float_index_is_refused_warm_or_cold(op, order):
    """An index must be an int (a bool acts as its int) whether or not
    the row already holds the int index's result: a float equals its int
    as a dict key, but not as a list index."""
    g = SYMMETRIC.element((1, 0, 2))
    kernel = getattr(perms, f"{op}_perm")
    g.rows.clear()
    kernel.table.clear()
    if order == "kernel-table-warm":
        kernel(1, g.payload)
    calls = [1.0, 1, 1.0] if order == "float-first" else [1, 1.0]
    for index in calls:
        if type(index) is int:
            result = getattr(SYMMETRIC, op)(index, g)
            assert result.payload == kernel.body(1, g.payload)
        else:
            with pytest.raises(TypeError):
                getattr(SYMMETRIC, op)(index, g)
    assert getattr(SYMMETRIC, op)(True, g) is result


@pytest.mark.parametrize("op", ["mul", "equal"])
def test_full_rows_still_refuse_other_levels(op):
    """A product row is keyed by the other operand's id and compose
    refuses another level, so a full row never answers for an operand of
    another level."""
    a, b = SYMMETRIC.element((1, 0, 2)), SYMMETRIC.element((1, 0, 3, 2))
    _fill_rows(a), _fill_rows(b)
    for _ in range(2):
        with pytest.raises(ValueError, match="^levels 2 and 3 differ$"):
            getattr(SYMMETRIC, op)(a, b)
        with pytest.raises(ValueError, match="^levels 3 and 2 differ$"):
            getattr(SYMMETRIC, op)(b, a)
    for g in _symm_up_to(3):
        _fill_rows(g)
    for g, h in itertools.product(_symm_up_to(3), repeat=2):
        if g.level != h.level:
            with pytest.raises(ValueError, match="differ"):
                getattr(SYMMETRIC, op)(g, h)


@pytest.mark.usefixtures("kept_entries")
def test_warm_suites_on_six_and_seven_points_fill_no_row(monkeypatch):
    """Every kept element answers its products from its own row, on up
    to perms._TABLE_POINTS points: once the symmetric suites that reach
    6 and 7 points have run at their acceptance scope, a second run of
    them calls SymmetricCsg._fill not once (18,504 times before)."""
    names = ("simplicial", "extra-degeneracy", "monoidal", "shifted-operad",
             "unshifted-operad")
    first = [suites.run_suite(name, "symm").to_json() for name in names]
    assert max(map(len, core.SymmetricCsg._interned)) == perms._TABLE_POINTS
    filled, fill = [], core.SymmetricCsg._fill

    def counted(self, kernel, *args):
        filled.append(kernel.__name__)
        return fill(self, kernel, *args)

    monkeypatch.setattr(core.SymmetricCsg, "_fill", counted)
    assert [suites.run_suite(name, "symm").to_json() for name in names] == first
    assert filled == []


@pytest.mark.usefixtures("kept_entries")
def test_a_warm_pass_of_the_arrow_suites_only_hits(monkeypatch):
    """From empty stores, one symmetric pass of operadic-mult and
    groupoid-simplicial at their acceptance scopes keeps every result a
    second pass reads: the second pass fills no element row, builds no
    circ_gpd result (the only caller of operad.arrow in these suites),
    takes no arrow face or degeneracy past its row and constructs no
    GroupoidArrow.  A hit path that falls through to its miss path
    would show here."""
    names = ("operadic-mult", "groupoid-simplicial")
    first = [suites.run_suite(name, "symm").to_json() for name in names]
    misses = collections.Counter()

    def counted(name, miss):
        def wrapper(*args, **kwargs):
            misses[name] += 1
            return miss(*args, **kwargs)
        return wrapper

    for owner, name in ((core.SymmetricCsg, "_fill"), (operad, "arrow"),
                        (groupoid, "_simplicial"), (groupoid.GroupoidArrow, "__post_init__")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    second = [suites.run_suite(name, "symm").to_json() for name in names]
    monkeypatch.undo()
    assert second == first
    assert misses == {}


def test_warm_operadic_mult_builds_no_element(monkeypatch, run_suite):
    """Once symmetric operadic-mult has run at its acceptance scope, a
    second run builds no CsgElement: every element it needs is interned."""
    first = run_suite("operadic-mult", "symm")
    built = []
    init = core.CsgElement.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(core.CsgElement, "__init__", counted)
    second = suites.run_suite("operadic-mult", "symm")
    monkeypatch.undo()
    assert core.CsgElement.__init__ is init
    assert second.to_dict() == first.to_dict() and second.cases > 400_000
    assert built == []


def test_warm_operadic_mult_builds_no_arrow(monkeypatch, run_suite):
    """Once symmetric operadic-mult has run at its acceptance scope, a
    second run builds no GroupoidArrow: every arrow it needs, and every
    result of target, circ_gpd and the arrow constructors, is interned."""
    first = run_suite("operadic-mult", "symm")
    built = []
    check = groupoid.GroupoidArrow.__post_init__

    def counted(self):
        built.append((self.source, self.f))
        check(self)

    monkeypatch.setattr(groupoid.GroupoidArrow, "__post_init__", counted)
    second = suites.run_suite("operadic-mult", "symm")
    monkeypatch.undo()
    assert groupoid.GroupoidArrow.__post_init__ is check
    assert second.to_dict() == first.to_dict() and second.cases > 400_000
    assert built == []


def test_warm_operadic_mult_continues_each_operand_once(monkeypatch, run_suite):
    """A warm symmetric operadic-mult run continues each operand pair,
    (x, yf) or (v, wf), once, not once per case: continue_arrow runs once
    per pair, identity_arrow once per pair and once per case for the law
    "id o_i id == id".  Patched where operad reads them."""
    first = run_suite("operadic-mult", "symm")
    continued, counts = collections.Counter(), collections.Counter()
    originals = {name: getattr(operad, name) for name in
                 ("continue_arrow", "identity_arrow", "check_circ_functorial")}

    def counting(name):
        def wrapper(*args):
            counts[name] += 1
            if name == "continue_arrow":
                continued[args[1:]] += 1
            return originals[name](*args)
        return wrapper

    for name in originals:
        monkeypatch.setattr(operad, name, counting(name))
    second = suites.run_suite("operadic-mult", "symm")
    monkeypatch.undo()
    pairs = [(groupoid.arrow(s, f), g) for n in range(3) for s in perms.all_perms(n)
             for f in SYMMETRIC.elements(n) for g in SYMMETRIC.elements(n)]
    assert second.to_dict() == first.to_dict()
    assert continued == collections.Counter(pairs) and len(pairs) == 225
    assert counts["check_circ_functorial"] == 149_625
    assert counts["identity_arrow"] == 149_625 + 225

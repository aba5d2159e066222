"""Monoid powers: the cyclic operators, the covariant structure, and the
convention calibration."""

import random

import pytest

from csgroups import BRAID, SYMMETRIC, Tally
from csgroups import barcx
from csgroups.barcx import (
    bar_action,
    bar_degeneracy,
    bar_face,
    bar_insert,
    bar_merge,
    calibrate_conventions,
    cyclic_monoid,
    left_wins_monoid,
    standard_monoids,
    trivial_monoid,
)


def test_monoid_validation():
    m = left_wins_monoid(3)
    assert m.mult("x", "y") == "x"
    assert m.mult("y", "x") == "y"
    assert m.mult("e", "x") == "x"
    with pytest.raises(ValueError):
        # x * e = e breaks the unit law
        barcx.FiniteMonoid("bad", ("e", "x"), "e", (("e", "x"), ("e", "x")))
    with pytest.raises(ValueError):
        barcx.FiniteMonoid("bad", ("e", "x"), "q", (("e", "x"), ("x", "x")))
    with pytest.raises(ValueError):
        # subtraction-like table is not associative
        barcx.FiniteMonoid(
            "bad", ("e", "x", "y"), "e",
            (("e", "x", "y"), ("x", "e", "x"), ("y", "y", "e")))


def test_left_wins_tables():
    """Both left-wins monoids, against their tables as first written out."""
    assert left_wins_monoid(3) == barcx.FiniteMonoid(
        "left-wins3", ("e", "x", "y"), "e",
        (("e", "x", "y"), ("x", "x", "x"), ("y", "y", "y")))
    assert left_wins_monoid(4) == barcx.FiniteMonoid(
        "left-wins4", ("e", "x", "y", "z"), "e",
        (("e", "x", "y", "z"), ("x", "x", "x", "x"), ("y", "y", "y", "y"),
         ("z", "z", "z", "z")))
    with pytest.raises(ValueError):
        left_wins_monoid(5)


def test_bar_ops_frozen_values():
    m = left_wins_monoid(3)
    assert bar_face(m, 0, ("e", "x")) == ("x",)
    assert bar_face(m, 1, ("e", "x", "y")) == ("e", "x")
    assert bar_face(m, 2, ("x", "y", "e")) == ("x", "y")
    # wrap: last entry multiplies the first from the left
    assert bar_face(m, 2, ("x", "y", "y")) == ("y", "y")
    assert bar_degeneracy(m, 0, ("x",)) == ("x", "e")
    assert bar_degeneracy(m, 1, ("x", "y")) == ("x", "y", "e")
    for i in range(2):
        t = ("x", "y")
        assert bar_face(m, i, bar_degeneracy(m, i, t)) == t


def test_bar_action():
    m = left_wins_monoid(3)
    g = SYMMETRIC.element((1, 0))
    assert bar_action(SYMMETRIC, g, ("x", "y")) == ("y", "x")
    assert bar_action(SYMMETRIC, SYMMETRIC.one(1), ("x", "y")) == ("x", "y")
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 3)
        g = SYMMETRIC.random_element(rng, n)
        h = SYMMETRIC.random_element(rng, n)
        t = m.random_tuple(rng, n)
        assert bar_action(SYMMETRIC, g, bar_action(SYMMETRIC, h, t)) == \
            bar_action(SYMMETRIC, SYMMETRIC.mul(g, h), t)


def test_bar_simplicial_identities_exhaustive():
    tally = Tally()
    for monoid in standard_monoids():
        for n in range(4):
            for t in monoid.tuples(n):
                barcx.check_bar_simplicial(tally, monoid, t)
    assert tally.ok, tally.violations[0]


def test_calibration_isolates_covariant_inverse():
    conv = calibrate_conventions(left_wins_monoid(3), SYMMETRIC)
    assert conv["covariant/inverse"] is True
    assert conv["covariant/plain"] is False
    for twist in barcx.TWISTS:
        for wrap in barcx.WRAPS:
            assert conv[f"cyclic/{twist}/{wrap}"] is False


def test_commutative_monoids_cannot_separate_products():
    """On a commutative monoid the cyclic conventions still fail for a
    positional reason, so even there the covariant reading is the one
    that survives."""
    conv = calibrate_conventions(cyclic_monoid(2), SYMMETRIC)
    assert conv["covariant/inverse"] is True
    assert not conv["cyclic/inverse/last-first"]


def test_multiplying_faces_work_along_rotations():
    m = left_wins_monoid(3)
    tally = Tally()
    for n in range(1, 4):
        for shift in range(n + 1):
            g = SYMMETRIC.element(barcx.rotation(n, shift))
            for t in m.tuples(n):
                for i in range(n + 1):
                    barcx.check_delta_g_object(tally, m, SYMMETRIC, g, t, i)
    assert tally.ok, tally.violations[0]


def test_multiplying_faces_fail_off_rotations():
    m = left_wins_monoid(3)
    g = SYMMETRIC.element((0, 2, 1))
    tally = Tally()
    barcx.check_delta_g_object(tally, m, SYMMETRIC, g, ("e", "e", "x"), 1)
    assert not tally.ok


def test_covariant_identities_through_both_instances():
    m = left_wins_monoid(4)
    rng = random.Random(1)
    tally = Tally()
    for inst in (SYMMETRIC, BRAID):
        for _ in range(60):
            n = rng.randint(1, 3)
            g = inst.random_element(rng, n, 8)
            barcx.check_covariant_insert(
                tally, m, inst, g, m.random_tuple(rng, n - 1), rng.randint(0, n))
            barcx.check_covariant_merge(
                tally, m, inst, g, m.random_tuple(rng, n + 1), rng.randint(0, n))
    assert tally.ok, tally.violations[0]


@pytest.mark.parametrize("inst", [SYMMETRIC, BRAID], ids=["symm", "braid"])
@pytest.mark.parametrize("checker,length", [
    (barcx.check_covariant_insert, 1),
    (barcx.check_covariant_insert, 3),
    (barcx.check_covariant_merge, 3),
    (barcx.check_covariant_merge, 5),
])
def test_covariant_checkers_reject_wrong_length(inst, checker, length):
    """bar_insert, bar_merge and bar_action own the length checks: at
    level 2, insert takes 2 entries and merge takes 4."""
    g = inst.random_element(random.Random(0), 2, 6)
    tally = Tally()
    for i in range(3):
        with pytest.raises((ValueError, IndexError)):
            checker(tally, trivial_monoid(), inst, g, ("e",) * length, i)
    assert tally.cases == 0


def test_calibration_stops_each_reading_at_its_first_failure(monkeypatch):
    """Only whether a reading holds is read, so a failing reading
    records one violation and describes no later case."""
    tallies = []

    class Recording(Tally):
        def __init__(self):
            super().__init__()
            tallies.append(self)

    monkeypatch.setattr(barcx, "Tally", Recording)
    for monoid in standard_monoids():
        tallies.clear()
        conv = calibrate_conventions(monoid, SYMMETRIC)
        assert len(tallies) == len(conv) == 6
        assert [len(t.violations) for t in tallies] == [0 if ok else 1
                                                        for ok in conv.values()]
    assert conv == {
        "cyclic/inverse/last-first": False, "cyclic/inverse/first-last": False,
        "cyclic/plain/last-first": False, "cyclic/plain/first-last": False,
        "covariant/inverse": True, "covariant/plain": False}


ALL_HOLD = (True,) * 6
ONLY_COVARIANT_INVERSE = (False, False, False, False, True, False)


# Verdicts, in key order, and the checker calls that reach them, as the
# two loop nests that one case loop replaced gave them.
@pytest.mark.parametrize("monoid, verdicts, calls", [
    (trivial_monoid(), ALL_HOLD, (92, 44, 44)),
    (cyclic_monoid(2), ONLY_COVARIANT_INVERSE, (120, 88, 339)),
    (cyclic_monoid(3), ONLY_COVARIANT_INVERSE, (298, 186, 1623)),
    (left_wins_monoid(3), ONLY_COVARIANT_INVERSE, (205, 186, 1623)),
    (left_wins_monoid(4), ONLY_COVARIANT_INVERSE, (392, 320, 4995)),
], ids=lambda value: getattr(value, "name", None))
def test_calibration_verdicts_and_checker_calls(monkeypatch, monoid, verdicts, calls):
    counts = dict.fromkeys(["check_delta_g_object", "check_covariant_insert",
                            "check_covariant_merge"], 0)

    def counted(name, checker):
        def call(*args):
            counts[name] += 1
            checker(*args)
        return call
    for name in counts:
        monkeypatch.setattr(barcx, name, counted(name, getattr(barcx, name)))
    conv = calibrate_conventions(monoid, SYMMETRIC)
    assert list(conv) == ["cyclic/inverse/last-first", "cyclic/inverse/first-last",
                          "cyclic/plain/last-first", "cyclic/plain/first-last",
                          "covariant/inverse", "covariant/plain"]
    assert tuple(conv.values()) == verdicts
    assert tuple(counts.values()) == calls


def _recursive_tuples(monoid, n):
    """The tuples at level n as first defined: those at level n - 1, each
    extended by every element in turn."""
    if n == 0:
        return [(e,) for e in monoid.elements]
    return [prev + (e,) for prev in _recursive_tuples(monoid, n - 1)
            for e in monoid.elements]


@pytest.mark.parametrize("monoid", standard_monoids(), ids=lambda m: m.name)
def test_tuples_match_the_recursive_definition(monoid):
    for n in range(4):
        assert list(monoid.tuples(n)) == _recursive_tuples(monoid, n)


def test_insert_merge_bounds():
    m = trivial_monoid()
    with pytest.raises(IndexError):
        bar_insert(m, 3, ("e", "e"))
    with pytest.raises(IndexError):
        bar_merge(m, 1, ("e", "e"))
    with pytest.raises(IndexError):
        bar_face(m, 2, ("e", "e"))
    with pytest.raises(ValueError):
        bar_face(m, 0, ("e",))

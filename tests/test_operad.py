"""Partial compositions, their axioms, and the equivariance search."""

import collections
import random

import pytest

from csgroups import BRAID, SYMMETRIC, Tally
from csgroups.core import BraidCsg, SymmetricCsg
from csgroups import braids, groupoid, operad, perms, suites
from csgroups.groupoid import GroupoidArrow

import loops
from test_cli import SHIFTED_FAULTS
from words import word


def test_circ_frozen_values():
    a = SYMMETRIC.element((1, 0))
    assert operad.circ_set(SYMMETRIC, a, 0, a).payload == (2, 1, 0)
    one0 = SYMMETRIC.one(0)
    assert operad.circ_set(SYMMETRIC, a, 0, one0).payload == (1, 0)
    assert operad.circ_set(SYMMETRIC, a, 1, one0).payload == (1, 0)
    assert operad.circ_set(SYMMETRIC, one0, 0, a).payload == (1, 0)
    with pytest.raises(IndexError):
        operad.circ_set(SYMMETRIC, a, 2, a)


def test_circ_equals_block_oracle():
    for n in range(4):
        for m in range(4):
            for a in SYMMETRIC.elements(n):
                for b in SYMMETRIC.elements(m):
                    for i in range(n + 1):
                        assert operad.circ_set(SYMMETRIC, a, i, b).payload == \
                            perms.block_substitute(a.payload, i, b.payload)


def test_circ_braid_levels_and_projection():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(0, 2)
        m = rng.randint(0, 2)
        a = BRAID.random_element(rng, n, 5)
        b = BRAID.random_element(rng, m, 5)
        i = rng.randint(0, n)
        out = operad.circ_set(BRAID, a, i, b)
        assert out.level == n + m
        assert BRAID.underlying_perm(out) == perms.block_substitute(
            BRAID.underlying_perm(a), i, BRAID.underlying_perm(b))


def test_braid_insertion_takes_no_per_strand_step(monkeypatch):
    """circ_set on braids cables the outer word and pads the inner one
    in one pass each: with the one-strand operations (the degeneracy and
    the end insertions) patched to fail it still answers at m = 500,
    with the letters the test-side loops give."""
    a = BRAID.element(word("s1 s2^-1 s1 s2", 2))
    b = BRAID.element(word("s1 s500 s2^-1", 500))
    expected = [BRAID.mul(loops.pad(BRAID, b, i, 2 - i),
                          loops.degeneracy_power(BRAID, i, 500, a)) for i in range(3)]

    def fail(*args):
        raise AssertionError("a one-strand operation ran")
    for name in ("degeneracy", "s_left", "s_right"):
        monkeypatch.setattr(BraidCsg, name, fail)
    for i in range(3):
        c = operad.circ_set(BRAID, a, i, b)
        assert (c.level, c.payload) == (502, expected[i].payload)


def test_symmetric_insertion_takes_no_per_strand_step(monkeypatch):
    """circ_set on permutations substitutes blocks: with the one-strand
    operations patched to fail it still answers, with block_substitute
    of the operands, on interned operands and on ones above 7 points."""
    def fail(*args):
        raise AssertionError("a one-strand operation ran")
    for name in ("degeneracy", "s_left", "s_right"):
        monkeypatch.setattr(SymmetricCsg, name, fail)
    rng = random.Random(5)
    for n, m in [(0, 3), (2, 2), (3, 0), (4, 5)]:
        for _ in range(5):
            a, b = SYMMETRIC.random_element(rng, n), SYMMETRIC.random_element(rng, m)
            for i in range(n + 1):
                assert operad.circ_set(SYMMETRIC, a, i, b).payload == \
                    perms.block_substitute(a.payload, i, b.payload)


def test_operadic_mult_identity():
    rng = random.Random(1)
    tally = Tally()
    for _ in range(60):
        n = rng.randint(1, 2)
        m = rng.randint(0, 2)
        i = rng.randint(0, n)
        a, a2 = (BRAID.random_element(rng, n, 5) for _ in range(2))
        b, b2 = (BRAID.random_element(rng, m, 5) for _ in range(2))
        operad.check_operadic_mult(tally, BRAID, a, a2, i, b, b2)
    for n in range(2):
        for a in SYMMETRIC.elements(n):
            for a2 in SYMMETRIC.elements(n):
                for b in SYMMETRIC.elements(1):
                    for b2 in SYMMETRIC.elements(1):
                        for i in range(n + 1):
                            operad.check_operadic_mult(
                                tally, SYMMETRIC, a, a2, i, b, b2)
    assert tally.ok, tally.violations[0]


def test_circ_gpd_matches_components():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(0, 2)
        m = rng.randint(0, 2)
        i = rng.randint(0, n)
        x = groupoid.random_arrow(BRAID, rng, n, 5)
        v = groupoid.random_arrow(BRAID, rng, m, 5)
        out = operad.circ_gpd(BRAID, x, i, v)
        assert out.source == perms.block_substitute(x.source, i, v.source)
        j = perms.inverse(x.source)[i]
        expected = BRAID.inv(operad.circ_set(
            BRAID, BRAID.inv(x.f), j, BRAID.inv(v.f)))
        assert BRAID.equal(out.f, expected)
        assert out.level == n + m


def test_circ_gpd_rejects_slot_past_the_level():
    """perms.block_substitute owns the slot check."""
    x = GroupoidArrow((1, 0), SYMMETRIC.element((1, 0)))
    with pytest.raises(IndexError):
        operad.circ_gpd(SYMMETRIC, x, 2, x)


def test_circ_gpd_symm_consistency():
    for n in range(2):
        for m in range(2):
            for xs in perms.all_perms(n):
                for xf in SYMMETRIC.elements(n):
                    for vs in perms.all_perms(m):
                        for vf in SYMMETRIC.elements(m):
                            x = GroupoidArrow(xs, xf)
                            v = GroupoidArrow(vs, vf)
                            for i in range(n + 1):
                                out = operad.circ_gpd(SYMMETRIC, x, i, v)
                                assert groupoid.target(SYMMETRIC, out) == \
                                    perms.block_substitute(
                                        groupoid.target(SYMMETRIC, x), i,
                                        groupoid.target(SYMMETRIC, v))


def test_circ_gpd_functorial():
    rng = random.Random(3)
    tally = Tally()
    for _ in range(40):
        n = rng.randint(1, 2)
        m = rng.randint(0, 2)
        i = rng.randint(0, n)
        x = groupoid.random_arrow(BRAID, rng, n, 4)
        v = groupoid.random_arrow(BRAID, rng, m, 4)
        yf = BRAID.random_element(rng, n, 4)
        wf = BRAID.random_element(rng, m, 4)
        operad.check_circ_functorial(tally, BRAID, operad.continued(BRAID, x, yf), i,
                                     operad.continued(BRAID, v, wf))
    assert tally.ok, tally.violations[0]


def test_circ_gpd_functorial_symm():
    """Every pair of continued operands at levels 0 and 1, each
    prepared once, in every slot of the outer one."""
    operands = [operad.continued(SYMMETRIC, groupoid.arrow(s, xf), yf)
                for n in range(2) for s in perms.all_perms(n)
                for xf in SYMMETRIC.elements(n) for yf in SYMMETRIC.elements(n)]
    tally = Tally()
    for outer in operands:
        for inner in operands:
            for i in range(outer[0].level + 1):
                operad.check_circ_functorial(tally, SYMMETRIC, outer, i, inner)
    assert tally.ok, tally.violations[0]
    assert len(operands) == 9 and tally.cases == 3 * (1 + 2 * 8) * 9


def test_shifted_axioms_exhaustive_small_symm():
    car = operad.SetCarrier(SYMMETRIC)
    els = [g for n in range(2) for g in SYMMETRIC.elements(n)]
    tally = Tally()
    for lam in els:
        operad.check_shifted_units(tally, car, lam)
        for mu in els:
            for nu in els:
                operad.check_shifted_axioms(tally, car, lam, mu, nu)
    assert tally.ok, tally.violations[0]


def test_shifted_axioms_random_braid_both_carriers():
    rng = random.Random(4)
    tally = Tally()
    for car in (operad.SetCarrier(BRAID), operad.GroupoidCarrier(BRAID)):
        for _ in range(25):
            lam, mu, nu = (car.random(rng, rng.randint(1, 2), 3) for _ in range(3))
            operad.check_shifted_axioms(tally, car, lam, mu, nu)
    assert tally.ok, tally.violations[0]


def test_unshifted_view():
    view = operad.UnshiftedView(operad.SetCarrier(SYMMETRIC))
    one0 = SYMMETRIC.one(0)
    a = SYMMETRIC.element((1, 0))
    assert view.arity(a) == 2
    assert view.arity(operad.STAR) == 0
    # unit laws
    assert view.equal(view.comp(view.unit(), 1, a), a)
    assert view.equal(view.comp(a, 1, view.unit()), a)
    assert view.equal(view.comp(a, 2, view.unit()), a)
    # composing with STAR is the face
    got = view.comp(a, 1, operad.STAR)
    assert view.equal(got, SYMMETRIC.face(0, a))
    assert view.comp(one0, 1, operad.STAR) is operad.STAR
    with pytest.raises(ValueError):
        view.comp(operad.STAR, 1, a)
    with pytest.raises(IndexError):
        view.comp(a, 3, view.unit())


def test_unshifted_axioms():
    rng = random.Random(5)
    view = operad.UnshiftedView(operad.SetCarrier(BRAID))
    tally = Tally()
    for _ in range(30):
        lam = BRAID.random_element(rng, rng.randint(1, 2), 4)
        mu = operad.STAR if rng.random() < 0.3 else \
            BRAID.random_element(rng, rng.randint(0, 2), 4)
        nu = operad.STAR if rng.random() < 0.3 else \
            BRAID.random_element(rng, rng.randint(0, 2), 4)
        operad.check_unshifted_axioms(tally, view, lam, mu, nu)
    sview = operad.UnshiftedView(operad.SetCarrier(SYMMETRIC))
    els = [g for n in range(3) for g in SYMMETRIC.elements(n)]
    for lam in els[:9]:
        for mu in els[:9] + [operad.STAR]:
            for nu in els[:9] + [operad.STAR]:
                operad.check_unshifted_axioms(tally, sview, lam, mu, nu)
    assert tally.ok, tally.violations[0]


def test_equivariance_literal_right_multiplication_fails():
    """The frozen minimal counterexample: with the plain right
    translation the padded acting element lands at the wrong slot."""
    car = operad.SetCarrier(SYMMETRIC)
    mu = SYMMETRIC.element((1, 0))
    nu = SYMMETRIC.one(1)
    beta = SYMMETRIC.element((1, 0))
    verdicts = operad.equivariance_verdicts(car, mu, 0, nu, beta, SYMMETRIC.one(1))
    assert verdicts["cond1/right-mul"] is False
    assert verdicts["cond1/left-inv"] is True


def _random_equivariance_inputs(rng, car):
    m = rng.randint(0, 2)
    n = rng.randint(0, 2)
    return (car.random(rng, m, 4), rng.randint(0, m), car.random(rng, n, 4),
            car.inst.random_element(rng, n, 4), car.inst.random_element(rng, m, 4))


CARRIERS = [operad.SetCarrier(BRAID), operad.GroupoidCarrier(BRAID),
            operad.SetCarrier(SYMMETRIC), operad.GroupoidCarrier(SYMMETRIC)]


def test_equivariance_calibrated_readings():
    rng = random.Random(6)
    for car in CARRIERS:
        for _ in range(25):
            verdicts = operad.equivariance_verdicts(car, *_random_equivariance_inputs(rng, car))
            assert verdicts["cond1/left-inv"]
            assert verdicts["cond2/left-inv/slot=sigma/deg=sigma"]


# Each reading on its own, as separate definitions: the oracle the
# one-pass verdict table is checked against.

def _slot_oracle(rule, sigma, i):
    return {"literal": i, "sigma": sigma[i], "sigma-inv": sigma.index(i)}[rule]


def _condition1_oracle(car, action, mu, i, nu, beta):
    lhs = car.comp(mu, i, car.act(nu, beta, action))
    padded = car.inst.pad(beta, i, mu.level - i)
    return car.equal(lhs, car.act(car.comp(mu, i, nu), padded, action))


def _condition2_oracle(car, action, slot_rule, placement, mu, i, nu, beta):
    lhs = car.comp(car.act(mu, beta, action), i, nu)
    sigma = car.inst.underlying_perm(beta)
    j = _slot_oracle(slot_rule, sigma, i)
    inflated = car.inst.degeneracy_power(_slot_oracle(placement, sigma, i), nu.level, beta)
    return car.equal(lhs, car.act(car.comp(mu, j, nu), inflated, action))


def _verdicts_oracle(car, mu, i, nu, beta_inner, beta_outer):
    rules = ("literal", "sigma", "sigma-inv")
    verdicts = {f"cond1/{action}": _condition1_oracle(car, action, mu, i, nu, beta_inner)
                for action in operad.ACTIONS}
    for action in operad.ACTIONS:
        for slot_rule in rules:
            for placement in rules:
                verdicts[f"cond2/{action}/slot={slot_rule}/deg={placement}"] = \
                    _condition2_oracle(car, action, slot_rule, placement,
                                       mu, i, nu, beta_outer)
    return verdicts


def test_equivariance_verdicts_match_per_reading_oracle():
    """All 20 verdicts, keys in order, against each reading evaluated on
    its own; both carriers on both families, and some readings of each
    kind fail somewhere, so the comparison is not vacuous."""
    rng = random.Random(11)
    for car in CARRIERS:
        seen = set()
        for _ in range(40):
            args = _random_equivariance_inputs(rng, car)
            verdicts = operad.equivariance_verdicts(car, *args)
            assert list(verdicts.items()) == list(_verdicts_oracle(car, *args).items())
            seen |= {k for k, ok in verdicts.items() if not ok}
        assert len(verdicts) == 20
        assert any(k.startswith("cond1/") for k in seen)
        assert any(k.startswith("cond2/") for k in seen)


class _NoWork(operad.SetCarrier):
    """A carrier that fails on any composition, action or comparison."""
    comp = act = equal = None


def test_equivariance_verdicts_reject_betas_at_the_wrong_level():
    """Before any side is built."""
    car = _NoWork(SYMMETRIC)
    one0, one1 = SYMMETRIC.one(0), SYMMETRIC.one(1)
    with pytest.raises(ValueError, match="inner element's level"):
        operad.equivariance_verdicts(car, one1, 0, one0, one1, one1)
    with pytest.raises(ValueError, match="outer element's level"):
        operad.equivariance_verdicts(car, one1, 0, one0, one0, one0)


def test_equivariance_verdicts_compute_the_readings_asked_for():
    """For random subsets of the readings, exactly those keys come back,
    in table order, with the per-reading oracle's verdicts; both
    carriers on both families, and some asked readings fail."""
    rng = random.Random(12)
    table = list(operad.READINGS)
    for car in CARRIERS:
        seen = set()
        for _ in range(40):
            args = _random_equivariance_inputs(rng, car)
            asked = set(rng.sample(table, rng.randint(0, len(table))))
            verdicts = operad.equivariance_verdicts(car, *args, readings=asked)
            oracle = _verdicts_oracle(car, *args)
            assert list(verdicts.items()) == [(k, oracle[k]) for k in table if k in asked]
            seen |= {k for k, ok in verdicts.items() if not ok}
        assert any(k.startswith("cond1/") for k in seen)
        assert any(k.startswith("cond2/") for k in seen)


def test_equivariance_verdicts_refuse_unknown_readings():
    """Before any side is built; asking for no reading builds none."""
    car = _NoWork(SYMMETRIC)
    one0, one1 = SYMMETRIC.one(0), SYMMETRIC.one(1)
    with pytest.raises(ValueError, match="^unknown readings: cond3, left-inv$"):
        operad.equivariance_verdicts(car, one1, 0, one0, one0, one1,
                                     readings=["left-inv", "cond1/left-inv", "cond3"])
    assert operad.equivariance_verdicts(car, one1, 0, one0, one0, one1, readings=()) == {}


# The fold as it was before the search stopped a refuted reading: every
# reading evaluated on every input.  The reference the search's reports
# are checked against.

def _full_fold_record(tally, verdicts, car, mu, i, nu, beta_inner, beta_outer):
    describe = lambda beta: (f"{car.format(mu)}, {car.format(nu)}, "
                             f"{car.inst.format(beta)}, i={i}")
    for reading, ok in operad.equivariance_verdicts(
            car, mu, i, nu, beta_inner, beta_outer).items():
        key = f"{car.kind}/{reading}"
        verdicts[key] = verdicts.get(key, True) and ok
        if reading == suites.CALIBRATED_COND1:
            tally.check(ok, "equivariance cond1 [left-inv]",
                        lambda: describe(beta_inner))
        elif reading == suites.CALIBRATED_COND2:
            tally.check(ok, "equivariance cond2 [calibrated]",
                        lambda: describe(beta_outer))


def _full_fold_extra(verdicts):
    return {"verdicts": dict(sorted(verdicts.items())),
            "surviving": sorted(k for k, v in verdicts.items() if v)}


def _full_fold_report(monkeypatch, instance, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(suites, "_record_equivariance", _full_fold_record)
        patch.setattr(suites, "_verdict_extra", _full_fold_extra)
        return suites.run_suite("equivariance", instance, **kwargs)


@pytest.mark.parametrize("instance, kwargs", [
    ("symm", {}), ("braid", {}),
    *(("symm", {"max_level": 1, "seed": seed}) for seed in range(3)),
    *(("braid", {"seed": seed}) for seed in (1, 2, 3))])
def test_equivariance_report_equals_the_full_fold(monkeypatch, instance, kwargs):
    """The acceptance scopes, and other seeds, give the reference's
    report byte for byte."""
    expected = _full_fold_report(monkeypatch, instance, **kwargs).to_json()
    assert suites.run_suite("equivariance", instance, **kwargs).to_json() == expected


@pytest.mark.parametrize("instance, failures", [("symm", 2716), ("braid", 52)])
def test_equivariance_report_equals_the_full_fold_under_a_fault(
        monkeypatch, kept_entries, instance, failures):
    """With partial composition's block index shifted, calibrated cases
    fail too, and the reports at the acceptance scope still agree."""
    kernel, fault = SHIFTED_FAULTS["operadic-mult"]
    monkeypatch.setattr(perms, kernel, eval(fault, {"right": getattr(perms, kernel)}))
    expected = _full_fold_report(monkeypatch, instance).to_json()
    report = suites.run_suite("equivariance", instance)
    assert report.to_json() == expected
    assert report.failures == failures


def test_equivariance_search_composes_less_than_the_full_fold(monkeypatch):
    """The carriers' compositions in a warm symmetric run at the
    acceptance scope.  The full fold built three composites and four
    left-hand sides on each of the 4,947 inputs: 34,629 compositions."""
    suites.run_suite("equivariance", "symm")
    calls = collections.Counter()
    for cls in (operad.SetCarrier, operad.GroupoidCarrier):
        def counted(self, a, i, b, comp=cls.comp):
            calls[self.kind] += 1
            return comp(self, a, i, b)
        monkeypatch.setattr(cls, "comp", counted)
    inputs = suites.run_suite("equivariance", "symm").cases // 2
    assert dict(calls) == {"set": 17691, "gpd": 515}
    assert sum(calls.values()) < 7 * inputs == 34629


def test_g_like_combined_report():
    car = operad.SetCarrier(SYMMETRIC)
    mu = SYMMETRIC.element((0, 2, 1))
    nu = SYMMETRIC.element((1, 0))
    beta_inner = SYMMETRIC.element((1, 0))
    beta_outer = SYMMETRIC.element((2, 0, 1))
    verdicts = operad.equivariance_verdicts(car, mu, 1, nu,
                                            beta_inner, beta_outer)
    assert verdicts["cond1/left-inv"] is True
    assert verdicts["cond2/left-inv/slot=sigma/deg=sigma"] is True
    assert any(k.startswith("cond2/right-mul") for k in verdicts)

"""Acceptance gate: every verification target at its stated scope.

Each test runs one numbered criterion at the exact levels, trial counts
and seeds it calls for, prints a single pass/fail line, and fails if a
single counterexample shows up anywhere.  Everything is exact equality
over discrete structures; there are no tolerances to tune.

The suite reports come from the session's `run_suite` fixture, which
builds each at the suite table's defaults and seed 0; every criterion
asserts that its reports ran at exactly the scope it states.
"""

import random

from csgroups import BRAID, SYMMETRIC
from csgroups import barcx, braids, core, groupoid, kan, operad, perms, suites


def _criterion(number, ok, detail):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _suite_ok(report):
    return report.outcome == "pass"


def _reports(run_suite, *scopes):
    """The report of each (suite, instance, params) scope, asserted to
    have run at exactly those params."""
    reports = []
    for name, instance, params in scopes:
        report = run_suite(name, instance)
        assert report.params == params, (name, instance, report.params)
        reports.append(report)
    return reports


def test_criterion_01_inverse_transport(run_suite):
    rep, = _reports(run_suite, ("inverse-transport", "symm",
                                {"max_level": 4, "block_level": 2}))
    _criterion(1, _suite_ok(rep),
               f"inverse-transport identities, {rep.cases} cases "
               "(levels <= 4, block levels <= 2)")


def test_criterion_02_identity_suites(run_suite):
    reports = []
    for name in ("crossed", "simplicial", "extra-degeneracy"):
        reports += _reports(
            run_suite, (name, "symm", {"max_level": 3}),
            (name, "braid", {"trials": 1000, "max_level": 5, "word_len": 12,
                             "seed": 0}))
    ok = all(_suite_ok(r) for r in reports)
    cases = sum(r.cases for r in reports)
    _criterion(2, ok, f"crossed/simplicial/extra-degeneracy, {cases} cases "
                      "(symm exhaustive <= 3, braid 1000 trials each)")


def test_criterion_03_monoidal_operadic(run_suite):
    braid_scope = {"trials": 500, "seed": 0, "max_level": 3, "word_len": 6}
    reports = _reports(
        run_suite,
        ("monoidal", "symm", {"max_level": 2}),
        ("monoidal", "braid", braid_scope),
        ("operadic", "symm", {"max_level": 2}),
        ("operadic", "braid", braid_scope),
    )
    ok = all(_suite_ok(r) for r in reports)
    cases = sum(r.cases for r in reports)
    _criterion(3, ok, f"monoidal and degeneracy-conjugation axioms, {cases} "
                      "cases (symm exhaustive <= 2, braid 500 trials each)")


def test_criterion_04_set_operad(run_suite):
    oracle_ok = True
    oracle_cases = 0
    for n in range(4):
        for m in range(4):
            for a in SYMMETRIC.elements(n):
                for b in SYMMETRIC.elements(m):
                    for i in range(n + 1):
                        oracle_cases += 1
                        got = operad.circ_set(SYMMETRIC, a, i, b).payload
                        if got != perms.block_substitute(a.payload, i, b.payload):
                            oracle_ok = False
    reports = _reports(
        run_suite,
        ("shifted-operad", "symm", {"max_level": 2, "seed": 0}),
        ("shifted-operad", "braid",
         {"trials": 300, "seed": 0, "max_level": 2, "word_len": 4}),
    )
    ok = oracle_ok and all(_suite_ok(r) for r in reports)
    cases = oracle_cases + sum(r.cases for r in reports)
    _criterion(4, ok, f"set operad: composition matches the block oracle and "
                      f"all five shifted axiom families, {cases} cases")


def test_criterion_05_operadic_mult(run_suite):
    reports = _reports(
        run_suite,
        ("operadic-mult", "symm", {"max_level": 2}),
        ("operadic-mult", "braid",
         {"trials": 300, "seed": 0, "max_level": 2, "word_len": 5}),
    )
    ok = all(_suite_ok(r) for r in reports)
    cases = sum(r.cases for r in reports)
    _criterion(5, ok, f"multiplicativity and functoriality of the arrow "
                      f"composition, {cases} cases")


def test_criterion_06_groupoid_simplicial(run_suite):
    reports = _reports(
        run_suite,
        ("groupoid-simplicial", "symm", {"max_level": 3}),
        ("groupoid-simplicial", "braid",
         {"trials": 300, "seed": 0, "max_level": 4, "word_len": 8}),
    )
    ok = all(_suite_ok(r) for r in reports)
    cases = sum(r.cases for r in reports)
    _criterion(6, ok, f"groupoid simplicial structure and translation-action "
                      f"identities, {cases} cases")


def test_criterion_07_quotient(run_suite):
    orbits = {"orbit_level": 2, "orbit_dim": 3, "word_len": 6}
    reports = _reports(
        run_suite,
        ("quotient", "braid", {"trials": 200, "seed": 0, "max_level": 3, **orbits}),
        ("quotient", "symm", {"trials": 200, "seed": 0, "max_level": 2, **orbits}),
    )
    ok = all(_suite_ok(r) for r in reports)
    cases = sum(r.cases for r in reports)
    _criterion(7, ok, f"nerve quotient: orbit constancy, separation, operator "
                      f"commutation, {cases} cases")


def test_criterion_08_section_and_lifting(run_suite):
    section_rep, = _reports(run_suite, (
        "section", "braid",
        {"trials": 200, "seed": 0, "max_level": 3, "random_levels": [4, 5]}))
    rng = random.Random(0)
    lift_ok = True
    ks_seen = set()
    for trial in range(200):
        n = 2 if trial % 2 == 0 else 3
        k = rng.randint(0, n)
        ks_seen.add((n, k))
        g = BRAID.random_element(rng, n, 4)
        horn = kan.horn_from_filler(BRAID, g, k)
        try:
            phi = kan.lift_horn(BRAID, horn)
        except (kan.IncompatibleHorn, kan.FillError):
            lift_ok = False
            continue
        if BRAID.underlying_perm(phi) != horn.base:
            lift_ok = False
        for r, y in horn.face_items():
            if not BRAID.equal(BRAID.face(r, phi), y):
                lift_ok = False
    coverage = all((n, k) in ks_seen
                   for n in (2, 3) for k in (0, 1, n))
    ok = _suite_ok(section_rep) and lift_ok and coverage
    _criterion(8, ok, f"positive lift is simplicial ({section_rep.cases} "
                      "squares) and 200 horns lift with every face and "
                      "projection equation verified (interior and extremal k)")


def test_criterion_09_word_problem_sanity():
    g0 = braids.generator(1, 0)
    rel1 = braids.BraidWord(3, ((0, 1), (1, 1), (0, 1)))
    rel2 = braids.BraidWord(3, ((1, 1), (0, 1), (1, 1)))
    far1 = braids.BraidWord(4, ((0, 1), (2, 1)))
    far2 = braids.BraidWord(4, ((2, 1), (0, 1)))
    ab = braids.BraidWord(3, ((0, 1), (1, 1)))
    ba = braids.BraidWord(3, ((1, 1), (0, 1)))
    ok = (braids.braids_equal(rel1, rel2)
          and braids.braids_equal(far1, far2)
          and not braids.braids_equal(g0, braids.invert_word(g0))
          and not braids.braids_equal(ab, ba))
    _criterion(9, ok, "braid relation and far commutation hold; the action "
                      "distinguishes a generator from its inverse and the "
                      "two products of distinct generators")


def test_criterion_10_bar_construction(run_suite):
    rep, = _reports(run_suite, ("bar", "symm", {"max_level": 3, "trials": 200,
                                                "seed": 0, "word_len": 8}))
    surviving = rep.extra["surviving"]
    ok = (_suite_ok(rep) and surviving == ["covariant/inverse"]
          and rep.extra["multiplying_faces_along_rotations"])
    _criterion(10, ok, f"bar structure: simplicial identities on monoids "
                       f"<= 4 elements at levels <= 3, and the twisted-action "
                       f"identities pass on a noncommutative monoid under the "
                       f"calibrated convention {surviving}")


def test_criterion_11_equivariance_verdict(run_suite):
    rep_symm, rep_braid = _reports(
        run_suite,
        ("equivariance", "symm", {"max_level": 2, "seed": 0}),
        ("equivariance", "braid",
         {"trials": 200, "seed": 0, "max_level": 2, "word_len": 4}),
    )
    shared = sorted(set(rep_symm.extra["surviving"])
                    & set(rep_braid.extra["surviving"]))
    expected = [
        "gpd/cond1/left-inv",
        "gpd/cond2/left-inv/slot=sigma/deg=sigma",
        "set/cond1/left-inv",
        "set/cond2/left-inv/slot=sigma/deg=sigma",
    ]
    ok = (_suite_ok(rep_symm) and _suite_ok(rep_braid) and shared == expected)
    _criterion(11, ok, f"equivariance: condition (1) exhaustive on symm at "
                       f"levels <= 2 under the calibrated action; readings "
                       f"surviving on both instances: {shared}")


def test_criterion_12_determinism():
    ok = True
    for name, inst, kw in (
        ("crossed", "braid", dict(trials=150, seed=42)),
        ("equivariance", "braid", dict(trials=60, seed=9)),
        ("quotient", "braid", dict(trials=60, seed=5)),
    ):
        first = suites.run_suite(name, instance=inst, **kw).to_json()
        second = suites.run_suite(name, instance=inst, **kw).to_json()
        if first != second:
            ok = False
    _criterion(12, ok, "re-running suites with identical seeds and flags "
                       "reproduces byte-identical JSON reports")

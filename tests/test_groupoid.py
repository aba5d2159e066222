"""Action groupoids: arrows, the simplicial structure, the nerve and its
quotient onto plain tuples."""

import json
import random

import pytest

from csgroups import BRAID, SYMMETRIC
from csgroups import braids, core, groupoid, operad, perms
from csgroups.groupoid import GroupoidArrow, NerveSimplex


def _simplices_equal(inst, a, b):
    return a.start == b.start and groupoid.chains_equal(inst, a.chain, b.chain)


def arrow_ops(inst):
    return (lambda i, x: groupoid.face_arrow(inst, i, x),
            lambda i, x: groupoid.degeneracy_arrow(inst, i, x),
            lambda a, b: groupoid.arrows_equal(inst, a, b))


def test_target_and_composition_formula():
    rng = random.Random(0)
    for inst in (SYMMETRIC, BRAID):
        for _ in range(30):
            n = rng.randint(0, 3)
            a = groupoid.random_arrow(inst, rng, n, 6)
            t = groupoid.target(inst, a)
            assert t == perms.compose(
                a.source, perms.inverse(inst.underlying_perm(a.f)))
            g = inst.random_element(rng, n, 6)
            b, comp = groupoid.continue_arrow(inst, a, g)
            assert b.source == t and b.f is g
            assert comp.source == a.source
            assert inst.equal(comp.f, inst.mul(b.f, a.f))
            assert groupoid.composite_equals(inst, comp, b, a)
            _, comp = groupoid.continue_arrow(inst, a, inst.one(n))
            assert groupoid.arrows_equal(inst, comp, a)
            _, back = groupoid.continue_arrow(inst, a, inst.inv(a.f))
            assert groupoid.arrows_equal(
                inst, back, groupoid.identity_arrow(inst, a.source))


def test_non_composable_pair_has_no_composite():
    a = GroupoidArrow((1, 0), SYMMETRIC.element((1, 0)))
    b = GroupoidArrow((1, 0), SYMMETRIC.element((1, 0)))
    # target(a) is the identity, not (1, 0), so b . a is not defined,
    # even though c has a's source and the product of the group parts.
    c = GroupoidArrow((1, 0), SYMMETRIC.mul(b.f, a.f))
    assert groupoid.target(SYMMETRIC, a) != b.source
    assert not groupoid.composite_equals(SYMMETRIC, c, b, a)


# The doubly inverted definitions of the arrow operators, kept as the
# reference oracle for the target-side forms in groupoid and operad:
#   d_i [sigma, f] = [d_i(sigma), d_{sigma^-1(i)}(f^-1)^-1], likewise s_i,
#   [sigma, f] o_i [rho, g] = [sigma o_i rho, circ(f^-1, sigma^-1(i), g^-1)^-1].

def inverted_face(inst, i, a):
    j = perms.inverse(a.source)[i]
    return GroupoidArrow(perms.face_perm(i, a.source),
                         inst.inv(inst.face(j, inst.inv(a.f))))


def inverted_degeneracy(inst, i, a):
    j = perms.inverse(a.source)[i]
    return GroupoidArrow(perms.degeneracy_perm(i, a.source),
                         inst.inv(inst.degeneracy(j, inst.inv(a.f))))


def inverted_circ(inst, a, i, b):
    j = perms.inverse(a.source)[i]
    return GroupoidArrow(perms.block_substitute(a.source, i, b.source),
                         inst.inv(operad.circ_set(inst, inst.inv(a.f), j, inst.inv(b.f))))


def test_face_degeneracy_formulas():
    """face_arrow and degeneracy_arrow give the oracle's arrows payload
    for payload on every symmetric arrow to level 3, and circ_gpd on
    every symmetric pair to level 2; on every pair of random braid
    arrows to level 3, letter for letter.
    The second pass reads the symmetric results from the arrows' rows,
    and every symmetric result is the interned arrow."""
    rng = random.Random(1)
    samples = {
        SYMMETRIC: [groupoid.arrow(s, f) for n in range(4)
                    for s in perms.all_perms(n) for f in SYMMETRIC.elements(n)],
        BRAID: [groupoid.random_arrow(BRAID, rng, rng.randint(0, 3), 6)
                for _ in range(40)],
    }
    for _ in range(2):
        for inst, arrows in samples.items():
            inner = arrows if inst is BRAID else [b for b in arrows if b.level <= 2]
            for a in arrows:
                n = a.level
                results = []
                for i in range(n + 1):
                    if n >= 1:
                        fa = groupoid.face_arrow(inst, i, a)
                        assert fa == inverted_face(inst, i, a)
                        # faces of an arrow connect the faces of its endpoints
                        assert groupoid.target(inst, fa) == perms.face_perm(
                            i, groupoid.target(inst, a))
                        results.append(fa)
                    da = groupoid.degeneracy_arrow(inst, i, a)
                    assert da == inverted_degeneracy(inst, i, a)
                    assert groupoid.target(inst, da) == perms.degeneracy_perm(
                        i, groupoid.target(inst, a))
                    results.append(da)
                    for b in inner if n <= 2 or inst is BRAID else ():
                        c = operad.circ_gpd(inst, a, i, b)
                        assert c == inverted_circ(inst, a, i, b)
                        results.append(c)
                if inst is SYMMETRIC:
                    assert all(r is groupoid.arrow(r.source, r.f) for r in results
                               if len(r.source) <= perms._TABLE_POINTS)


@pytest.mark.usefixtures("kept_entries")
def test_only_small_arrows_are_interned():
    """Every constructor returns the interned arrow when the result is on
    at most perms._TABLE_POINTS points; a level-7 result, like a braid
    arrow, is a fresh arrow that still equals by value."""
    g = SYMMETRIC.element((1, 0, 3, 2, 5, 4, 6))
    a = groupoid.arrow((6, 5, 4, 3, 2, 1, 0), g)
    assert len(a.source) == perms._TABLE_POINTS
    swap = groupoid.arrow((1, 0), SYMMETRIC.element((1, 0)))
    small = [groupoid.face_arrow(SYMMETRIC, 1, a),
             groupoid.degeneracy_arrow(SYMMETRIC, 1, groupoid.face_arrow(SYMMETRIC, 0, a)),
             groupoid.identity_arrow(SYMMETRIC, (0, 1, 2, 3, 4, 5, 6)),
             groupoid.n_action((1, 0, 2, 3, 4, 5, 6), a),
             groupoid.hom_arrow(SYMMETRIC, (1, 0, 2), (0, 2, 1)),
             groupoid.random_arrow(SYMMETRIC, random.Random(0), 6),
             *groupoid.continue_arrow(SYMMETRIC, a, g),
             operad.circ_gpd(SYMMETRIC, swap, 1,
                             groupoid.arrow((0, 2, 1, 3, 4, 5),
                                            SYMMETRIC.element((1, 2, 0, 3, 5, 4))))]
    assert groupoid.arrow((6, 5, 4, 3, 2, 1, 0), g) is a and a.rows is not None
    for b in small:
        assert b is groupoid.arrow(b.source, b.f) and b.rows is not None, b
    for big in ([groupoid.degeneracy_arrow(SYMMETRIC, 0, a) for _ in range(2)],
                [operad.circ_gpd(SYMMETRIC, a, 0, swap) for _ in range(2)]):
        assert big[0] is not big[1] and big[0] == big[1] and big[0].level == 7
        assert big[0].rows is None
        assert groupoid.arrows_equal(SYMMETRIC, *big)
    assert groupoid.face_arrow(SYMMETRIC, 0, big[0]).rows is not None
    word = BRAID.element(braids.generator(1, 0))
    assert groupoid.arrow((1, 0), word) is not groupoid.arrow((1, 0), word)
    assert swap == GroupoidArrow((1, 0), SYMMETRIC.element((1, 0))) is not swap


def test_level_mismatch_raises_before_and_after_interning():
    """Interning never admits an arrow whose source and group part have
    different levels, and never answers for one."""
    for _ in range(2):
        for build in (GroupoidArrow, groupoid.arrow):
            with pytest.raises(ValueError, match="^source level 2 != element level 1$"):
                build((1, 0, 2), SYMMETRIC.element((1, 0)))
        groupoid.arrow((1, 0, 2), SYMMETRIC.element((1, 0, 2)))
        groupoid.arrow((1, 0), SYMMETRIC.element((1, 0)))


@pytest.mark.parametrize("op", ["face_arrow", "degeneracy_arrow", "circ_gpd"])
@pytest.mark.parametrize("order", ["float-first", "int-first"])
def test_float_index_is_refused_warm_or_cold(op, order):
    """An index must be an int, whether or not the arrow's row and the
    kernel's table already hold the int index's result; a bool acts as
    its int."""
    a = groupoid.arrow((1, 0, 2), SYMMETRIC.element((2, 0, 1)))
    b = groupoid.arrow((1, 0), SYMMETRIC.element((1, 0)))
    call = {"face_arrow": lambda i: groupoid.face_arrow(SYMMETRIC, i, a),
            "degeneracy_arrow": lambda i: groupoid.degeneracy_arrow(SYMMETRIC, i, a),
            "circ_gpd": lambda i: operad.circ_gpd(SYMMETRIC, a, i, b)}[op]
    a.rows.clear()
    for kernel in (perms.face_perm, perms.degeneracy_perm, perms.block_substitute):
        kernel.table.clear()
    for index in [1.0, 1, 1.0] if order == "float-first" else [1, 1.0]:
        if type(index) is int:
            result = call(index)
        else:
            with pytest.raises(TypeError):
                call(index)
    assert call(True) is result is call(1)


def test_identity_arrow_face():
    for n in range(1, 3):
        for p in perms.all_perms(n):
            ida = groupoid.identity_arrow(SYMMETRIC, p)
            for i in range(n + 1):
                fa = groupoid.face_arrow(SYMMETRIC, i, ida)
                assert groupoid.arrows_equal(
                    SYMMETRIC, fa,
                    groupoid.identity_arrow(SYMMETRIC, perms.face_perm(i, p)))


def test_arrow_simplicial_identities():
    rng = random.Random(2)
    face, deg, eq = arrow_ops(BRAID)
    for _ in range(25):
        n = rng.randint(1, 3)
        a = groupoid.random_arrow(BRAID, rng, n, 6)
        tally = core.Tally()
        core.simplicial_report(tally, a, n, face, deg, eq, repr)
        assert tally.ok, tally.violations[0]



@pytest.mark.parametrize("fault", [False, True], ids=["passing", "shifted-degeneracy"])
def test_arrow_checkers_over_lists_match_one_call_each(monkeypatch, fault):
    """One check_arrow_functorial call over a list of continuing
    elements, or one check_arrow_action call over all indices, records
    the cases and violations of one call per element or per index: on
    every symmetric arrow up to level 2 and on sampled braid arrows, and
    under the shifted degeneracy_perm fault of
    test_fault_after_warm_up_matches_a_fresh_run."""
    if fault:
        right = perms.degeneracy_perm
        monkeypatch.setattr(perms, "degeneracy_perm", lambda i, p: right((i + 1) % len(p), p))
    rng = random.Random(4)
    cases = [(SYMMETRIC, groupoid.arrow(s, f), list(SYMMETRIC.elements(n)),
              list(perms.all_perms(n)))
             for n in range(3) for s in perms.all_perms(n) for f in SYMMETRIC.elements(n)]
    for n in (rng.randint(1, 3) for _ in range(20)):
        cases.append((BRAID, groupoid.random_arrow(BRAID, rng, n, 6),
                      [BRAID.random_element(rng, n, 6) for _ in range(3)],
                      [perms.random_perm(rng, n) for _ in range(2)]))
    tallies = {(checker, split): core.Tally()
               for checker in ("functorial", "action") for split in ("whole", "each")}
    for inst, a, fbs, ts in cases:
        indices = range(a.level + 1)
        groupoid.check_arrow_functorial(tallies["functorial", "whole"], inst, a, fbs)
        for fb in fbs:
            groupoid.check_arrow_functorial(tallies["functorial", "each"], inst, a, [fb])
        for t in ts:
            groupoid.check_arrow_action(tallies["action", "whole"], inst, t, a, indices)
            for i in indices:
                groupoid.check_arrow_action(tallies["action", "each"], inst, t, a, [i])
    for checker in ("functorial", "action"):
        whole, each = tallies[checker, "whole"], tallies[checker, "each"]
        assert whole.cases == each.cases > 0
        assert sorted(whole.violations) == sorted(each.violations)
        assert bool(whole.violations) == fault, checker


def test_n_action():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = groupoid.random_arrow(BRAID, rng, n, 6)
        t1 = perms.random_perm(rng, n)
        t2 = perms.random_perm(rng, n)
        assert groupoid.arrows_equal(
            BRAID, groupoid.n_action(perms.identity(n), a), a)
        assert groupoid.arrows_equal(
            BRAID,
            groupoid.n_action(t1, groupoid.n_action(t2, a)),
            groupoid.n_action(perms.compose(t1, t2), a))


def test_n_action_rejects_another_level():
    """perms.compose owns the level check."""
    a = groupoid.random_arrow(BRAID, random.Random(4), 1, 6)
    with pytest.raises(ValueError, match="levels 2 and 1 differ"):
        groupoid.n_action(perms.identity(2), a)


def test_is_automorphism():
    g0 = BRAID.element(braids.generator(1, 0))
    assert not groupoid.is_automorphism(BRAID, GroupoidArrow((0, 1), g0))
    sq = BRAID.mul(g0, g0)
    assert groupoid.is_automorphism(BRAID, GroupoidArrow((0, 1), sq))
    assert groupoid.is_automorphism(
        BRAID, groupoid.identity_arrow(BRAID, (1, 0)))


def test_connectivity():
    for n in range(3):
        for src in perms.all_perms(n):
            for dst in perms.all_perms(n):
                for inst in (SYMMETRIC, BRAID):
                    arrow = groupoid.hom_arrow(inst, src, dst)
                    assert arrow.source == src
                    assert groupoid.target(inst, arrow) == dst


def test_nerve_faces_compose_inner():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(0, 2)
        s = groupoid.random_simplex(BRAID, rng, n, 2, 5)
        inner = groupoid.nerve_face(BRAID, 1, s)
        assert inner.dimension == 1
        assert BRAID.equal(inner.chain[0], BRAID.mul(s.chain[1], s.chain[0]))
        assert groupoid.nerve_face(BRAID, 0, s).chain == s.chain[:1]
        top = groupoid.nerve_face(BRAID, 2, s)
        assert top.start == perms.compose(
            s.start, perms.inverse(BRAID.underlying_perm(s.chain[0])))


def test_nerve_simplicial_identities():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(0, 2)
        m = 3
        s = groupoid.random_simplex(BRAID, rng, n, m, 4)
        for j in range(1, m + 1):
            for i in range(j):
                assert _simplices_equal(
                    BRAID,
                    groupoid.nerve_face(BRAID, i, groupoid.nerve_face(BRAID, j, s)),
                    groupoid.nerve_face(BRAID, j - 1, groupoid.nerve_face(BRAID, i, s)))
        for j in range(m + 1):
            for i in range(j + 1):
                assert _simplices_equal(
                    BRAID,
                    groupoid.nerve_degeneracy(
                        BRAID, i, groupoid.nerve_degeneracy(BRAID, j, s)),
                    groupoid.nerve_degeneracy(
                        BRAID, j + 1, groupoid.nerve_degeneracy(BRAID, i, s)))
        for j in range(m + 1):
            sj = groupoid.nerve_degeneracy(BRAID, j, s)
            for i in range(m + 2):
                if i in (j, j + 1):
                    assert _simplices_equal(
                        BRAID, groupoid.nerve_face(BRAID, i, sj), s)
                elif i < j:
                    assert _simplices_equal(
                        BRAID, groupoid.nerve_face(BRAID, i, sj),
                        groupoid.nerve_degeneracy(
                            BRAID, j - 1, groupoid.nerve_face(BRAID, i, s)))
                else:
                    assert _simplices_equal(
                        BRAID, groupoid.nerve_face(BRAID, i, sj),
                        groupoid.nerve_degeneracy(
                            BRAID, j, groupoid.nerve_face(BRAID, i - 1, s)))


def test_quotient_map_and_orbits():
    rng = random.Random(6)
    s = groupoid.random_simplex(BRAID, rng, 2, 0, 4)
    assert groupoid.quotient_map(s) == ()
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(0, 3)
        s = groupoid.random_simplex(BRAID, rng, n, m, 5)
        q = groupoid.quotient_map(s)
        assert q == tuple(reversed(s.chain))
        t = perms.random_perm(rng, n)
        moved = groupoid.nerve_n_action(t, s)
        assert groupoid.quotient_map(moved) == q
        assert groupoid.orbit_equivalent(BRAID, s, moved)


def test_quotient_commutes_with_operators():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        s = groupoid.random_simplex(BRAID, rng, n, m, 5)
        q = groupoid.quotient_map(s)
        for i in range(m + 1):
            left = groupoid.quotient_map(groupoid.nerve_face(BRAID, i, s))
            right = groupoid.opposite_nerve_face(BRAID, i, q)
            assert all(BRAID.equal(a, b) for a, b in zip(left, right))
            assert len(left) == len(right)
            dl = groupoid.quotient_map(groupoid.nerve_degeneracy(BRAID, i, s))
            dr = groupoid.opposite_nerve_degeneracy(BRAID, i, q, n)
            assert all(BRAID.equal(a, b) for a, b in zip(dl, dr))
            assert len(dl) == len(dr)


def test_emitters():
    rng = random.Random(8)
    simplices = [groupoid.random_simplex(SYMMETRIC, rng, 1, d, 0)
                 for d in (0, 1, 2)]
    payload = json.loads(groupoid.skeleton_to_json(SYMMETRIC, simplices))
    assert len(payload) == 3
    assert payload[1]["dimension"] == 1
    assert "faces" in payload[1] and "degeneracies" in payload[0]
    dot = groupoid.skeleton_to_dot(SYMMETRIC, 1)
    assert dot.startswith("digraph") and dot.count("->") == 4
    with pytest.raises(ValueError):
        groupoid.skeleton_to_dot(BRAID, 1)
    with pytest.raises(ValueError):
        groupoid.skeleton_to_dot(SYMMETRIC, 3)

"""Decomposition along the positive lift, the two-sweep filler, and horn
lifting."""

import json
import random
import time

import pytest

import lifts
from csgroups import BRAID, SYMMETRIC, BraidCsg
from csgroups import braids, cli, kan, perms
from csgroups.braids import BraidWord, generator


def test_decompose_examples():
    g = BRAID.element(BraidWord(2, ((0, 1),) * 3))
    dec = kan.decompose(BRAID, g)
    assert BRAID.is_pure(dec.p)
    assert braids.braids_equal(dec.p.payload, BraidWord(2, ((0, 1), (0, 1))))
    assert braids.braids_equal(dec.s.payload, generator(1, 0))
    assert BRAID.equal(BRAID.mul(dec.p, dec.s), g)

    pure = BRAID.element(BraidWord(2, ((0, 1), (0, 1))))
    dec = kan.decompose(BRAID, pure)
    assert BRAID.equal(dec.p, pure)
    assert BRAID.equal(dec.s, BRAID.one(1))

    lifted = BRAID.section((2, 0, 1))
    dec = kan.decompose(BRAID, lifted)
    assert BRAID.equal(dec.p, BRAID.one(2))
    assert BRAID.equal(dec.s, lifted)


def test_decompose_random_reconstruction():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 4)
        g = BRAID.random_element(rng, n, 10)
        dec = kan.decompose(BRAID, g)
        assert BRAID.is_pure(dec.p)
        assert BRAID.equal(BRAID.mul(dec.p, dec.s), g)


def test_decompose_rejects_a_section_off_the_projection(monkeypatch):
    g = BRAID.element(generator(2, 1))
    monkeypatch.setattr(BraidCsg, "section", lambda self, p: BRAID.one(len(p) - 1))
    with pytest.raises(ValueError, match="section"):
        kan.decompose(BRAID, g)


def test_impure_kernel_face_is_refused_by_moore_fill(monkeypatch, tmp_path, capsys):
    """A section off the projection does not commute with faces, so a
    kernel face is not pure: moore_fill refuses it for lift_horn, and
    kan-lift reports it in one line."""
    horn = kan.horn_from_filler(BRAID, BRAID.element(generator(2, 1)), 1)
    path = tmp_path / "horn.json"
    path.write_text(json.dumps({
        "instance": "braid", "level": horn.n, "k": horn.k,
        "base": perms.format_perm(horn.base),
        "faces": {str(r): braids.format_letters(y.payload) for r, y in horn.faces}}))
    monkeypatch.setattr(BraidCsg, "section", lambda self, p: BRAID.one(len(p) - 1))
    with pytest.raises(kan.IncompatibleHorn, match="^face 0 is not pure$") as info:
        kan.lift_horn(BRAID, horn)
    assert info.traceback[-1].name == "moore_fill"
    assert cli.main(["kan-lift", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "lift failed: face 0 is not pure\n"


@pytest.mark.parametrize("j, r", [(0, 2), (1, 0)])
def test_wrong_filler_is_refused_by_lift_horn(monkeypatch, tmp_path, capsys, j, r):
    """moore_fill does not check its filler; lift_horn's check of the
    product is the one face check of a lift.  A filler times s_j^2, a
    pure braid that changes face r of a level-2 filler and no other, is
    refused there, on the capped fill and again on the uncapped one, and
    kan-lift reports it in one line."""
    horn = kan.horn_from_filler(BRAID, BRAID.random_element(random.Random(9), 2, 4), 1)
    path = tmp_path / "horn.json"
    path.write_text(json.dumps({
        "instance": "braid", "level": horn.n, "k": horn.k,
        "base": perms.format_perm(horn.base),
        "faces": {str(t): braids.format_letters(y.payload) for t, y in horn.faces}}))
    square = BRAID.mul(BRAID.element(generator(2, j)), BRAID.element(generator(2, j)))
    fill = kan.moore_fill
    monkeypatch.setattr(kan, "moore_fill", lambda inst, *args: inst.mul(
        fill(inst, *args), square))
    message = f"lift face {r} does not match the horn"
    with pytest.raises(kan.FillError, match=f"^{message}$"):
        kan.lift_horn(BRAID, horn)
    assert cli.main(["kan-lift", str(path)]) == 1
    assert capsys.readouterr() == ("", f"lift failed: {message}\n")


def test_a_lift_compares_each_face_once(monkeypatch):
    """A compatible level-n braid lift makes n equality checks, those of
    lift_horn's check of the product; validate_horn's n(n-1)/2 pairwise
    checks ran before the fill until the capped fill came first, and
    moore_fill made n more when it re-checked the filler.  On the trivial
    level-1000 horn, the pairwise check took two faces per pair, 999,000
    in all; the lift now takes three per face."""
    calls = {"equal": 0, "face": 0}

    def counting(name):
        method = getattr(BraidCsg, name)

        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)
        return counted
    for name in calls:
        monkeypatch.setattr(BraidCsg, name, counting(name))
    rng = random.Random(20)
    horns = [kan.horn_from_filler(BRAID, BRAID.random_element(rng, n, 8), rng.randint(0, n))
             for n in range(1, 8)]
    n = cli.MAX_LEVEL
    horns.append(kan.horn_from_faces(n, 0, {r: BRAID.one(n - 1) for r in range(1, n + 1)},
                                     perms.identity(n)))
    for horn in horns:
        calls.update(equal=0, face=0)
        kan.lift_horn(BRAID, horn)
        assert calls["equal"] == horn.n
        assert calls["face"] <= 3 * horn.n


def test_validate_horn_stops_at_the_first_violation(monkeypatch):
    """The level-50 horn whose faces are all trivial but y_50 = s49 s49
    first fails on the pair (1, 50), the 49th compared; checking every
    pair made 1,225 equality checks."""
    calls = []
    equal = BraidCsg.equal
    monkeypatch.setattr(BraidCsg, "equal", lambda self, g, h: calls.append(1) or equal(
        self, g, h))
    faces = {r: BRAID.one(49) for r in range(1, 50)}
    faces[50] = BRAID.element(BraidWord(50, ((48, 1), (48, 1))))
    horn = kan.horn_from_faces(50, 0, faces, perms.identity(50))
    assert kan.validate_horn(BRAID, horn) == "d_1(y_50) != d_49(y_1)"
    assert len(calls) == 49


def _cap(horn):
    """The letter cap of lift_horn's first fill."""
    letters = sum(len(y.payload.letters) for _, y in horn.faces)
    return kan._CAP_PER_LETTER * (letters + horn.n + 1)


def _incompatible_horn(n, seed):
    """The horn cut from a 12-letter level-n filler with each face times
    two squared generators: every projection is right, and the faces
    disagree."""
    rng = random.Random(seed)
    horn = kan.horn_from_filler(BRAID, BRAID.random_element(rng, n, 12), rng.randint(0, n))
    faces = {}
    for r, y in horn.faces:
        for _ in range(2):
            square = BRAID.element(generator(n - 1, rng.randrange(n - 1)))
            y = BRAID.mul(y, BRAID.mul(square, square))
        faces[r] = y
    return kan.horn_from_faces(horn.n, horn.k, faces, horn.base)


def _counting_products(monkeypatch):
    """Wrap BraidCsg.mul; the list it returns gets each product's letters."""
    letters = []
    mul = BraidCsg.mul

    def counted(self, g, h):
        gh = mul(self, g, h)
        letters.append(len(gh.payload.letters))
        return gh
    monkeypatch.setattr(BraidCsg, "mul", counted)
    return letters


def test_an_incompatible_horn_never_builds_a_product_past_the_cap(monkeypatch):
    """The two-sweep fill is sound only on a compatible horn.  Filling
    this level-16 horn uncapped built a 1,085,944-letter product in
    143 s; the capped fill gives up before it builds a product past the
    cap, and validate_horn then refuses the horn."""
    bad = _incompatible_horn(16, 16)
    products = _counting_products(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(kan.IncompatibleHorn, match=r"^d_0\(y_1\) != d_0\(y_0\)$"):
        kan.lift_horn(BRAID, bad)
    assert time.perf_counter() - start < 1
    assert products and max(products) <= _cap(bad)


def test_moore_fill_trivial_and_from_filler():
    assert BRAID.equal(kan.moore_fill(BRAID, {0: BRAID.one(1), 2: BRAID.one(1)},
                                      2, 1), BRAID.one(2))
    rng = random.Random(1)
    for _ in range(40):
        n = rng.choice((2, 3))
        k = rng.randint(0, n)
        g = BRAID.random_element(rng, n, 5)
        q = BRAID.mul(g, BRAID.inv(BRAID.section(BRAID.underlying_perm(g))))
        faces = {r: BRAID.face(r, q) for r in range(n + 1) if r != k}
        p = kan.moore_fill(BRAID, faces, n, k)
        assert BRAID.is_pure(p)
        for r, y in faces.items():
            assert BRAID.equal(BRAID.face(r, p), y)


def test_moore_fill_rejects_impure():
    g0 = BRAID.element(generator(1, 0))
    with pytest.raises(kan.IncompatibleHorn):
        kan.moore_fill(BRAID, {0: g0, 2: g0}, 2, 1)


def test_horn_validation():
    rng = random.Random(2)
    g = BRAID.random_element(rng, 2, 5)
    horn = kan.horn_from_filler(BRAID, g, 1)
    assert kan.validate_horn(BRAID, horn) is None
    # corrupt the projection of one face
    bad_faces = dict(horn.face_items())
    bad_faces[0] = BRAID.mul(bad_faces[0], BRAID.element(generator(1, 0)))
    bad = kan.horn_from_faces(horn.n, horn.k, bad_faces, horn.base)
    assert kan.validate_horn(BRAID, bad) == "perm(y_0) != d_0(base)"
    with pytest.raises(kan.IncompatibleHorn):
        kan.lift_horn(BRAID, bad)


def test_horn_construction_errors():
    with pytest.raises(IndexError):
        kan.Horn(2, 3, (None,) * 3, (0, 1, 2))
    with pytest.raises(ValueError):
        kan.Horn(0, 0, (None,), (0,))
    with pytest.raises(ValueError):
        kan.horn_from_faces(2, 1, {0: BRAID.one(1)}, (0, 1, 2))


def test_lift_horn_all_k():
    rng = random.Random(3)
    for n in (2, 3):
        for k in range(n + 1):
            for _ in range(10):
                g = BRAID.random_element(rng, n, 5)
                horn = kan.horn_from_filler(BRAID, g, k)
                phi = kan.lift_horn(BRAID, horn)
                assert BRAID.underlying_perm(phi) == horn.base
                for r, y in horn.face_items():
                    assert BRAID.equal(BRAID.face(r, phi), y)


def test_lift_horn_symm_returns_base():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.choice((2, 3))
        k = rng.randint(0, n)
        g = SYMMETRIC.random_element(rng, n)
        horn = kan.horn_from_filler(SYMMETRIC, g, k)
        phi = kan.lift_horn(SYMMETRIC, horn)
        assert SYMMETRIC.equal(phi, g)
        assert SYMMETRIC.equal(phi, SYMMETRIC.section(horn.base))


def test_trivial_horn_lifts_to_identity():
    n = 2
    faces = {r: BRAID.one(n - 1) for r in range(n + 1) if r != 1}
    horn = kan.horn_from_faces(n, 1, faces, perms.identity(n))
    assert BRAID.equal(kan.lift_horn(BRAID, horn), BRAID.one(n))


def test_horn_json_roundtrip():
    rng = random.Random(5)
    g = BRAID.random_element(rng, 2, 4)
    horn = kan.horn_from_filler(BRAID, g, 0)
    data = {"instance": "braid", "level": horn.n, "k": horn.k,
            "base": perms.format_perm(horn.base),
            "faces": {str(r): braids.format_letters(y.payload)
                      for r, y in horn.face_items()}}
    back = kan.horn_from_json(BRAID, json.loads(json.dumps(data)))
    assert back.n == horn.n and back.k == horn.k and back.base == horn.base
    for (r, y), (r2, y2) in zip(horn.face_items(), back.face_items()):
        assert r == r2 and BRAID.equal(y, y2)
    with pytest.raises(ValueError):
        kan.horn_from_json(BRAID, {"level": 2, "k": 0, "base": "[0,1,2]",
                                   "faces": {"1": "1"}})


def _horns(inst, rng, levels, max_len, per_level):
    """Horns cut from seeded random fillers at a random missing index."""
    return [kan.horn_from_filler(inst, inst.random_element(rng, n, max_len), rng.randint(0, n))
            for n in levels for _ in range(per_level)]


def test_reduced_lift_is_the_unreduced_braid(monkeypatch):
    """moore_fill and lift_horn keep the filler freely reduced: at levels
    1-6 the lift is the braid the unreduced construction gives, by the
    free-group oracle, has no adjacent cancelling pair, and is never
    longer.  The symmetric family's hook is the identity, and its lift is
    still the lifted base, which the filler was."""
    rng = random.Random(19)
    horns = _horns(BRAID, rng, range(1, 5), 6, 10) + _horns(BRAID, rng, range(5, 7), 4, 10)
    lifts = [kan.lift_horn(BRAID, horn).payload for horn in horns]
    monkeypatch.setattr(BraidCsg, "reduced", lambda self, g: g)
    plain = [kan.lift_horn(BRAID, horn).payload for horn in horns]
    for word, unreduced in zip(lifts, plain):
        assert braids.artin_act(word) == braids.artin_act(unreduced)
        assert all(a != (b[0], -b[1]) for a, b in zip(word.letters, word.letters[1:]))
        assert len(word.letters) <= len(unreduced.letters)
    assert sum(len(w.letters) for w in lifts) < sum(len(w.letters) for w in plain)
    for horn in _horns(SYMMETRIC, rng, range(1, 5), 0, 10):
        phi = kan.lift_horn(SYMMETRIC, horn)
        assert phi is SYMMETRIC.section(horn.base) and SYMMETRIC.reduced(phi) is phi


def test_lift_of_a_long_horn_stays_short(monkeypatch):
    """The horn cut from a 12-letter filler at level 16 lifted to 524,283
    letters while the filler's word doubled at each sweep step; kept
    freely reduced, the lift and every product on the way are short.
    Counted, not timed."""
    longest = []
    mul = BraidCsg.mul

    def counted(self, g, h):
        gh = mul(self, g, h)
        longest.append(len(gh.payload.letters))
        return gh
    monkeypatch.setattr(BraidCsg, "mul", counted)
    for level, lift_bound, product_bound in ((16, 16, 64), (12, 2500, 5000)):
        longest.clear()
        g = BRAID.random_element(random.Random(level), level, 12)
        horn = kan.horn_from_filler(BRAID, g, level // 2)
        assert len(kan.lift_horn(BRAID, horn).payload.letters) <= lift_bound
        assert max(longest) <= product_bound



def _outcome(lift, inst, horn):
    """The lift's payload, or the type and message of its refusal."""
    try:
        return lift(inst, horn).payload
    except (kan.IncompatibleHorn, kan.FillError) as exc:
        return type(exc), str(exc)


def _perturbed(inst, horn, rng, factors):
    """The horn with one face, drawn by rng, times `factors` in turn."""
    faces = dict(horn.faces)
    r = horn.faces[rng.randrange(horn.n)][0]
    for factor in factors:
        faces[r] = inst.mul(faces[r], factor)
    return kan.horn_from_faces(horn.n, horn.k, faces, horn.base)


def test_lift_horn_matches_the_checked_first_reference(monkeypatch):
    """lift_horn gives what the reference gives, which checks the horn's
    equations in pairs before it fills (tests/lifts.py): the same lift,
    letter for letter, on compatible horns of both families at levels
    1-8 and every k; the same refusal, type and message, on a face times
    a squared generator, a face off its projection, the guard test's
    incompatible horns up to level 200 (none builds a product past the
    cap), an impure kernel face and a wrong filler."""
    rng = random.Random(27)
    compatible = {inst: [kan.horn_from_filler(inst, inst.random_element(rng, n, 8), k)
                         for n in range(1, 9) for k in range(n + 1)]
                  for inst in (BRAID, SYMMETRIC)}
    for inst, horns in compatible.items():
        for horn in horns:
            assert kan.lift_horn(inst, horn).payload == lifts.lift_horn(inst, horn).payload
    refused = []  # or lifted, for a face times a squared generator
    for horn in compatible[BRAID][2:]:
        j = rng.randrange(horn.n - 1)
        s = BRAID.element(generator(horn.n - 1, j))
        refused += [(BRAID, _perturbed(BRAID, horn, rng, [s, s])),
                    (BRAID, _perturbed(BRAID, horn, rng, [s]))]
    for horn in compatible[SYMMETRIC][2:]:
        swap = SYMMETRIC.element((1, 0) + tuple(range(2, horn.n)))
        refused.append((SYMMETRIC, _perturbed(SYMMETRIC, horn, rng, [swap])))
    # A squared generator leaves every face of a level-1 face trivial, and
    # may change only comparisons with the missing face at level 3.
    outcomes = [_outcome(lifts.lift_horn, inst, horn) for inst, horn in refused]
    assert [_outcome(kan.lift_horn, inst, horn) for inst, horn in refused] == outcomes
    assert sum(type(o) is tuple and o[0] is kan.IncompatibleHorn for o in outcomes) >= 100
    for n in (12, 16, 20, 50, 200):
        bad = _incompatible_horn(n, n)
        expected = _outcome(lifts.lift_horn, BRAID, bad)
        products = _counting_products(monkeypatch)
        assert _outcome(kan.lift_horn, BRAID, bad) == expected
        assert expected[0] is kan.IncompatibleHorn and max(products) <= _cap(bad)
        monkeypatch.undo()
    # Horns whose base the patched section does not lift: an impure
    # kernel face, or at level 1 a lift off the base; then a wrong filler
    # on horns at level 2.
    horns = [h for h in compatible[BRAID] if h.base != perms.identity(h.n)]
    monkeypatch.setattr(BraidCsg, "section", lambda self, p: BRAID.one(len(p) - 1))
    outcomes = [_outcome(lifts.lift_horn, BRAID, horn) for horn in horns]
    assert [_outcome(kan.lift_horn, BRAID, horn) for horn in horns] == outcomes
    assert all(type(o) is tuple for o in outcomes)
    assert sum(o[1].endswith(" is not pure") for o in outcomes) >= 20
    monkeypatch.undo()
    fill = kan.moore_fill
    refusals = 0
    for j in (0, 1):
        square = BRAID.mul(BRAID.element(generator(2, j)), BRAID.element(generator(2, j)))
        monkeypatch.setattr(kan, "moore_fill", lambda inst, *args: inst.mul(
            fill(inst, *args), square))
        for horn in compatible[BRAID][2:5]:
            expected = _outcome(lifts.lift_horn, BRAID, horn)
            assert _outcome(kan.lift_horn, BRAID, horn) == expected
            refusals += type(expected) is tuple and expected[0] is kan.FillError
    # s_j^2 changes face 2 - 2j of a level-2 filler and no other, so the
    # horn missing that face still lifts.
    assert refusals == 4


def test_horns_like_the_benchmarks_lift_without_the_pairwise_check(monkeypatch):
    """On 500 horns per level 2-4, cut from fillers of at most 12
    letters as horn-requests cuts its horns, the capped fill never gives
    up: no lift runs validate_horn."""
    calls = []
    validate = kan.validate_horn
    monkeypatch.setattr(kan, "validate_horn", lambda *args: calls.append(args) or validate(
        *args))
    rng = random.Random(12)
    for n in (2, 3, 4):
        for _ in range(500):
            g = BRAID.random_element(rng, n, 12)
            kan.lift_horn(BRAID, kan.horn_from_filler(BRAID, g, rng.randint(0, n)))
    assert calls == []

"""Decomposition along the positive lift, the two-sweep filler, and horn
lifting."""

import json
import random

import pytest

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
    assert kan.validate_horn(BRAID, horn) == []
    # corrupt the projection of one face
    bad_faces = dict(horn.face_items())
    bad_faces[0] = BRAID.mul(bad_faces[0], BRAID.element(generator(1, 0)))
    bad = kan.horn_from_faces(horn.n, horn.k, bad_faces, horn.base)
    assert any("perm" in p for p in kan.validate_horn(BRAID, bad))
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

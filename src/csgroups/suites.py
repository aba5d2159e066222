"""
Named verification suites with deterministic, seedable reports.

A suite is a SUITES entry: for each instance it supports, the default
parameters its report shows and a body holding only its case loops.
The symmetric bodies enumerate every element up to a level bound; the
braid bodies sample seeded random words.  One driver, run_suite,
resolves the parameters, seeds the one random generator, counts the
cases and builds the report.  Identical parameters and seed reproduce
the report byte for byte: iteration orders are fixed, the only
randomness comes from that generator, and counterexamples are sorted
before emission (capped at 50 entries; the full count still decides
the outcome).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import types
from itertools import chain, product

from . import barcx, braids, core, groupoid, kan, operad, perms
from .core import BRAID, INSTANCES, SYMMETRIC

MAX_RECORDED = 50
# Far above every word length in use (12 at most); a braid word's cost
# grows with its length.
MAX_WORD_LEN = 1000


@dataclasses.dataclass
class SuiteReport:
    suite: str
    instance: str
    params: dict
    cases: int
    failures: int
    counterexamples: list[dict]
    extra: dict | None = None

    @property
    def outcome(self) -> str:
        return "pass" if self.failures == 0 else "fail"

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["outcome"] = self.outcome
        if self.extra is None:
            del data["extra"]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"suite {self.suite} [{self.instance}] "
                 f"{self.outcome}: {self.cases} cases, {self.failures} failures"]
        for key, value in sorted(self.params.items()):
            lines.append(f"  param {key} = {value}")
        for ce in self.counterexamples:
            lines.append(f"  FAIL {ce['identity']}  inputs: {ce['inputs']}")
        if self.extra:
            lines.append("  extra: " + json.dumps(self.extra, sort_keys=True))
        return "\n".join(lines)


# The suite table: name -> instance -> (default params, body, least
# max_level).  The first instance registered for a name is its default.
SUITES: dict[str, dict[str, tuple]] = {}


def suite(name: str, min_level: int = 0, **defaults_by_instance):
    """Register the decorated body as suite `name` on each instance given
    as a keyword; the value holds that instance's default params, whose
    keys are exactly the params its report shows.  `min_level` is the
    least max_level the body runs at.  The body is called as
    body(inst, p, rng, tally), with the params as attributes of p, and
    may return the report's extra."""
    def register(body):
        for instance, defaults in defaults_by_instance.items():
            SUITES.setdefault(name, {})[instance] = (defaults, body, min_level)
        return body
    return register


def run_suite(name: str, instance: str | None = None, max_level: int | None = None,
              trials: int | None = None, seed: int = 0,
              word_len: int | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         + ", ".join(sorted(SUITES)))
    entries = SUITES[name]
    instance = next(iter(entries)) if instance is None else instance
    if instance not in entries:
        raise ValueError(f"suite {name!r} runs on {' and '.join(entries)}, "
                         f"not on {instance!r}")
    defaults, body, min_level = entries[instance]
    given = {"max_level": max_level, "trials": trials, "seed": seed,
             "word_len": word_len}
    for key, value in given.items():
        if value is not None and type(value) is not int:
            raise ValueError(f"{key} must be an int, got {perms.clip(repr(value))}")
    params = {key: copy.deepcopy(default) if given.get(key) is None else given[key]
              for key, default in defaults.items()}
    # Only the params the report shows are range-checked; a flag it does
    # not list is ignored, whatever its int value.
    for key, least in (("max_level", min_level), ("trials", 1), ("word_len", 0)):
        if params.get(key, least) < least:
            raise ValueError(f"{key} must be at least {least} for suite {name!r} "
                             f"on {instance}, got {params[key]}")
    if params.get("word_len", 0) > MAX_WORD_LEN:
        raise ValueError(f"word_len must be at most {MAX_WORD_LEN} for suite {name!r} "
                         f"on {instance}, got {params['word_len']}")
    tally = core.Tally()
    # The seed the report shows; a suite that lists none draws nothing.
    extra = body(INSTANCES[instance], types.SimpleNamespace(**params),
                 random.Random(params.get("seed", 0)), tally)
    bad = sorted(tally.violations)
    return SuiteReport(name, instance, params, tally.cases, len(bad),
                       [{"identity": identity, "inputs": inputs}
                        for identity, inputs in bad[:MAX_RECORDED]], extra)


def _arrows(inst, levels):
    """Every arrow at the given levels: by level, then source, then
    element."""
    return [groupoid.arrow(s, f) for n in levels
            for s in perms.all_perms(n) for f in inst.elements(n)]


def _trial_levels(p, rng, least):
    """The level of each of p.trials trials, drawn from least to
    p.max_level as the trial starts."""
    for _ in range(p.trials):
        yield rng.randint(least, p.max_level)


def _carriers(inst):
    """The operad's set carrier and groupoid carrier on an instance."""
    return operad.SetCarrier(inst), operad.GroupoidCarrier(inst)


def _operands(inst, p):
    """Each carrier with its symmetric operands: every element up to
    p.max_level, by level, and every arrow up to level 1."""
    elements = [g for n in range(p.max_level + 1) for g in inst.elements(n)]
    return zip(_carriers(inst), (elements, _arrows(inst, range(min(p.max_level, 1) + 1))))


@suite("crossed", symm={"max_level": 3})
def _crossed_symm(inst, p, rng, tally):
    for n in range(p.max_level + 1):
        for g, h, i in product(inst.elements(n), inst.elements(n), range(n + 1)):
            core.check_crossed_identities(tally, inst, g, h, i)
    for n in range(1, p.max_level + 1):
        for q, i in product(inst.elements(n), range(n + 1)):
            core.check_pure_homomorphism(tally, inst, inst.one(n), q, i)


@suite("crossed", min_level=1,
       braid={"max_level": 5, "trials": 1000, "seed": 0, "word_len": 12})
def _crossed_braid(inst, p, rng, tally):
    for n in _trial_levels(p, rng, 1):
        g = inst.random_element(rng, n, p.word_len)
        h = inst.random_element(rng, n, p.word_len)
        i = rng.randint(0, n)
        core.check_crossed_identities(tally, inst, g, h, i)
        core.check_pure_homomorphism(tally, inst, kan.decompose(inst, g).p, h, i)


@suite("simplicial", symm={"max_level": 3})
def _simplicial_symm(inst, p, rng, tally):
    for n in range(p.max_level + 1):
        for g in inst.elements(n):
            core.check_simplicial_identities(tally, inst, g)


@suite("simplicial", min_level=1,
       braid={"max_level": 5, "trials": 1000, "seed": 0, "word_len": 12})
def _simplicial_braid(inst, p, rng, tally):
    for n in _trial_levels(p, rng, 1):
        g = inst.random_element(rng, n, p.word_len)
        core.check_simplicial_identities(tally, inst, g, rng)


@suite("extra-degeneracy", symm={"max_level": 3})
def _extra_degeneracy_symm(inst, p, rng, tally):
    for n in range(p.max_level + 1):
        for g in inst.elements(n):
            core.check_extra_degeneracy(tally, inst, g)


@suite("extra-degeneracy", min_level=1,
       braid={"max_level": 5, "trials": 1000, "seed": 0, "word_len": 12})
def _extra_degeneracy_braid(inst, p, rng, tally):
    for n in _trial_levels(p, rng, 1):
        core.check_extra_degeneracy(
            tally, inst, inst.random_element(rng, n, p.word_len))


@suite("monoidal", symm={"max_level": 2})
def _monoidal_symm(inst, p, rng, tally):
    levels = range(p.max_level + 1)
    for n, m in product(levels, levels):
        for g, h in product(inst.elements(n), inst.elements(m)):
            core.check_monoidal(tally, inst, g, h)


@suite("monoidal", braid={"max_level": 3, "trials": 500, "seed": 0, "word_len": 6})
def _monoidal_braid(inst, p, rng, tally):
    for n in _trial_levels(p, rng, 0):
        m = rng.randint(0, p.max_level)
        core.check_monoidal(tally, inst,
                            inst.random_element(rng, n, p.word_len),
                            inst.random_element(rng, m, p.word_len))


@suite("operadic", symm={"max_level": 2})
def _operadic_symm(inst, p, rng, tally):
    levels = range(p.max_level + 1)
    for n, m in product(levels, levels):
        for g, h, i in product(inst.elements(n), inst.elements(m), range(n + 1)):
            core.check_operadic(tally, inst, g, h, i)


@suite("operadic", min_level=1,
       braid={"max_level": 3, "trials": 500, "seed": 0, "word_len": 6})
def _operadic_braid(inst, p, rng, tally):
    for n in _trial_levels(p, rng, 1):
        m = rng.randint(0, p.max_level)
        i = rng.randint(0, n)
        core.check_operadic(tally, inst,
                            inst.random_element(rng, n, p.word_len),
                            inst.random_element(rng, m, p.word_len), i)


@suite("inverse-transport", symm={"max_level": 4, "block_level": 2})
def _inverse_transport(inst, p, rng, tally):
    """Inverse-image transport through faces, degeneracies and block
    substitution; enumerable, so only run on the symmetric family."""
    for n in range(1, p.max_level + 1):
        for q in perms.all_perms(n):
            for j in range(1, n + 1):
                for i in range(j):
                    for kind, ok in perms.transport_verdicts(q, i, j).items():
                        tally.check(ok, f"transport {kind} i={i} j={j}",
                                    lambda: perms.format_perm(q))
    levels = range(p.block_level + 1)
    for n, m in product(levels, levels):
        for a, b, i, j in product(perms.all_perms(n), perms.all_perms(m),
                                  range(n + 1), range(m + 1)):
            tally.check(perms.block_transport_holds(a, i, b, j),
                        f"transport block i={i} j={j}",
                        lambda: f"{perms.format_perm(a)}, {perms.format_perm(b)}")


@suite("groupoid-simplicial", symm={"max_level": 3})
def _groupoid_simplicial_symm(inst, p, rng, tally):
    for n in range(p.max_level + 1):
        els = list(inst.elements(n))
        sources = list(perms.all_perms(n))
        arrows = _arrows(inst, [n])
        face_indices = range(n + 1) if n >= 1 else ()  # no faces at level 0
        for a in arrows:
            groupoid.check_arrow_simplicial(tally, inst, a)
            ida = groupoid.identity_arrow(inst, a.source)
            for i in face_indices:
                lhs = groupoid.face_arrow(inst, i, ida)
                rhs = groupoid.identity_arrow(inst, perms.face_perm(i, a.source))
                tally.check(groupoid.arrows_equal(inst, lhs, rhs), f"d_{i} preserves identities",
                            lambda: groupoid.format_arrow(inst, a))
            groupoid.check_arrow_functorial(tally, inst, a, els)
        for t, a in product(sources, arrows):
            groupoid.check_arrow_action(tally, inst, t, a, range(n + 1))
        for src, dst in product(sources, sources):
            arrow = groupoid.hom_arrow(inst, src, dst)
            tally.check(groupoid.target(inst, arrow) == dst,
                        "hom_arrow lands at its target",
                        lambda: f"{perms.format_perm(src)} -> {perms.format_perm(dst)}")


@suite("groupoid-simplicial", min_level=1,
       braid={"max_level": 4, "trials": 300, "seed": 0, "word_len": 8})
def _groupoid_simplicial_braid(inst, p, rng, tally):
    for n in _trial_levels(p, rng, 1):
        a = groupoid.random_arrow(inst, rng, n, p.word_len)
        groupoid.check_arrow_simplicial(tally, inst, a, rng)
        groupoid.check_arrow_functorial(
            tally, inst, a, [inst.random_element(rng, n, p.word_len)], rng)
        groupoid.check_arrow_action(
            tally, inst, perms.random_perm(rng, n), a, [rng.randint(0, n)])
        auto = groupoid.arrow(a.source, kan.decompose(inst, a.f).p)
        face = groupoid.face_arrow(inst, rng.randint(0, n), auto)
        describe = lambda: groupoid.format_arrow(inst, auto)
        tally.check(groupoid.is_automorphism(inst, auto),
                    "pure parts give automorphisms", describe)
        tally.check(groupoid.is_automorphism(inst, face),
                    "faces preserve automorphisms", describe)


@suite("shifted-operad", symm={"max_level": 2, "seed": 0})
def _shifted_operad_symm(inst, p, rng, tally):
    for car, operands in _operands(inst, p):
        for nu in operands:
            operad.check_shifted_units(tally, car, nu)
        for lam, mu, nu in product(operands, repeat=3):
            operad.check_shifted_axioms(tally, car, lam, mu, nu)
    for _ in range(200):  # sampled triples on the last carrier, the groupoid one
        lam, mu, nu = (car.random(rng, rng.randint(0, p.max_level), 8)
                       for _ in range(3))
        operad.check_shifted_axioms(tally, car, lam, mu, nu, rng=rng)


@suite("shifted-operad", min_level=1,
       braid={"max_level": 2, "trials": 300, "seed": 0, "word_len": 4})
def _shifted_operad_braid(inst, p, rng, tally):
    set_car, gpd_car = _carriers(inst)
    for _ in range(p.trials):
        for car in (set_car, gpd_car):
            lam, mu, nu = (car.random(rng, rng.randint(1, p.max_level), p.word_len)
                           for _ in range(3))
            operad.check_shifted_axioms(tally, car, lam, mu, nu, rng=rng)
        operad.check_shifted_units(
            tally, set_car, set_car.random(rng, rng.randint(0, p.max_level), p.word_len))


@suite("unshifted-operad", symm={"max_level": 2})
def _unshifted_operad_symm(inst, p, rng, tally):
    for car, operands in _operands(inst, p):
        view = operad.UnshiftedView(car)
        with_star = operands + [operad.STAR]
        for lam, mu, nu in product(operands, with_star, with_star):
            operad.check_unshifted_axioms(tally, view, lam, mu, nu)


@suite("unshifted-operad", min_level=1,
       braid={"max_level": 2, "trials": 300, "seed": 0, "word_len": 4})
def _unshifted_operad_braid(inst, p, rng, tally):
    set_car, gpd_car = _carriers(inst)
    # A groupoid operand's level is drawn once more, up to the level drawn for it.
    samplers = ((operad.UnshiftedView(set_car),
                 lambda n: set_car.random(rng, n, p.word_len)),
                (operad.UnshiftedView(gpd_car),
                 lambda n: gpd_car.random(rng, rng.randint(0, n), p.word_len)))
    for _ in range(p.trials):
        for view, rand in samplers:
            lam = rand(rng.randint(1, p.max_level))
            mu = operad.STAR if rng.random() < 0.25 else rand(rng.randint(0, p.max_level))
            nu = operad.STAR if rng.random() < 0.25 else rand(rng.randint(0, p.max_level))
            operad.check_unshifted_axioms(tally, view, lam, mu, nu)


@suite("operadic-mult", symm={"max_level": 2})
def _operadic_mult_symm(inst, p, rng, tally):
    levels = range(p.max_level + 1)
    for n, m in product(levels, levels):
        outer = list(inst.elements(n))
        inner = list(inst.elements(m))
        for a, a2, b, b2, i in product(outer, outer, inner, inner, range(n + 1)):
            operad.check_operadic_mult(tally, inst, a, a2, i, b, b2)
    operands = {n: [operad.continued(inst, x, yf)
                    for x, yf in product(_arrows(inst, [n]), inst.elements(n))]
                for n in levels}
    for n, m in product(levels, levels):
        for outer, inner, i in product(operands[n], operands[m], range(n + 1)):
            operad.check_circ_functorial(tally, inst, outer, i, inner)


@suite("operadic-mult", min_level=1,
       braid={"max_level": 2, "trials": 300, "seed": 0, "word_len": 5})
def _operadic_mult_braid(inst, p, rng, tally):
    wl = p.word_len
    for n in _trial_levels(p, rng, 1):
        m = rng.randint(0, p.max_level)
        i = rng.randint(0, n)
        operad.check_operadic_mult(
            tally, inst,
            inst.random_element(rng, n, wl), inst.random_element(rng, n, wl),
            i,
            inst.random_element(rng, m, wl), inst.random_element(rng, m, wl))
        x = groupoid.random_arrow(inst, rng, n, wl)
        v = groupoid.random_arrow(inst, rng, m, wl)
        yf = inst.random_element(rng, n, wl)
        wf = inst.random_element(rng, m, wl)
        operad.check_circ_functorial(tally, inst, operad.continued(inst, x, yf), i,
                                     operad.continued(inst, v, wf))


# Interpretation search for the two equivariance conditions on both
# carriers.  The suite passes when the calibrated readings (the inverse
# left translation, with the acting element's slot and degeneracy index
# transported through its own permutation) hold on every tested input;
# the verdict table for all readings lands in the report's extra field.
# The calibrated readings are the suite's cases, so they are evaluated
# on every input; any other reading only until its first failure, since
# only whether it holds is kept, as in barcx.calibrate_conventions.
CALIBRATED_COND1 = "cond1/left-inv"
CALIBRATED_COND2 = "cond2/left-inv/slot=sigma/deg=sigma"


def _record_equivariance(tally, search, car, mu, i, nu, beta_inner, beta_outer):
    """Fold the verdicts on one input into `search`, which keeps per
    carrier kind the verdict table and the readings still asked for;
    the calibrated readings count as the suite's cases."""
    describe = lambda beta: (f"{car.format(mu)}, {car.format(nu)}, "
                             f"{car.inst.format(beta)}, i={i}")
    if car.kind not in search:
        search[car.kind] = (dict.fromkeys(operad.READINGS, True), set(operad.READINGS))
    verdicts, asked = search[car.kind]
    for reading, ok in operad.equivariance_verdicts(
            car, mu, i, nu, beta_inner, beta_outer, asked).items():
        if reading == CALIBRATED_COND1:
            tally.check(ok, "equivariance cond1 [left-inv]",
                        lambda: describe(beta_inner))
        elif reading == CALIBRATED_COND2:
            tally.check(ok, "equivariance cond2 [calibrated]",
                        lambda: describe(beta_outer))
        elif not ok:
            asked.discard(reading)
        if not ok:
            verdicts[reading] = False


def _verdict_extra(search):
    verdicts = {f"{kind}/{reading}": ok for kind, (table, _) in search.items()
                for reading, ok in table.items()}
    return {"verdicts": dict(sorted(verdicts.items())),
            "surviving": sorted(k for k, v in verdicts.items() if v)}


@suite("equivariance", symm={"max_level": 2, "seed": 0})
def _equivariance_symm(inst, p, rng, tally):
    set_car, gpd_car = _carriers(inst)
    search: dict = {}
    levels = range(p.max_level + 1)
    for m, n in product(levels, levels):
        for mu, nu, i, beta_inner, beta_outer in product(
                inst.elements(m), inst.elements(n), range(m + 1),
                inst.elements(n), inst.elements(m)):
            _record_equivariance(tally, search, set_car, mu, i, nu,
                                 beta_inner, beta_outer)
    for _ in range(150):
        m = rng.randint(0, p.max_level)
        n = rng.randint(0, p.max_level)
        mu = groupoid.random_arrow(inst, rng, m)
        nu = groupoid.random_arrow(inst, rng, n)
        _record_equivariance(tally, search, gpd_car, mu, rng.randint(0, m), nu,
                             inst.random_element(rng, n), inst.random_element(rng, m))
    return _verdict_extra(search)


@suite("equivariance", braid={"max_level": 2, "trials": 200, "seed": 0, "word_len": 4})
def _equivariance_braid(inst, p, rng, tally):
    set_car, gpd_car = _carriers(inst)
    search: dict = {}
    for m in _trial_levels(p, rng, 0):
        n = rng.randint(0, p.max_level)
        i = rng.randint(0, m)
        mu_el = inst.random_element(rng, m, p.word_len)
        nu_el = inst.random_element(rng, n, p.word_len)
        bi = inst.random_element(rng, n, p.word_len)
        bo = inst.random_element(rng, m, p.word_len)
        _record_equivariance(tally, search, set_car, mu_el, i, nu_el, bi, bo)
        mu_ar = groupoid.arrow(perms.random_perm(rng, m), mu_el)
        nu_ar = groupoid.arrow(perms.random_perm(rng, n), nu_el)
        _record_equivariance(tally, search, gpd_car, mu_ar, i, nu_ar, bi, bo)
    return _verdict_extra(search)


@suite("section", braid={"max_level": 3, "random_levels": [4, 5],
                         "trials": 200, "seed": 0})
def _section(inst, p, rng, tally):
    """The positive-lift squares; inherently about the braid family."""
    exhaustive = ((q, i) for n in range(p.max_level + 1)
                  for q in perms.all_perms(n) for i in range(n + 1))
    drawn = (perms.random_perm(rng, rng.choice(p.random_levels)) for _ in range(p.trials))
    sampled = ((q, rng.randint(0, len(q) - 1)) for q in drawn)  # q has level len(q) - 1
    for q, i in chain(exhaustive, sampled):
        tally.check(braids.section_is_simplicial(q, i),
                    f"section square at {i}", lambda: perms.format_perm(q))


@suite("bar", symm={"max_level": 3, "trials": 200, "seed": 0, "word_len": 8},
       braid={"max_level": 3, "trials": 200, "seed": 0, "word_len": 8})
def _bar(inst, p, rng, tally):
    """Runs the symmetric levels exhaustively and samples braid words,
    whichever instance it is asked for."""
    for monoid in barcx.standard_monoids():
        for n in range(p.max_level + 1):
            for t in monoid.tuples(n):
                barcx.check_bar_simplicial(tally, monoid, t)
    noncomm = barcx.left_wins_monoid(3)
    conventions = barcx.calibrate_conventions(noncomm, SYMMETRIC)
    surviving = sorted(k for k, v in conventions.items() if v)
    tally.check(bool(surviving), "some action convention survives",
                lambda: json.dumps(conventions, sort_keys=True))
    # Exhaustive run of the surviving (covariant) reading on the
    # noncommutative monoid.
    for n in range(1, 3):
        for g in SYMMETRIC.elements(n):
            for x, i in product(noncomm.tuples(n - 1), range(n + 1)):
                barcx.check_covariant_insert(tally, noncomm, SYMMETRIC, g, x, i)
            for x, j in product(noncomm.tuples(n + 1), range(n + 1)):
                barcx.check_covariant_merge(tally, noncomm, SYMMETRIC, g, x, j)
    # The multiplying faces stay compatible along rotations.
    before = len(tally.violations)
    for n in range(1, p.max_level + 1):
        for shift in range(n + 1):
            g = SYMMETRIC.element(barcx.rotation(n, shift))
            for t, i in product(noncomm.tuples(n), range(n + 1)):
                barcx.check_delta_g_object(tally, noncomm, SYMMETRIC, g, t, i)
    rotations_ok = len(tally.violations) == before
    big = barcx.left_wins_monoid(4)
    for _ in range(p.trials):
        n = rng.randint(1, 3)
        g = BRAID.random_element(rng, n, p.word_len)
        barcx.check_covariant_insert(
            tally, big, BRAID, g, big.random_tuple(rng, n - 1), rng.randint(0, n))
        barcx.check_covariant_merge(
            tally, big, BRAID, g, big.random_tuple(rng, n + 1), rng.randint(0, n))
    return {"conventions": conventions, "surviving": surviving,
            "multiplying_faces_along_rotations": rotations_ok}


@suite("quotient", min_level=1,
       symm={"orbit_level": 2, "orbit_dim": 3, "max_level": 2, "trials": 200,
             "seed": 0, "word_len": 6},
       braid={"orbit_level": 2, "orbit_dim": 3, "max_level": 3, "trials": 200,
              "seed": 0, "word_len": 6})
def _quotient(inst, p, rng, tally):
    for n in range(p.orbit_level + 1):
        translations = list(perms.all_perms(n))
        els = list(SYMMETRIC.elements(n))
        for m in range(p.orbit_dim + 1):
            for start, chain in product(translations, product(els, repeat=m)):
                s = groupoid.NerveSimplex(start, chain)
                q = groupoid.quotient_map(s)
                for t in translations:
                    moved = groupoid.nerve_n_action(t, s)
                    same = groupoid.chains_equal(SYMMETRIC, groupoid.quotient_map(moved), q)
                    tally.check(same and len(q) == m, "quotient constant on orbits",
                                lambda: f"{perms.format_perm(start)} m={m}")
    for n in _trial_levels(p, rng, 1):
        m = rng.randint(0, p.orbit_dim)
        where = lambda: f"level {n} dim {m}"
        s = groupoid.random_simplex(inst, rng, n, m, p.word_len)
        q = groupoid.quotient_map(s)
        t = perms.random_perm(rng, n)
        moved = groupoid.nerve_n_action(t, s)
        tally.check(groupoid.orbit_equivalent(inst, s, moved),
                    "translates stay in one orbit", where)
        tally.check(groupoid.chains_equal(inst, groupoid.quotient_map(moved), q),
                    "quotient constant on orbits", where)
        if m >= 1:
            other = groupoid.random_simplex(inst, rng, n, m, p.word_len)
            quot_equal = groupoid.chains_equal(inst, q, groupoid.quotient_map(other))
            tally.check(
                quot_equal == groupoid.orbit_equivalent(
                    inst, groupoid.NerveSimplex(s.start, s.chain),
                    groupoid.NerveSimplex(s.start, other.chain)),
                "quotient separates orbits", where)
        for i in range(m + 1):
            if m >= 1:
                tally.check(
                    groupoid.chains_equal(inst, groupoid.quotient_map(
                        groupoid.nerve_face(inst, i, s)),
                        groupoid.opposite_nerve_face(inst, i, q)),
                    f"quotient commutes with d_{i}", where)
            tally.check(
                groupoid.chains_equal(inst, groupoid.quotient_map(
                    groupoid.nerve_degeneracy(inst, i, s)),
                    groupoid.opposite_nerve_degeneracy(inst, i, q, n)),
                f"quotient commutes with s_{i}", where)

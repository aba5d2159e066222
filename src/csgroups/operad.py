"""
Partial compositions on the level groups and on their action groupoids.

The composition circ_set inserts an inner element into slot i of an
outer one by padding the inner element into position and multiplying by
the iterated degeneracy of the outer one,

    circ(a, i, b) = pad(b, i, n - i) * s_i^m(a),

landing at level n + m.  Together with the faces this makes the level
sequence a shifted operad: levels add under composition, the face maps
play the role of composing with the empty slot, and re-indexing
arity(n) = level + 1 recovers the classical 1-based axioms (the
UnshiftedView adapter below exposes that view, with a unique nullary
element represented by STAR).

On arrows the composition acts by block substitution on sources.  On
group parts it pads the inner part into the slot j = sigma^-1(i) that
the source sends to i, and multiplies it on the left by the outer
part's iterated degeneracy at the index that the outer target tau sends
to i:

    [sigma, f] o_i [rho, g] = [sigma o_i rho, s_k^m(f) * pad(g, j, n - j)],
    k = tau^-1(i) = pi(f)(j).

The multiplicativity law check_operadic_mult is exactly what makes this
a functor in both variables.

Right G-actions are equivariance data for the compositions.  The
literal right translation does not commute with the compositions at a
fixed padding slot (the slot drifts along the outer element's inverse
permutation), so READINGS enumerates candidate readings (which action,
which slot index, where the degeneracies that inflate the acting
element go), and equivariance_verdicts reports which of the readings it
is asked for hold on one input, building only the sides they need.
"""

from __future__ import annotations

from . import perms
from .core import CsgElement, CsgInstance, Tally, _keep
from .groupoid import (
    GroupoidArrow,
    arrow,
    arrows_equal,
    continue_arrow,
    face_arrow,
    format_arrow,
    identity_arrow,
    n_action,
    random_arrow,
    target,
)


def circ_set(inst: CsgInstance, a: CsgElement, i: int, b: CsgElement) -> CsgElement:
    """Insert b into slot i of a; levels add."""
    n, m = a.level, b.level
    if not 0 <= i <= n:
        raise IndexError(f"slot {i} out of range at level {n}")
    return inst.mul(inst.pad(b, i, n - i), inst.degeneracy_power(i, m, a))


def circ_gpd(inst: CsgInstance, a: GroupoidArrow, i: int, b: GroupoidArrow) -> GroupoidArrow:
    """Insert arrow b into slot i of arrow a; an interned a keeps interned
    results by slot and b, as perms.spend allows, in a row keyed by the
    kernels of the symmetric path (block_substitute, identity, compose).
    An interned arrow is never freed (its element keeps it), so its id
    is a stable key.  The row is read first; only a miss builds."""
    n = a.f.level
    kernels = a.rows is not None and (perms.block_substitute, perms.identity, perms.compose)
    row = kernels and a.rows.get(kernels)
    if row and type(i) is int and 0 <= i <= n:
        c = row.get((n + 1) * id(b) + i)
        if c:
            return c
    src = perms.block_substitute(a.source, i, b.source)
    j = a.source.index(i)
    k = inst.underlying_perm(a.f)[j]
    c = arrow(src, inst.mul(inst.degeneracy_power(k, b.level, a.f), inst.pad(b.f, j, n - j)))
    if kernels and type(i) is int and b.rows is not None:  # block_substitute took i
        _keep(a, kernels, {}, (n + 1) * id(b) + i, c)
    return c


def check_operadic_mult(tally: Tally, inst: CsgInstance, a: CsgElement,
                        a2: CsgElement, i: int, b: CsgElement, b2: CsgElement):
    """(a o_i b) * (a2 o_{a^-1(i)} b2) == (a a2) o_i (b b2)."""
    ab = circ_set(inst, a, i, b)
    ai = inst.underlying_perm(a).index(i)
    lhs = inst.mul(ab, circ_set(inst, a2, ai, b2))
    rhs = circ_set(inst, inst.mul(a, a2), i, inst.mul(b, b2))
    tally.check(inst.equal(lhs, rhs), f"(a o_{i} b)*(a2 o_{ai} b2) == a*a2 o_{i} b*b2",
                lambda: ", ".join(inst.format(x) for x in (a, a2, b, b2)))


class SetCarrier:
    """The shifted operad on plain group elements."""

    kind = "set"

    def __init__(self, inst: CsgInstance):
        self.inst = inst

    def comp(self, a, i, b):
        return circ_set(self.inst, a, i, b)

    def face(self, i, a):
        return self.inst.face(i, a)

    def equal(self, a, b) -> bool:
        return self.inst.equal(a, b)

    def one(self, n):
        return self.inst.one(n)

    def format(self, a) -> str:
        return self.inst.format(a)

    def act(self, a, beta: CsgElement, action: str):
        if action == "right-mul":
            return self.inst.mul(a, beta)
        return self.inst.mul(self.inst.inv(beta), a)  # "left-inv"

    def random(self, rng, n, max_len):
        return self.inst.random_element(rng, n, max_len)


class GroupoidCarrier:
    """The shifted operad on groupoid arrows."""

    kind = "gpd"

    def __init__(self, inst: CsgInstance):
        self.inst = inst

    def comp(self, a, i, b):
        return circ_gpd(self.inst, a, i, b)

    def face(self, i, a):
        return face_arrow(self.inst, i, a)

    def equal(self, a, b) -> bool:
        return arrows_equal(self.inst, a, b)

    def one(self, n):
        return identity_arrow(self.inst, perms.identity(n))

    def format(self, a) -> str:
        return format_arrow(self.inst, a)

    def act(self, a, beta: CsgElement, action: str):
        pb = self.inst.underlying_perm(beta)
        if action == "right-mul":
            part = self.inst.mul(self.inst.mul(self.inst.inv(beta), a.f), beta)
            return arrow(perms.compose(a.source, pb), part)
        return n_action(perms.inverse(pb), a)  # "left-inv"

    def random(self, rng, n, max_len):
        return random_arrow(self.inst, rng, n, max_len)


def check_shifted_axioms(tally: Tally, car, lam, mu, nu, rng=None):
    """
    Index instantiations of the five shifted-operad families on one
    triple: sequential composition (1), parallel composition (2), and
    the three face/composition exchange laws (3, 4, 5).  All admissible
    indices are enumerated; passing an rng samples one instantiation
    per family instead.
    """
    l, m = lam.level, mu.level
    inputs = lambda: ", ".join(car.format(x) for x in (lam, mu, nu))

    def pick(pairs):
        if rng is None or not pairs:
            return pairs
        return [pairs[rng.randrange(len(pairs))]]

    slots = [(i, j) for i in range(l + 1) for j in range(m + 1)]
    ordered = [(i, k) for i in range(l + 1) for k in range(i + 1, l + 1)]
    for i, j in pick(slots):
        tally.check(car.equal(car.comp(car.comp(lam, i, mu), i + j, nu),
                              car.comp(lam, i, car.comp(mu, j, nu))),
                    f"(x o_{i} y) o_{i + j} z == x o_{i} (y o_{j} z)", inputs)
    for i, k in pick(ordered):
        tally.check(car.equal(car.comp(car.comp(lam, i, mu), k + m, nu),
                              car.comp(car.comp(lam, k, nu), i, mu)),
                    f"(x o_{i} y) o_{k}+m z == (x o_{k} z) o_{i} y", inputs)
    if m >= 1:
        for i, j in pick(slots):
            tally.check(car.equal(car.face(i + j, car.comp(lam, i, mu)),
                                  car.comp(lam, i, car.face(j, mu))),
                        f"d_{i}+{j}(x o_{i} y) == x o_{i} d_{j}(y)", inputs)
    if l >= 1:
        # Deleting input i below the insertion slot shifts the slot down.
        for i, k in pick(ordered):
            tally.check(car.equal(car.face(i, car.comp(lam, k, nu)),
                                  car.comp(car.face(i, lam), k - 1, nu)),
                        f"d_{i}(x o_{k} z) == d_{i}(x) o_{k}-1 z", inputs)
        for i, k in pick(ordered):
            tally.check(car.equal(car.face(k + m, car.comp(lam, i, mu)),
                                  car.comp(car.face(k, lam), i, mu)),
                        f"d_{k}+m(x o_{i} y) == d_{k}(x) o_{i} y", inputs)


def check_shifted_units(tally: Tally, car, nu):
    """one(0) is a two-sided unit for the compositions."""
    unit = car.one(0)
    inputs = lambda: car.format(nu)
    tally.check(car.equal(car.comp(unit, 0, nu), nu), "id o_0 z == z", inputs)
    for i in range(nu.level + 1):
        tally.check(car.equal(car.comp(nu, i, unit), nu), f"z o_{i} id == z", inputs)


class _Star:
    """The unique nullary element of the 1-based view."""

    def __repr__(self):
        return "*"


STAR = _Star()


class UnshiftedView:
    """
    1-based re-indexing: a carrier element of level n has arity n + 1,
    composition slot i becomes slot i - 1 underneath, and composing with
    STAR in slot i takes the face at i - 1.
    """

    def __init__(self, car):
        self.car = car

    def arity(self, x) -> int:
        return 0 if x is STAR else x.level + 1

    def comp(self, x, i, y):
        if x is STAR:
            raise ValueError("the nullary element has no slots")
        if not 1 <= i <= self.arity(x):
            raise IndexError(f"slot {i} out of range for arity {self.arity(x)}")
        if y is STAR:
            if self.arity(x) == 1:
                return STAR
            return self.car.face(i - 1, x)
        return self.car.comp(x, i - 1, y)

    def equal(self, x, y) -> bool:
        if x is STAR or y is STAR:
            return x is STAR and y is STAR
        return self.car.equal(x, y)

    def unit(self):
        return self.car.one(0)

    def format(self, x) -> str:
        return "*" if x is STAR else self.car.format(x)


def check_unshifted_axioms(tally: Tally, view: UnshiftedView, lam, mu, nu):
    """Classical 1-based axioms, with STAR allowed for mu and nu."""
    inputs = lambda: ", ".join(view.format(x) for x in (lam, mu, nu))

    unit = view.unit()
    if nu is not STAR:
        tally.check(view.equal(view.comp(unit, 1, nu), nu), "id o_1 z == z", inputs)
        for i in range(1, view.arity(nu) + 1):
            tally.check(view.equal(view.comp(nu, i, unit), nu), f"z o_{i} id == z", inputs)

    la, ma = view.arity(lam), view.arity(mu)
    for i in range(1, la + 1):
        for j in range(1, ma + 1):
            tally.check(view.equal(view.comp(view.comp(lam, i, mu), i + j - 1, nu),
                                   view.comp(lam, i, view.comp(mu, j, nu))),
                        f"(x o_{i} y) o_{i}+{j}-1 z == x o_{i} (y o_{j} z)", inputs)
    for i in range(1, la + 1):
        for k in range(i + 1, la + 1):
            tally.check(view.equal(view.comp(view.comp(lam, i, mu), k - 1 + ma, nu),
                                   view.comp(view.comp(lam, k, nu), i, mu)),
                        f"(x o_{i} y) o_{k}-1+m z == (x o_{k} z) o_{i} y", inputs)


# Candidate readings for the equivariance conditions.

ACTIONS = ("right-mul", "left-inv")
SLOT_RULES = ("literal", "sigma", "sigma-inv")
# Every reading in table order, with its action and, for condition (2),
# the rules that give its slot j and its inflation index k.
READINGS = {f"cond1/{action}": (action, None, None) for action in ACTIONS}
READINGS.update((f"cond2/{action}/slot={slot}/deg={deg}", (action, slot, deg))
                for action in ACTIONS for slot in SLOT_RULES for deg in SLOT_RULES)


def equivariance_verdicts(car, mu, i: int, nu, beta_inner: CsgElement,
                          beta_outer: CsgElement, readings=READINGS) -> dict[str, bool]:
    """
    Verdicts for one input tuple under the given candidate readings
    (every reading by default), keyed in table order.  beta_inner acts
    at nu's level, beta_outer at mu's level.

    Condition (1), under each action: mu o_i (nu acted by beta_inner)
    == (mu o_i nu) acted by the padding of beta_inner into slot i.

    Condition (2), under each (action, slot, placement) reading:
    (mu acted by beta_outer) o_i nu == (mu o_j nu) acted by the
    degeneracy inflation s_k^n(beta_outer), where the slot j and the
    inflation index k are each i itself, sigma(i) or sigma^-1(i) for
    sigma = pi(beta_outer).

    A side is built only when a requested reading first needs it, and
    once per call: each action's left-hand side, the padding, and the
    composite and the inflation by the value of j and of k, which
    several rules may share.
    """
    inst = car.inst
    m, n = mu.level, nu.level
    if beta_inner.level != n:
        raise ValueError("beta must live at the inner element's level")
    if beta_outer.level != m:
        raise ValueError("beta must live at the outer element's level")
    wanted = set(readings)
    if not wanted <= READINGS.keys():
        raise ValueError(f"unknown readings: {', '.join(sorted(wanted - READINGS.keys()))}")
    sigma = inst.underlying_perm(beta_outer)
    slots = {"literal": i, "sigma": sigma[i], "sigma-inv": sigma.index(i)}
    sides = {}

    def side(key, build):
        if key not in sides:
            sides[key] = build()
        return sides[key]

    verdicts: dict[str, bool] = {}
    for reading, (action, slot_rule, placement) in READINGS.items():
        if reading not in wanted:
            continue
        if slot_rule is None:
            lhs = side(("cond1", action),
                       lambda: car.comp(mu, i, car.act(nu, beta_inner, action)))
            j, acting = i, side("pad", lambda: inst.pad(beta_inner, i, m - i))
        else:
            lhs = side(("cond2", action),
                       lambda: car.comp(car.act(mu, beta_outer, action), i, nu))
            j, k = slots[slot_rule], slots[placement]
            acting = side(("deg", k), lambda: inst.degeneracy_power(k, n, beta_outer))
        composite = side(("comp", j), lambda: car.comp(mu, j, nu))
        verdicts[reading] = car.equal(lhs, car.act(composite, acting, action))
    return verdicts


def continued(inst: CsgInstance, a: GroupoidArrow, g: CsgElement) -> tuple[GroupoidArrow, ...]:
    """One operand of check_circ_functorial: a, the arrow [target(a), g]
    that continues it, their composite, and the identity at a's source."""
    return (a, *continue_arrow(inst, a, g), identity_arrow(inst, a.source))


def check_circ_functorial(tally: Tally, inst: CsgInstance, outer, i: int, inner):
    """circ_gpd preserves identities, targets and composition on the
    operands outer = continued(x, yf) and inner = continued(v, wf), which
    a caller prepares once and reuses across slots and partners.  It
    draws nothing, so a sampling caller keeps its own order of draws."""
    x, y, comp_outer, id_outer = outer
    v, w, comp_inner, id_inner = inner
    inputs = lambda: ", ".join(format_arrow(inst, a) for a in (x, y, v, w))

    xv = circ_gpd(inst, x, i, v)
    yw = circ_gpd(inst, y, i, w)
    xy = circ_gpd(inst, comp_outer, i, comp_inner)
    t = target(inst, xv)  # once, for both laws below

    tally.check(t == perms.block_substitute(y.source, i, w.source),
                "target(x o_i v) == target(x) o_i target(v)", inputs)
    tally.check(t == yw.source and xy.source == xv.source  # composite_equals(xy, yw, xv)
                and inst.equal(xy.f, inst.mul(yw.f, xv.f)),
                "(y.x) o_i (w.v) == (y o_i w).(x o_i v)", inputs)
    ids = circ_gpd(inst, id_outer, i, id_inner)
    tally.check(arrows_equal(inst, ids, identity_arrow(inst, ids.source)),
                "id o_i id == id", inputs)

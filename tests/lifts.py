"""The reference for kan.lift_horn: the horn's equations checked in
pairs first (kan.validate_horn), then the uncapped two-sweep fill, then
the checks of the product, each failure raised as it is found.  It
calls kan.moore_fill through the module, so a filler patched there is
the filler of both."""

from csgroups import kan


def lift_horn(inst, horn):
    problem = kan.validate_horn(inst, horn)
    if problem is not None:
        raise kan.IncompatibleHorn(problem)
    s = inst.section(horn.base)
    kernel_faces = {r: inst.mul(y, inst.inv(inst.face(r, s))) for r, y in horn.faces}
    p = kan.moore_fill(inst, kernel_faces, horn.n, horn.k)
    phi = inst.reduced(inst.mul(p, s))
    if inst.underlying_perm(phi) != horn.base:
        raise kan.FillError("lift does not project to the base")
    for r, y in horn.faces:
        if not inst.equal(inst.face(r, phi), y):
            raise kan.FillError(f"lift face {r} does not match the horn")
    return phi

"""The reference for the insertion kernels of both families: the
degeneracy applied m times and padding by trivial points, written as
loops over one-strand steps.  The symmetric degeneracy step is the
instance's own (perms.degeneracy_perm, not the block substitution of
its _cable).  The braid degeneracy and the end insertions of both
families are written out here on the payload, since the library
derives them from the insertion kernels themselves.  Counts are read as
range() reads them, so a negative one inserts nothing."""

import operator

from csgroups import braids


def s_left_perm(p):
    """A fixed point added at the left end: (0, p(0)+1, ..., p(n)+1)."""
    return (0,) + tuple(v + 1 for v in p)


def s_right_perm(p):
    """A fixed point added at the right end: (p(0), ..., p(n), n+1)."""
    return p + (len(p),)


def _end(inst, g, left):
    """One trivial point at the left end (`left` 1) or the right (0)."""
    if inst.name == "symm":
        return inst.element((s_left_perm if left else s_right_perm)(g.payload))
    word = g.payload
    return inst.element(braids.BraidWord(
        word.strands + 1, tuple((k + left, sign) for k, sign in word.letters)))


def _degeneracy(inst, i, g):
    """The degeneracy at i; on a braid word, the strand at the top
    position i doubled: a letter crossing it becomes two letters, which
    carry the neighbour across both copies."""
    if inst.name == "symm":
        return inst.degeneracy(i, g)
    i, word = operator.index(i), g.payload
    if not 0 <= i <= g.level:
        raise IndexError(f"degeneracy index {i} out of range at level {g.level}")
    letters = []
    for k, sign in word.letters:
        if k == i:
            letters += [(i + 1, sign), (i, sign)]
            i += 1
        elif k == i - 1:
            letters += [(k, sign), (i, sign)]
            i = k
        else:
            letters.append((k + (k > i), sign))
    return inst.element(braids.BraidWord(word.strands + 1, tuple(letters)))


def degeneracy_power(inst, i, m, g):
    """The degeneracy at the literal index i, applied m times."""
    for _ in range(m):
        g = _degeneracy(inst, i, g)
    return g


def pad(inst, g, left, right):
    """One point on the right `right` times, then one on the left `left` times."""
    for _ in range(right):
        g = _end(inst, g, 0)
    for _ in range(left):
        g = _end(inst, g, 1)
    return g

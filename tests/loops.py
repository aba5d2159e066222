"""The reference for the insertion kernels of both families: the
degeneracy applied m times and padding by trivial points, written as
loops over the one-strand operations of an instance.  Counts are read
as range() reads them, so a negative one inserts nothing."""


def degeneracy_power(inst, i, m, g):
    """The degeneracy at the literal index i, applied m times."""
    for _ in range(m):
        g = inst.degeneracy(i, g)
    return g


def pad(inst, g, left, right):
    """s_right applied `right` times, then s_left applied `left` times."""
    for _ in range(right):
        g = inst.s_right(g)
    for _ in range(left):
        g = inst.s_left(g)
    return g

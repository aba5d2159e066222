"""Elements written as text, for the tests.

word builds a braid word from its printed letters without the library's
reader, so that tests of the braid kernels do not rest on it.  face and
base read a literal through cli.read_horn, the path of a kan-lift file,
as eval's grammar reads it without its @level."""

from csgroups import BRAID, braids, cli, perms


def word(text, level):
    """The braid word of whitespace-separated letters s<k> or s<k>^-1
    (1-indexed) at `level`; the letter 1 is the empty word."""
    letters = tuple((int(t[1:].removesuffix("^-1")) - 1, -1 if t.endswith("^-1") else 1)
                    for t in text.split() if t != "1")
    return braids.BraidWord(level + 1, letters)


def face(inst, text, level):
    """`text` read as each face of a horn of `inst` at level + 1 that
    misses face 0 and has the identity as its base: the face."""
    n = level + 1
    horn = cli.read_horn(inst, {"level": n, "k": 0, "base": perms.format_perm(perms.identity(n)),
                                "faces": {str(r): text for r in range(1, n + 1)}})
    return horn.faces[0][1]


def base(text, level):
    """`text` read as the base of a trivial braid horn at `level`."""
    return cli.read_horn(BRAID, {"level": level, "k": 0, "base": text,
                                 "faces": {str(r): "1" for r in range(1, level + 1)}}).base

"""The reference for the braid run split: braids._run_words and
braids._merge written as one loop each, for any number of runs, and the
equality and canonical value built on them.  The library splits words
whose generators form one run without looking up each letter's run,
and merges factors part by part; both must give these values exactly,
because eval's artin= field hashes the canonical value."""

from csgroups import braids


def run_words(*words):
    """(lo, strands, subwords) for each maximal run of consecutive
    generators that any word uses, in increasing order: each word's
    letters in the run, renumbered from lo, a letter that is the inverse
    of its subword's last letter removing that letter instead."""
    runs = []
    where = {}
    for k in sorted({k for w in words for k, _ in w}):
        if not runs or runs[-1][1] != k - 1:
            runs.append([k, k, tuple([] for _ in words)])
        runs[-1][1] = k
        where[k] = runs[-1]
    for j, w in enumerate(words):
        for k, sign in w:
            run = where[k]
            subword = run[2][j]
            if subword and subword[-1] == (k - run[0], -sign):
                subword.pop()
            else:
                subword.append((k - run[0], sign))
    for lo, hi, subwords in runs:
        yield lo, hi - lo + 2, subwords


def merge(parts):
    """Position i holds the (point, image) pairs moved by the i-th
    factor of every run that has one, the runs in order of lo."""
    depth = max((len(factors) for _, factors in parts), default=0)
    return tuple(
        tuple((lo + p, lo + v) for lo, factors in parts if i < len(factors)
              for p, v in enumerate(factors[i]) if p != v)
        for i in range(depth))


def canonical_value(b):
    xs, ys = [], []
    for lo, strands, (letters,) in run_words(b.letters):
        x, y = braids._left_fraction(*braids._run_form(letters, strands), strands)
        xs.append((lo, x))
        ys.append((lo, y))
    return b.strands, merge(xs), merge(ys)


def braids_equal(a, b):
    if a.letters == b.letters:
        return True
    for _, strands, (u, v) in run_words(a.letters, b.letters):
        if u != v and braids._run_form(u, strands) != braids._run_form(v, strands):
            return False
    return True

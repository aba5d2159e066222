"""Shared fixtures.

The acceptance-scope suite reports are the slowest thing tier-1
builds, and both the acceptance gate and the golden digests read them;
`run_suite` builds each one once per session.

The library's stores (the perms kernel tables, the symmetric intern
store, the arrow store and their rows) share one budget for the whole
process, for their entries on more than perms._FEW_POINTS points.  A
test of what they keep takes `kept_entries`, so that it neither finds
the budget spent by the tests before it nor spends it for the tests
after it.
"""

import pytest

from csgroups import core, perms, suites


@pytest.fixture(scope="session")
def run_suite():
    """suites.run_suite at the suite table's defaults, memoised for the
    session.  The reports are shared between tests, so no test may
    change one."""
    reports = {}

    def run(name, instance, seed=0):
        key = (name, instance, seed)
        if key not in reports:
            reports[key] = suites.run_suite(name, instance=instance, seed=seed)
        return reports[key]
    return run


TABLED = [f for f in vars(perms).values() if hasattr(f, "table")]
_RETIRED = []


def _count():
    def big(*levels):
        return max(levels) + 1 > perms._FEW_POINTS

    def entries(row):
        """A row is a list by index, or a dict by the other operand's id
        for products and partial compositions."""
        return [r for r in (row.values() if isinstance(row, dict) else row) if r is not None]

    count = sum(big(len(v) - 1) for f in TABLED for v in f.table.values())
    for g in core.SymmetricCsg._interned.values():
        count += big(g.level) + sum(big(g.level, r.level) for row in g.rows.values()
                                    for r in entries(row))
        for a in g.arrows.values():
            count += big(a.level)
            for row in a.rows.values():
                if isinstance(row, tuple):  # a target, on a's own points
                    count += big(a.level)
                else:
                    count += sum(big(a.level, b.level) for b in entries(row))
    return count


@pytest.fixture
def kept_entries(monkeypatch):
    """Empty stores and an unspent budget for one test, which gets a
    function counting the entries the budget pays for: each kernel table
    entry, each interned element and arrow, and each entry of their rows,
    on more than perms._FEW_POINTS points.  The session's stores and
    budget come back after the test."""
    saved = [dict(f.table) for f in TABLED]
    for f in TABLED:
        f.table.clear()
    monkeypatch.setattr(core.SymmetricCsg, "_interned", {})
    monkeypatch.setattr(perms, "_spent", 0)
    yield _count
    # Rows key interned operands by id, which stays theirs only while
    # they live; so the test's elements live on, as the library's do.
    _RETIRED.append(core.SymmetricCsg._interned)
    for f, table in zip(TABLED, saved):
        f.table.clear()
        f.table.update(table)

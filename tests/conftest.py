"""Shared fixtures.

The acceptance-scope suite reports are the slowest thing tier-1
builds, and both the acceptance gate and the golden digests read them;
`run_suite` builds each one once per session.
"""

import pytest

from csgroups import suites


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

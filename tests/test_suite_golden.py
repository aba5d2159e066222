"""Suite reports against fixed digests.

`suite_golden.json` holds the SHA-256 of `to_json() + to_text()` for
every suite on every instance it runs on, at three small scopes
(symmetric operadic-mult and equivariance stay at level 1, where they
run in well under a second).  `perfbench/golden.json` holds the digest
of `to_json()` at the acceptance scopes, which are the suite table's
defaults, and seed 0.  A change to any report byte, parameter or
counterexample order shows up here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from csgroups import braids, core, perms, suites

HERE = Path(__file__).resolve().parent
SMALL = json.loads((HERE / "suite_golden.json").read_text())
ACCEPTANCE_GOLDEN = json.loads((HERE.parent / "perfbench" / "golden.json").read_text())

# Every suite runs on both instances except these two.
UNSUPPORTED = {("section", "symm"), ("inverse-transport", "braid")}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_goldens_cover_every_suite_and_instance():
    expected = {(name, inst) for name in suites.SUITES
                for inst in ("symm", "braid")} - UNSUPPORTED
    assert {(e["suite"], e["instance"]) for e in SMALL} == expected
    assert {(name, inst) for inst, table in ACCEPTANCE_GOLDEN.items()
            for name in table} == expected - {("bar", "symm")}
    for name, inst in UNSUPPORTED:
        with pytest.raises(ValueError, match="runs on"):
            suites.run_suite(name, instance=inst)


def test_small_scope_reports_match_digests():
    mismatched = []
    for e in SMALL:
        report = suites.run_suite(e["suite"], instance=e["instance"], **e["kwargs"])
        if digest(report.to_json() + report.to_text()) != e["digest"]:
            mismatched.append((e["suite"], e["instance"], e["kwargs"]))
    assert mismatched == []


def test_acceptance_scope_reports_match_digests(run_suite):
    """The acceptance scopes are the suite table's defaults; a drifting
    default changes the report's params, and with them the digest.  The
    reports are the session's, shared with the acceptance gate."""
    mismatched = []
    for inst, table in ACCEPTANCE_GOLDEN.items():
        for name, expected in table.items():
            report = run_suite(name, inst)
            if digest(report.to_json()) != expected:
                mismatched.append((name, inst))
    assert mismatched == []


# Symmetric suites whose acceptance scope is slow with nothing kept (on
# a 2-core x86-64 box: operadic-mult about 16 s, groupoid-simplicial
# 6 s; of those that run, shifted-operad takes about 0.8 s, and
# unshifted-operad and equivariance 0.5 s each); their small scopes run.
SLOW_UNKEPT = {"operadic-mult", "groupoid-simplicial"}


def test_reports_are_the_same_with_nothing_kept(kept_entries, monkeypatch):
    """The stores never change a result: with them empty and nothing to
    keep (no budget, and no entries kept without one), every symmetric
    suite gives its small-scope digests, and every symmetric suite
    outside SLOW_UNKEPT its acceptance-scope digest."""
    monkeypatch.setattr(perms, "_BUDGET", 0)
    monkeypatch.setattr(perms, "_FEW_POINTS", 0)
    mismatched = []
    for e in SMALL:
        if e["instance"] == "symm":
            report = suites.run_suite(e["suite"], instance="symm", **e["kwargs"])
            if digest(report.to_json() + report.to_text()) != e["digest"]:
                mismatched.append((e["suite"], e["kwargs"]))
    for name, expected in ACCEPTANCE_GOLDEN["symm"].items():
        if name not in SLOW_UNKEPT:
            if digest(suites.run_suite(name, instance="symm").to_json()) != expected:
                mismatched.append((name, "acceptance"))
    assert mismatched == [] and kept_entries() == 0


def test_default_instance_is_the_first_declared():
    assert suites.run_suite("quotient", trials=5).instance == "symm"
    assert suites.run_suite("section", trials=5).instance == "braid"
    assert suites.run_suite("bar", trials=5).instance == "symm"
    assert suites.run_suite("crossed", max_level=1).instance == "symm"


def test_reports_do_not_share_the_table_defaults():
    suites.run_suite("section", trials=1).params["random_levels"].append(9)
    assert suites.run_suite("section", trials=1).params["random_levels"] == [4, 5]


def test_out_of_range_flags_a_report_does_not_list_are_ignored():
    """run_suite range-checks only the params a report shows: on a suite
    without trials or word_len, an out-of-range value for it gives the
    same report as leaving it out."""
    out_of_range = {"trials": (0, -5), "word_len": (-1, suites.MAX_WORD_LEN + 1)}
    runs = 0
    for name, entries in suites.SUITES.items():
        for inst, (defaults, _, _) in entries.items():
            unused = [key for key in out_of_range if key not in defaults]
            if not unused:
                continue
            expected = suites.run_suite(name, instance=inst, max_level=1).to_json()
            for key in unused:
                for value in out_of_range[key]:
                    report = suites.run_suite(name, instance=inst, max_level=1,
                                              **{key: value})
                    assert report.to_json() == expected, (name, inst, key, value)
                    runs += 1
    assert runs >= 2 * 12  # the 11 exhaustive symm suites and braid section


def test_no_seed_draws_from_the_seed_the_report_shows(monkeypatch):
    """With seed=None a report shows its default seed and draws from it.
    Before, the generator drew from the system's entropy, so a failing
    sampled run reported seed 0 with inputs that no seed-0 run gives."""
    monkeypatch.setattr(braids, "braids_equal", lambda a, b: False)
    expected = suites.run_suite("crossed", "braid", trials=50, seed=0).to_json()
    for _ in range(2):
        report = suites.run_suite("crossed", "braid", trials=50, seed=None)
        assert report.params["seed"] == 0 and report.to_json() == expected


@pytest.mark.parametrize("key", ["max_level", "trials", "word_len", "seed"])
@pytest.mark.parametrize("value", [2.5, True, "2"])
def test_non_int_params_are_refused_before_any_work(monkeypatch, key, value):
    """Each numeric param is an int or None, whether or not the report
    lists it; anything else is one ValueError line before the suite
    runs.  Before, trials=2.5 raised TypeError deep inside, max_level='2'
    a comparison TypeError, and trials=True ran and reported true."""
    monkeypatch.setattr(core, "Tally", None)  # a suite that ran would fail on it
    with pytest.raises(ValueError) as refused:
        suites.run_suite("crossed", "braid", **{key: value})
    assert str(refused.value) == f"{key} must be an int, got {value!r}"

"""
Smoke test of the benchmark's own code, on small inputs:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import csgroups  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from csgroups import braids, perms  # noqa: E402


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_matches_tables():
    written = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert written == run.benchmark_spec()


def test_horn_requests_both_modes(capsys):
    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        assert run.main(["--workload", "horn-requests", "--seed", "5",
                         "--seconds", "1", "--trace", str(trace)]) == 0
        result = last_json(capsys.readouterr().out)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m[0] for m in table]
    assert result["metrics"]["kan.lift_horn.calls"]["value"] > 0
    assert result["metrics"]["suites.cases"]["value"] == 0


def test_small_suite_pass_traced_matches_untraced():
    ops = [workloads.SuiteOp("crossed", "symm", {"max_level": 2}),
           workloads.SuiteOp("crossed", "braid", {"trials": 20}),
           workloads.SuiteOp("bar", "symm", {"max_level": 1, "trials": 5})]
    plain = [op.run(3, None) for op in ops]
    t = tracer.Tracer(csgroups)
    t.install()
    try:
        traced = [op.run(3, None) for op in ops]
    finally:
        t.uninstall()
    assert all(o.ok for o in plain + traced)
    assert [o.output for o in plain] == [o.output for o in traced]
    metrics = run.layer_metrics(t, traced, 0.0)
    assert metrics["suites.cases"] == sum(o.cases for o in traced) > 0
    assert metrics["braids.artin_act.calls"] > 0 and metrics["barcx.calls"] > 0
    assert metrics["perms.calls"] > metrics["perms.inverse.calls"] > 0
    assert not hasattr(perms.compose, "__wrapped__")


def test_speed_samples_are_left_out_of_the_clock():
    with speed.sampling():
        t0, c0 = time.perf_counter(), speed.clock()
        while speed.sample_count() < 4:
            speed.reference_work()
        wall, busy = time.perf_counter() - t0, speed.clock() - c0
    assert 0 < busy < wall
    assert speed.factor() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_checks_reject_a_wrong_answer():
    request = next(r for r in workloads.horn_requests(1)
                   if isinstance(r, workloads.SymmEvalRequest))
    assert request.run().ok
    wrong = workloads.SymmEvalRequest(request.expression, request.expected[::-1] + (99,))
    assert not wrong.run().ok


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "horn-requests",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_generated_faces_match_the_library():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 5)
        letters = tuple((rng.randrange(n), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 12)))
        word = braids.BraidWord(n + 1, letters)
        for r in range(n + 1):
            assert workloads.delete_strand(letters, r) == braids.face_word(r, word).letters

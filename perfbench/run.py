"""
Benchmark of the csgroups library and CLI.

One workload per process:

    python3 perfbench/run.py --workload symm-exhaustive --seed 1 --seconds 30 --trace 0

prints the environment, then every metric by name with its unit, and
as its last line one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` measures the end-to-end metrics
with tracing off; `--trace 1` runs a fixed amount of work once
untraced and once traced and reports the per-layer metrics.

Every workload, both modes, each in its own process:

    python3 perfbench/run.py --report

prints all metrics by name and unit for each workload, with the failed
share of operations, and rewrites BENCHMARK.json from the tables below.
Run it from the root of a checkout; it builds nothing and imports the
library from `src/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import array
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_SECONDS = 30
WORKLOADS = {
    "symm-exhaustive": "every suite on the symmetric family at its acceptance scope; "
                       "perms, core, groupoid and operad do the work, braids none",
    "braid-sampled": "every braid-family suite at its acceptance scope; many short "
                     "braid words with repeated equality checks on the free-group oracle",
    "horn-requests": "closed loop of single horn lifts and in-process eval calls; fewer, "
                     "longer, unrepeated braid words; the only use of kan and cli",
}
# name, unit, better, bound (share of the parent's median).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cases_per_s", "1/s", "higher", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)
# name, unit, better.
PER_LAYER = (
    ("perms.calls", "count", "lower"),
    ("perms.self_s", "s", "lower"),
    ("perms.inverse.calls", "count", "lower"),
    ("perms.compose.calls", "count", "lower"),
    ("perms.repeat_share", "ratio", "lower"),
    ("core.symm_ops.calls", "count", "lower"),
    ("core.symm_ops.self_s", "s", "lower"),
    ("core.checks.self_s", "s", "lower"),
    ("groupoid.calls", "count", "lower"),
    ("groupoid.self_s", "s", "lower"),
    ("operad.circ_set.calls", "count", "lower"),
    ("operad.circ_gpd.calls", "count", "lower"),
    ("operad.self_s", "s", "lower"),
    ("braids.artin_act.calls", "count", "lower"),
    ("braids.artin_act.self_s", "s", "lower"),
    ("braids.artin_act.image_symbols", "count", "lower"),
    ("braids.equal.calls", "count", "lower"),
    ("braids.equal.repeat_share", "ratio", "lower"),
    ("braids.equal.us_by_len.le8", "us", "lower"),
    ("braids.equal.us_by_len.le16", "us", "lower"),
    ("braids.equal.us_by_len.gt16", "us", "lower"),
    ("braids.strand_ops.self_s", "s", "lower"),
    ("core.braid_ops.self_s", "s", "lower"),
    ("kan.lift_horn.calls", "count", "lower"),
    ("kan.lift_horn.self_s", "s", "lower"),
    ("kan.moore_fill.self_s", "s", "lower"),
    ("kan.validate_horn.self_s", "s", "lower"),
    ("kan.lift_horn.failed", "count", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("barcx.calls", "count", "lower"),
    ("barcx.self_s", "s", "lower"),
    ("suites.self_s", "s", "lower"),
    ("suites.cases", "count", "higher"),
    ("suites.counterexamples", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

SETUP_SAMPLES = 21
# horn-requests: wall_s is the time of HORN_BATCH requests; the traced
# run does HORN_TRACED requests after a warm-up of HORN_WARMUP.
HORN_BATCH = 200
HORN_TRACED = 1500
HORN_WARMUP = 200
STRAND_OPS = ("face_word", "degeneracy_word", "s_left_word", "s_right_word")

# What a fresh interpreter runs to measure set-up: the import, then one
# small call of the workload's kind, which pays any lazy set-up.
_SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
from csgroups import BRAID, braids, cli, kan, suites
{first_call}
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""
_FIRST_CALL = {
    "symm-exhaustive": "suites.run_suite('crossed', instance='symm', max_level=1)",
    "braid-sampled": "suites.run_suite('crossed', instance='braid', trials=5)",
    "horn-requests": (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['eval', 'mul(s1 s2@2, inv(s2@2))'])\n"
        "kan.lift_horn(BRAID, kan.horn_from_filler("
        "BRAID, BRAID.element(braids.generator(2, 0)), 1))"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload in both modes and rewrite BENCHMARK.json")
    args = parser.parse_args(argv)
    if not (SRC / "csgroups" / "__init__.py").is_file():
        print(f"error: no csgroups sources under {SRC}", file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --report")
    sys.path.insert(0, str(SRC))
    import csgroups
    if Path(csgroups.__file__).resolve().parent != SRC / "csgroups":
        print(f"error: imported csgroups from {csgroups.__file__}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args), sort_keys=True))
    if args.trace:
        result = traced_run(csgroups, args.workload, args.seed)
    else:
        # Set-up samples before and after the timed loop, so that they
        # see more of the box's slow and fast phases.
        setup = measure_setup(args.workload, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        result = timed_run(args.workload, args.seed, args.seconds)
        setup += measure_setup(args.workload, SETUP_SAMPLES // 2)
        result.metrics["setup_s"] = statistics.median(setup)
        result.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    wanted = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    for note in result.notes:
        print(note)
    for name in wanted:
        print(f"metric {name} = {result.metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": result.failed == 0 and result.consistent,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": units[name]}
                    for name in wanted},
    }))
    return 0


class Result:
    def __init__(self, oks, metrics, consistent=True, notes=()):
        self.attempted = len(oks)
        self.failed = oks.count(False)
        self.metrics = metrics
        self.consistent = consistent
        self.notes = list(notes)
        self.notes.append(f"operations {self.attempted}, failed {self.failed}")


# End-to-end run.

def timed_run(workload: str, seed: int, seconds: int) -> Result:
    """Every time metric is scaled to the reference speed of the
    interpreter; see speed.py."""
    import workloads  # imports csgroups, so only once src/ is on the path
    if workload == "horn-requests":
        return timed_horn_run(workloads, seed, seconds)
    ops = workloads.suite_ops("symm" if workload == "symm-exhaustive" else "braid")
    golden = workloads.load_golden()
    seeds = workloads.pass_seeds(seed)
    passes = []
    with speed.sampling():
        start = time.perf_counter()
        while True:
            pass_seed = next(seeds)
            check = golden if pass_seed == workloads.ACCEPTANCE_SEED else None
            passes.append([op.run(pass_seed, check) for op in ops])
            elapsed = time.perf_counter() - start
            # Stop when one more pass of average length would overrun.
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    outcomes = [o for p in passes for o in p]
    raw_busy_s = sum(o.latency_s for o in outcomes)
    busy_s = raw_busy_s * speed.factor()
    metrics = {
        "wall_s": busy_s / len(passes),
        "cases_per_s": sum(o.cases for o in outcomes) / busy_s,
        "requests_per_s": len(outcomes) / busy_s,
    }
    # The latency of checking the whole family is that of one pass.  A
    # run has one to nine passes: too few for a percentile that repeats
    # between runs, so both report the mean pass latency.
    metrics["latency_p50_ms"] = metrics["latency_p99_ms"] = metrics["wall_s"] * 1e3
    notes = [f"passes {len(passes)} of {len(ops)} suite runs",
             f"latency samples {len(passes)} passes",
             speed_note(raw_busy_s)]
    return Result([o.ok for o in outcomes], metrics, notes=notes)


def timed_horn_run(workloads, seed: int, seconds: int) -> Result:
    requests = workloads.horn_requests(seed)
    # Only latencies and verdicts are kept, so memory does not grow with
    # the number of requests served.
    latencies = array.array("d")
    oks = []
    with speed.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            outcome = next(requests).run()
            latencies.append(outcome.latency_s)
            oks.append(outcome.ok)
    # One factor for the whole run: a request is too short to be timed
    # next to a sample of its own.
    scale = speed.factor()
    raw_busy_s = sum(latencies)
    busy_s = raw_busy_s * scale
    metrics = {
        "wall_s": busy_s * HORN_BATCH / len(latencies),
        "cases_per_s": len(latencies) / busy_s,
        "requests_per_s": len(latencies) / busy_s,
        **latency_metrics(latencies, scale),
    }
    notes = [f"latency samples {len(latencies)} requests", speed_note(raw_busy_s)]
    return Result(oks, metrics, notes=notes)


def latency_metrics(latencies, scale: float) -> dict:
    """Nearest-rank percentiles of request latencies given in seconds,
    times `scale`."""
    ordered = sorted(latencies)
    return {f"latency_p{q}_ms":
            ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] * scale * 1e3
            for q in (50, 99)}


def speed_note(raw_busy_s: float) -> str:
    return (f"unscaled busy {raw_busy_s!r} s, reference samples {speed.sample_count()}, "
            f"median sample {speed.reference_ms()!r} ms, scale {speed.factor()!r}")


# Traced run.

def traced_run(csgroups, workload: str, seed: int) -> Result:
    """The same fixed work once untraced and once traced: the first pass
    at the acceptance seed for the suite workloads, the first
    HORN_TRACED requests for horn-requests.  The two runs must give the
    same outputs."""
    import workloads
    from tracer import Tracer
    if workload == "horn-requests":
        requests = list(itertools.islice(workloads.horn_requests(seed), HORN_TRACED))
        work = lambda: [req.run() for req in requests]
        # Pay first-call costs before the untraced timing.
        for req in requests[:HORN_WARMUP]:
            req.run()
    else:
        ops = workloads.suite_ops("symm" if workload == "symm-exhaustive" else "braid")
        golden = workloads.load_golden()
        work = lambda: [op.run(workloads.ACCEPTANCE_SEED, golden) for op in ops]
    plain = work()
    tracer = Tracer(csgroups)
    tracer.install()
    try:
        traced = work()
    finally:
        tracer.uninstall()
    consistent = [o.output for o in plain] == [o.output for o in traced]
    overhead = sum(o.latency_s for o in traced) - sum(o.latency_s for o in plain)
    metrics = layer_metrics(tracer, traced, overhead)
    notes = [f"traced outputs identical to untraced: {consistent}"]
    return Result([o.ok for o in plain + traced], metrics, consistent, notes)


def layer_metrics(tracer, outcomes, overhead_s: float) -> dict:
    stats = tracer.stats

    def pick(test):
        return [s for key, s in stats.items() if test(key)]

    def calls(test):
        return sum(s.calls for s in pick(test))

    def self_s(test):
        return sum(s.self_s for s in pick(test))

    def repeat_share(test):
        total = calls(test)
        return sum(s.repeats for s in pick(test)) / total if total else 0.0

    def prefix(p):
        return lambda key: key.startswith(p)

    def exact(*names):
        return lambda key: key in names

    def us(label):
        samples = tracer.equal_us[label]
        return statistics.median(samples) if samples else 0.0

    core_checks = lambda key: (key.startswith("core.")
                               and not key.startswith(("core.symm.", "core.braid.")))
    lift = stats.get("kan.lift_horn")
    return {
        "perms.calls": calls(prefix("perms.")),
        "perms.self_s": self_s(prefix("perms.")),
        "perms.inverse.calls": calls(exact("perms.inverse")),
        "perms.compose.calls": calls(exact("perms.compose")),
        "perms.repeat_share": repeat_share(prefix("perms.")),
        "core.symm_ops.calls": calls(prefix("core.symm.")),
        "core.symm_ops.self_s": self_s(prefix("core.symm.")),
        "core.checks.self_s": self_s(core_checks),
        "groupoid.calls": calls(prefix("groupoid.")),
        "groupoid.self_s": self_s(prefix("groupoid.")),
        "operad.circ_set.calls": calls(exact("operad.circ_set")),
        "operad.circ_gpd.calls": calls(exact("operad.circ_gpd")),
        "operad.self_s": self_s(prefix("operad.")),
        "braids.artin_act.calls": calls(exact("braids.artin_act")),
        "braids.artin_act.self_s": self_s(exact("braids.artin_act")),
        "braids.artin_act.image_symbols": tracer.image_symbols,
        "braids.equal.calls": calls(exact("braids.braids_equal")),
        "braids.equal.repeat_share": repeat_share(exact("braids.braids_equal")),
        "braids.equal.us_by_len.le8": us("le8"),
        "braids.equal.us_by_len.le16": us("le16"),
        "braids.equal.us_by_len.gt16": us("gt16"),
        "braids.strand_ops.self_s": self_s(exact(*(f"braids.{n}" for n in STRAND_OPS))),
        "core.braid_ops.self_s": self_s(prefix("core.braid.")),
        "kan.lift_horn.calls": calls(exact("kan.lift_horn")),
        "kan.lift_horn.self_s": self_s(exact("kan.lift_horn")),
        "kan.moore_fill.self_s": self_s(exact("kan.moore_fill")),
        "kan.validate_horn.self_s": self_s(exact("kan.validate_horn")),
        "kan.lift_horn.failed": lift.raised if lift else 0,
        "cli.calls": calls(prefix("cli.")),
        "cli.self_s": self_s(prefix("cli.")),
        "barcx.calls": calls(prefix("barcx.")),
        "barcx.self_s": self_s(prefix("barcx.")),
        "suites.self_s": self_s(prefix("suites.")),
        "suites.cases": sum(o.cases for o in outcomes),
        "suites.counterexamples": sum(o.counterexamples for o in outcomes),
        "trace.overhead_s": overhead_s,
    }


# Set-up and environment.

def measure_setup(workload: str, count: int) -> list[float]:
    """Times from starting a fresh interpreter to the end of its first
    call into the library, for `count` interpreters started one after
    another.  They are not scaled to the reference speed: starting an
    interpreter is mostly the kernel's work, and the speed of the
    reference work does not predict it."""
    code = _SETUP_CODE.format(src=str(SRC), first_call=_FIRST_CALL[workload])
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-I", "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.read()
            if child.wait(timeout=60) != 0 or ready != "ready\n":
                raise RuntimeError("set-up interpreter failed")
    return samples


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git;
    "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# All workloads.

def report(seed: int, seconds: int) -> int:
    """Run every workload untraced and traced, each in its own process,
    print every metric, and rewrite BENCHMARK.json."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {done.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_ratio={result['failed'] / result['attempted']!r} ratio")
            for name, metric in result["metrics"].items():
                print(f"  {name} = {metric['value']!r} {metric['unit']}")
            if not result["correct"]:
                status = 1
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
    return status


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    sys.exit(main())

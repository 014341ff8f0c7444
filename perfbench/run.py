#!/usr/bin/env python3
"""Benchmark of vermalab's exact verifier, end to end and layer by layer.

    python3 perfbench/run.py --workload sl2-sweep|adelman-trials|algebra-rewrite|all
                             [--seed 1729] [--seconds 40] [--trace 0|1]

Run from the root of a checkout; the program under test is ``src/vermalab``
of that checkout.  Every call runs in a fresh interpreter (``child.py``),
one at a time: a closed loop with one client, so at most one core is busy.

``--trace 0`` runs passes of the workload for about ``--seconds`` seconds,
and at least one per sub-seed, and reports the end-to-end metrics as
medians over the passes.  ``--trace 1`` alternates untraced and traced passes at
the run's own seed (at least two of each) and reports per-layer metrics
from the traced ones; a traced call must print the same bytes as its
untraced twin, and every count must repeat exactly between traced passes.

Every call's verdict fields and check count are checked on every pass.
Outputs at seed 1729, and outputs of calls that take no seed, must match
the digests in ``golden.json``; at other seeds an output must repeat byte
for byte whenever its sub-seed comes round again.  The fixture files are hashed around every pass.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` calls, and the metrics with their units.
The exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import EXTRA_COUNTS, TARGETS
from workloads import GOLDEN_SEED, WORKLOADS, subseed, verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "vermalab"
GOLDEN = BENCH / "golden.json"
BUDGET_S = 165  # a run must end within 180 s; no pass starts that could overrun this

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
NF_CACHE = ("hits", "misses", "currsize")
# counts reported as they are; factorizations are reported as found / attempted
COUNT_METRICS = tuple(n for n in EXTRA_COUNTS if not n.startswith("adelman.factors.")) \
    + tuple(f"heisenberg.nf_cache.{n}" for n in NF_CACHE)


PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in TARGETS
       for kind, unit in (("calls", "count"), ("self_pct", "%"))},
    **dict.fromkeys(COUNT_METRICS, "count"),
    "adelman.factors.found_ratio": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "tracing_overhead": "ratio",
}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------

def child_env():
    """The parent's environment with the report's thread knob removed
    and a fixed hash seed (output bytes do not depend on it; timing
    noise from set and dict layout does)."""
    env = {k: v for k, v in os.environ.items() if k != "VERMA_LAB_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec, timeout):
    """Run one call; returns (report, error text).  The report gains
    ``setup_s``: spawn to the end of ``import vermalab.cli``."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip() or f"child exited with {proc.returncode}"
    report = json.loads(proc.stdout)
    report["setup_s"] = report["imported"] - spawned
    return report, None


def warm_up():
    """Import the package once so its bytecode cache exists before any
    set-up is timed: an installed package ships compiled."""
    subprocess.run([sys.executable, "-c", "import vermalab.cli"],
                   cwd=ROOT / "src", env=child_env(), check=True,
                   capture_output=True, timeout=120)


def fixture_digests():
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((PACKAGE / "fixtures").glob("*.json"))}


def source_digest():
    h = hashlib.sha256()
    for p in sorted(PACKAGE.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(PACKAGE)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Gate:
    """Expected digest and check count per call: golden at seed 1729 and
    for calls without a seed, else the first output seen at that seed."""

    def __init__(self, golden):
        self.golden = golden
        self.seen = {}

    def check(self, call, seed, digest, checks):
        got = {"sha256": digest, "checks": checks}
        if not call.seeded or seed == GOLDEN_SEED:
            want = self.golden.get(call.name)
        else:
            want = self.seen.setdefault((call.name, seed), got)
        if want != got:
            return f"{call.name} at seed {seed}: got {got}, expected {want}"
        return None


@dataclass
class Pass:
    seed: int
    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    checks: int = 0
    failed: int = 0
    output_bytes: int = 0
    digests: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_pass(workload, seed, traced, gate, deadline):
    p = Pass(seed, traced)
    before = fixture_digests()
    for call in workload.calls:
        report, error = run_child(call.child_spec(seed, traced), deadline - time.monotonic())
        if report is not None and report["error"] is None and report["rc"] == 0:
            data = report["output"].encode()
            digest = hashlib.sha256(data).hexdigest()
            ok, checks = verdict(call, report["output"])
            error = gate.check(call, seed, digest, checks) if ok \
                else f"{call.name}: a verdict field is false"
            p.wall_s += report["call_s"]
            p.setup_s += report["setup_s"]
            p.rss_mb = max(p.rss_mb, report["maxrss_kb"] / 1024)
            p.checks += checks
            p.output_bytes += len(data)
            p.digests[call.name] = digest
            p.traces.append(report.get("trace"))
        elif report is not None:
            error = report["error"] or f"{call.name}: exit code {report['rc']}"
        if error:
            p.failed += 1
            p.errors.append(error)
    if fixture_digests() != before:
        p.failed = len(workload.calls)
        p.errors.append("a fixture file under src/vermalab/fixtures changed")
    return p


def run_loop(step, minimum, seconds):
    """Call ``step(deadline)`` at least ``minimum`` times, then again
    while a step of average length still ends within ``seconds``; never
    start a step that could overrun the budget.  Stops when a step
    returns false."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    durations = []
    while True:
        began = time.monotonic()
        if durations and began + max(durations) > deadline:
            break
        if len(durations) >= minimum and \
                began - start + statistics.fmean(durations) > seconds:
            break
        if not step(deadline):
            break
        durations.append(time.monotonic() - began)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, gate):
    passes = []

    def step(deadline):
        passes.append(run_pass(workload, subseed(seed, len(passes) % workload.subseeds),
                               False, gate, deadline))
        return not passes[-1].failed

    run_loop(step, workload.subseeds, seconds)
    good = [p for p in passes if not p.failed]
    if not good:
        return passes, {}, END_TO_END_UNITS, []
    walls = [p.wall_s for p in good]
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(p.setup_s for p in good),
        "peak_rss_mb": median(p.rss_mb for p in good),
    }
    q1, _, q3 = quartiles(walls)
    # the check count is fixed per pass and seed, so this restates wall_s
    checks_per_s = median(p.checks / p.wall_s for p in good)
    notes = [f"checks_per_s {checks_per_s:.6f} 1/s",
             f"wall_s quartiles {q1:.4f} .. {q3:.4f} s over {len(walls)} passes",
             "passes (sub-seed: seconds) " + ", ".join(f"{p.seed}: {p.wall_s:.3f}" for p in good)]
    return passes, metrics, END_TO_END_UNITS, notes


def trace_counts(p):
    """Every count of a traced pass, which must repeat exactly."""
    counts = {}
    for trace in p.traces:
        for name, rec in trace["functions"].items():
            counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + rec["calls"]
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name in NF_CACHE:
            key = f"heisenberg.nf_cache.{name}"
            counts[key] = counts.get(key, 0) + trace["nf_cache"][name]
    return counts


def measure_traced(workload, seed, seconds, gate):
    plain, traced = [], []

    def step(deadline):
        first, second = (False, True) if len(traced) % 2 == 0 else (True, False)
        for flag in (first, second):
            (traced if flag else plain).append(run_pass(workload, seed, flag, gate, deadline))
        pair = (plain[-1], traced[-1])
        if any(p.failed for p in pair):
            return False
        if pair[0].digests != pair[1].digests:
            pair[1].failed = len(workload.calls)
            pair[1].errors.append("traced outputs differ from untraced ones")
            return False
        if trace_counts(traced[-1]) != trace_counts(traced[0]):
            pair[1].failed = len(workload.calls)
            pair[1].errors.append("traced counts do not repeat")
            return False
        return True

    run_loop(step, 2, seconds)
    passes = plain + traced
    if any(p.failed for p in passes):
        return passes, {}, {}, []
    counts = trace_counts(traced[0])
    self_s = {name: [sum(t["functions"][name]["self_s"] for t in p.traces) for p in traced]
              for name in TARGETS}
    metrics = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = counts[f"{name}.calls"]
        metrics[f"{name}.self_pct"] = median(
            100 * s / p.wall_s for s, p in zip(self_s[name], traced))
    for name in COUNT_METRICS:
        metrics[name] = counts[name]
    attempted = counts["adelman.factors.attempted"]
    metrics["adelman.factors.found_ratio"] = \
        counts["adelman.factors.found"] / attempted if attempted else 0.0
    metrics["cli.self_s"] = median(sum(t["outside_s"] for t in p.traces) for p in traced)
    metrics["cli.output_bytes"] = traced[0].output_bytes
    metrics["tracing_overhead"] = median(p.wall_s for p in traced) / median(p.wall_s for p in plain)
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes at seed {seed}",
             f"{'function':42} {'calls':>9} {'self_s':>9} {'self_pct':>8}"]
    for name in TARGETS:
        notes.append(f"{name:42} {counts[name + '.calls']:9d} "
                     f"{median(self_s[name]):9.4f} {metrics[name + '.self_pct']:8.2f}")
    return passes, metrics, PER_LAYER_UNITS, notes


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "src_sha256": source_digest()}


def run_workload(name, seed, seconds, trace, golden):
    workload = WORKLOADS[name]
    gate = Gate(golden)
    measure_fn = measure_traced if trace else measure
    passes, metrics, units, notes = measure_fn(workload, seed, seconds, gate)
    attempted = len(workload.calls) * len(passes)
    failed = sum(p.failed for p in passes)
    print(f"== {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("   " + "  ".join(f"{k} {v}" for k, v in environment().items()))
    for key, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"   {key:44} {shown} {units[key]}")
    print(f"   {'fail_ratio':44} {failed / attempted:14.6f} ({failed} of {attempted} calls)")
    for line in notes:
        print("   " + line)
    for p in passes:
        for error in p.errors:
            print(f"   FAILED: {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"no program to measure: {PACKAGE / 'cli.py'} or {GOLDEN} is missing",
              file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    warm_up()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), golden)
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

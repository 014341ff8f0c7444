#!/usr/bin/env python3
"""Paired before/after timings of two commits, written as BENCH_*.json.

    python3 tools/benchpair.py --parent REV --label NAME [--pairs 10]
        [--workload sl2-sweep] [--seed 1729] [--seconds 6]
        [--cli "decompose --n 64"] [--out-dir DIR]

The parent REV and the change, always ``HEAD``, are extracted with
``git archive`` into temporary directories, so neither is a checkout
and the working tree is not read.
Each pair runs both trees one after the other, the parent first in odd
pairs and the change first in even ones.

- Without ``--cli`` each run is the tree's own, unmodified
  ``perfbench/run.py --workload W --seed S --seconds T``; its last output
  line, one JSON object, is kept whole.  A run that is not ``correct``
  stops the recording.
- With ``--cli "ARGS"`` each run times one ``python -m vermalab.cli ARGS``
  of the tree, spawn to exit.  Every run of both trees must print the
  same bytes, or nothing is written.  This mode reaches sizes that no
  perfbench workload does; it is not the perfbench gate.

Per pair and metric the file holds the values, their median and
quartiles (``statistics.quantiles(values, n=4)``, as perfbench reports
them) and in how many pairs the change read lower.  One recording is
appended to ``runs`` of ``BENCH_<label>_parent.json`` and
``BENCH_<label>_change.json`` in ``--out-dir`` (the repository root by
default), so several workloads or command lines can share one label.
Both files are checked for their side and ``src/`` tree before the
first run, and written together after the last.
Every run has the caller's environment as it is, and the file says
whether that wrote bytecode caches.  With ``PYTHONDONTWRITEBYTECODE``
set, no tree writes one and every child compiles the sources it
imports; unset, each tree writes its cache before its first timed run
(perfbench's warm-up, or one import in ``--cli`` mode).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
ORDER = "pair i runs the parent first when i is odd"


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def extract(rev, repo, into):
    """Write the tree of commit rev into the directory into; returns the
    commit id and the id of its src/ tree, which names the code measured
    even when the commit is later amended."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo).decode().strip()
    src_tree = git("rev-parse", f"{commit}:src", cwd=repo).decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit, cwd=repo))) as tar:
        # the "data" filter refuses absolute paths and links out of into;
        # CPython releases before 3.10.12 and 3.11.4 have no filters
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return {"commit": commit, "src_tree": src_tree}


def quartile_summary(values):
    """median, q1 and q3 as perfbench computes them; one value is its own
    quartiles."""
    q1, median, q3 = (values[0],) * 3 if len(values) < 2 else statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def cpu_name():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(ids):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_name(), **ids}


def run_perfbench(tree, argv, env):
    """One perfbench run of a tree: its final JSON line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{tree}: perfbench printed no final JSON line "
                         f"(exit {proc.returncode}): {proc.stderr.strip()}")
    if proc.returncode != 0 or not final.get("correct"):
        raise SystemExit(f"{tree}: perfbench run is not correct: {lines[-1]}")
    return final


def metric_values(final, workload):
    """{workload.metric: value} of a final line; a single-workload run
    names its metrics without the workload."""
    return {(key if "." in key else f"{workload}.{key}"): m["value"]
            for key, m in final["metrics"].items()}


def run_cli(tree, args, env):
    """One timed CLI call of a tree: (wall seconds, stdout, exit code)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "vermalab.cli", *args], cwd=tree,
                          env={**env, "PYTHONPATH": os.path.join(tree, "src")},
                          capture_output=True)
    return time.perf_counter() - start, proc.stdout, proc.returncode


def record_pairs(trees, pairs, run_one):
    """Run pairs alternating, parent first in odd pairs; returns per side
    the list of (pair, ran_first, result)."""
    out = {side: [] for side in SIDES}
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for position, side in enumerate(order):
            out[side].append((pair, position == 0, run_one(trees[side])))
    return out


def lower_counts(values):
    """For each metric, in how many pairs the change read lower."""
    return {key: {"lower": sum(c < p for p, c in zip(values["parent"][key], values["change"][key])),
                  "pairs": len(values["change"][key])}
            for key in values["change"]}


def perfbench_recording(trees, args, env):
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    results = record_pairs(trees, args.pairs, lambda tree: run_perfbench(tree, argv, env))
    values = {side: {} for side in SIDES}
    for side in SIDES:
        for _, _, final in results[side]:
            for key, value in metric_values(final, args.workload).items():
                values[side].setdefault(key, []).append(value)
    sides = {}
    for side in SIDES:
        rec = {"command": "python3 perfbench/run.py " + " ".join(argv),
               "runs": [{"pair": pair, "ran_first": first, "final_json_line": final}
                        for pair, first, final in results[side]]}
        for metric in sorted({key.rsplit(".", 1)[1] for key in values[side]}):
            keys = sorted(k for k in values[side] if k.rsplit(".", 1)[1] == metric)
            rec[f"{metric}_per_pair"] = {k: values[side][k] for k in keys}
            rec[f"{metric}_summary"] = {k: quartile_summary(values[side][k]) for k in keys}
        sides[side] = rec
    return sides, lower_counts(values)


def cli_recording(trees, args, env):
    cli_args = shlex.split(args.cli)
    results = record_pairs(trees, args.pairs, lambda tree: run_cli(tree, cli_args, env))
    outcomes = [outcome for side in SIDES for *_, outcome in results[side]]
    digests = {hashlib.sha256(out).hexdigest() for _, out, _ in outcomes}
    codes = {code for *_, code in outcomes}
    if len(digests) != 1 or len(codes) != 1:
        raise SystemExit(f"the trees do not print the same bytes for {args.cli!r}: "
                         f"stdout sha256 {sorted(digests)}, exit codes {sorted(codes)}")
    [digest], [code] = digests, codes
    values = {side: {"cli.wall_s": [wall for *_, (wall, _, _) in results[side]]} for side in SIDES}
    sides = {side: {
        "command": "python3 -m vermalab.cli " + args.cli,
        "note": "spawn-to-exit time of one CLI call per run, not the perfbench gate",
        "stdout_sha256": digest,
        "exit_code": code,
        "runs": [{"pair": pair, "ran_first": first, "wall_s": wall}
                 for pair, first, (wall, _, _) in results[side]],
        "wall_s_per_pair": values[side],
        "wall_s_summary": {k: quartile_summary(v) for k, v in values[side].items()},
    } for side in SIDES}
    return sides, lower_counts(values)


def bytecode_note(cli, env):
    """Whether the runs wrote bytecode caches, read from their environment:
    Python writes none when PYTHONDONTWRITEBYTECODE is a non-empty string."""
    if env.get("PYTHONDONTWRITEBYTECODE"):
        return ("PYTHONDONTWRITEBYTECODE set: no tree wrote a bytecode cache, so every "
                "child compiled the sources it imported")
    if cli:
        return ("PYTHONDONTWRITEBYTECODE unset: one import of vermalab.cli wrote each "
                "tree's bytecode cache before its first timed run")
    return ("PYTHONDONTWRITEBYTECODE unset: run.py's warm_up wrote the bytecode cache "
            "of each tree before its first child")


def existing_recordings(out_dir, label, ids, machine):
    """{side: (path, document)} of BENCH_<label>_{parent,change}.json, as
    they are or new; exits when one holds another side or src/ tree."""
    docs = {}
    for side in SIDES:
        path = out_dir / f"BENCH_{label}_{side}.json"
        tree = f"git tree {ids[side]['src_tree']} of src/"
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {
            "machine": machine, "side": side, "tree": tree, "runs": []}
        if (doc.get("side"), doc.get("tree")) != (side, tree):
            raise SystemExit(f"{path} holds {doc.get('side')} {doc.get('tree')}, "
                             f"not {side} {tree}")
        docs[side] = path, doc
    return docs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit measured as before")
    parser.add_argument("--label", required=True, help="BENCH_<label>_{parent,change}.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="sl2-sweep")
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--cli", help="time this vermalab command line instead of perfbench")
    parser.add_argument("--out-dir", type=Path)
    parser.add_argument("--repo", type=Path, default=Path.cwd())
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    repo = Path(git("rev-parse", "--show-toplevel", cwd=args.repo).decode().strip())
    out_dir = args.out_dir or repo
    env = dict(os.environ)
    revs = dict(zip(SIDES, (args.parent, "HEAD")))
    machine = (f"{os.cpu_count()}-vCPU {cpu_name()}, "
               f"{platform.python_implementation()} {platform.python_version()}")
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        ids = {side: extract(rev, repo, trees[side]) for side, rev in revs.items()}
        # both files are checked before the first run, so none runs in vain
        docs = existing_recordings(out_dir, args.label, ids, machine)
        if args.cli:  # perfbench's warm-up: the cache, if the environment writes one
            for side in SIDES:
                run_cli(trees[side], ["--help"], env)
        recording = cli_recording if args.cli else perfbench_recording
        sides, lower = recording(trees, args, env)
    for side, (_, doc) in docs.items():
        doc["runs"].append({**sides[side], "bytecode_cache": bytecode_note(args.cli, env),
                            "order": ORDER, "pairs": args.pairs, "env": environment(ids[side]),
                            "change_lower_in": lower})
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, doc in docs.values():  # both files or, on a refusal above, neither
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for key, count in sorted(lower.items()):
        medians = [sides[side][f"{key.rsplit('.', 1)[1]}_summary"][key]["median"] for side in SIDES]
        print(f"{key}: median {medians[0]:.6g} -> {medians[1]:.6g}, "
              f"change lower in {count['lower']} of {count['pairs']} pairs")
    print("wrote " + ", ".join(str(path) for path, _ in docs.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

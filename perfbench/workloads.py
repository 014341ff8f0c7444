"""The benchmark's workloads and the exact checks on each call's output.

A workload is a list of calls a user makes: command-line verbs, and one
public library call the command line does not reach.  A pass runs every
call once, each in a fresh interpreter.  Each call's output is parsed
and its verdict fields are checked; the number of exact checks the
output reports is the call's check count.

Seeded workloads draw a different sub-seed for each pass from the run's
seed (``subseed``), cycling through ``subseeds`` of them.  Their work
varies with the seed: ``verify-adelman`` resolves its block
interpretation in 24 to over 120 trials, and heavy words make
``confluence_fuzz`` vary by about 2x.  A run's median over several
sub-seeds moves much less from seed to seed than one seed's time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

GOLDEN_SEED = 1729


@dataclass(frozen=True)
class Call:
    name: str             # key of the golden digest
    spec: dict            # the child's spec, without seed and trace
    check: object         # parsed output -> (verdicts hold, check count)
    seeded: bool = False  # takes --seed

    def child_spec(self, seed, trace):
        spec = dict(self.spec, trace=trace)
        if self.seeded:
            spec["argv"] = [*spec["argv"], "--seed", str(seed)]
        return spec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple
    subseeds: int = 1


def subseed(seed, k):
    """Seed of pass k: the run's own seed first, then seeds derived
    from it (string seeding hashes with SHA-512, so this is stable)."""
    return seed if k == 0 else random.Random(f"{seed}/{k}").randrange(2**31)


# ---------------------------------------------------------------------------
# verdicts and check counts, one function per output shape
# ---------------------------------------------------------------------------

def _all_zero(values):
    return all(v == "0" for v in values or ())


def _record(rec):
    """A report record: per-case checks and the dimension audit."""
    ok = True
    for case in rec["cases"]:
        checks = case.get("checks")
        ok = ok and checks is not None and checks["positivity"] is True \
            and checks["casimirNilpotent"] is True \
            and _all_zero(checks["alphaResiduals"]) \
            and _all_zero(checks["betaResiduals"])
    ok = ok and all(row["lhs"] == row["rhs"] for row in rec["audit"])
    return ok, len(rec["cases"]) + len(rec["audit"])


def check_report(doc):
    results = [_record(rec) for rec in doc["records"]]
    cases = sum(len(rec["cases"]) for rec in doc["records"])
    summary = doc["summary"]
    ok = all(r for r, _ in results) and summary["failures"] == 0 \
        and summary["casesRun"] == cases
    return ok, sum(n for _, n in results)


def check_decompose(doc):
    ok, count = _record(doc)
    blocks = [b for mu in doc["casimirBlocks"] for b in mu["blocks"]]
    ok = ok and all(mu["ok"] is True for mu in doc["casimirBlocks"])
    return ok, count + len(blocks)


def check_pseudoadjoint(doc):
    modules = doc["modules"]
    ok = all(m["identityZero"] is True and m["casimirMatch"] is True for m in modules)
    return ok, sum(m["labelsChecked"] for m in modules)


def check_hecke(doc):
    rows = doc["relations"]
    ok = doc["allPassed"] is True and all(r["witnessOrPass"] is True for r in rows)
    return ok, len(rows)


def check_heisenberg(doc):
    relations = doc["relationResiduals"]
    ok = all(r["residual"] == "0" for r in relations) \
        and doc["tildeMatchesFixture"] is True and doc["fuzz"]["failures"] == 0
    return ok, len(relations) + len(doc["tildeResiduals"]) + doc["fuzz"]["trials"]


def check_adelman(doc):
    chosen = doc["interpretationChosen"]
    congruence = doc["congruenceChecks"]
    universal = doc["universalPropertyTrials"]
    properties = ("reflexive", "symmetric", "transitive", "composition")
    ok = chosen["matchesFixture"] is True and universal["failed"] == 0 \
        and all(congruence[p] == congruence["trials"] for p in properties)
    count = chosen["resolutionTrials"] + len(properties) * congruence["trials"] \
        + universal["passed"] + universal["failed"]
    return ok, count


def verdict(call, text):
    """(verdicts hold, check count) for a call's output text; a text
    that does not parse fails with no checks."""
    try:
        return call.check(json.loads(text))
    except (ValueError, KeyError, TypeError):
        return False, 0


def cli(name, *argv, check, seeded=False):
    return Call(name, {"argv": list(argv)}, check, seeded)


WORKLOADS = {w.name: w for w in (
    Workload(
        "sl2-sweep",
        "sl2mod builders, enright solvers, Bareiss nullspace and Fraction matmul "
        "on mid-size weight slices, 85-176 KB JSON reports; no seed",
        (
            cli("report-n16", "report", "--n-max", "16", check=check_report),
            cli("decompose-n12", "decompose", "--n", "12", check=check_decompose),
            cli("pseudoadjoint-n12", "verify-pseudoadjoint", "--n", "12",
                check=check_pseudoadjoint),
        ),
    ),
    Workload(
        "adelman-trials",
        "thousands of tiny Fraction solves and small kernels: the same exactla "
        "layer as sl2-sweep, used the other way round",
        (cli("adelman-t200", "verify-adelman", "--trials", "200",
             check=check_adelman, seeded=True),),
        subseeds=7,
    ),
    Workload(
        "algebra-rewrite",
        "RatFunc gcd normalisation in Hecke products and cold-cache Heisenberg "
        "normal forms; no SparseMat work",
        (
            cli("hecke", "verify-hecke", check=check_hecke),
            Call("hecke-nondegenerate-5",
                 {"lib": "hecke.verify_nondegenerate", "args": [5]}, check_hecke),
            cli("heisenberg-t1000", "verify-heisenberg", "--trials", "1000",
                check=check_heisenberg, seeded=True),
        ),
        subseeds=5,
    ),
)}

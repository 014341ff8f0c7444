"""Batch command-line front end for the verification suites.

Verbs: decompose | hwv | projgen | verify-hecke | verify-heisenberg |
verify-adelman | verify-pseudoadjoint | report.  Output is JSON (sorted
keys, exact scalars rendered as decimal or "num/den" strings) or
RFC-4180 CSV.  Exit code 0 means every check passed, 1 flags a
verification failure, 2 a usage error.

Reports are byte-deterministic: a fixed default seed, fixed key order,
and string-rendered unbounded integers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import adelman, enright, hecke, heisenberg, sl2mod
from .exactla import scalar_str
from .fixtures import (
    ADELMAN_FIXTURE,
    TILDE_FIXTURE,
    FixtureError,
    load_tilde_fixture,
    save_json,
)

DEFAULT_SEED = 1729


@dataclass
class RunConfig:
    command: str
    n: int = None
    lam: int = 0
    s: int = None
    depth: int = None
    margin: int = 8
    q_mode: str = "both"
    trials: int = None
    seed: int = DEFAULT_SEED
    n_max: int = None
    output_path: str = None
    fmt: str = "json"
    refreeze: bool = False


# ---------------------------------------------------------------------------
# per-case record assembly (shared by hwv/projgen/decompose/report)
# ---------------------------------------------------------------------------

def _case_record(n, s, iprime):
    gen = enright.projective_generator(n, s) if s in iprime else None
    rec = gen.hwv if gen else enright.highest_weight_vector(n, s)
    alpha = enright.alpha_recursion_check(rec)
    case = {
        "s": s,
        "kind": "projective" if s in iprime else "verma",
        "p": [scalar_str(x) for x in rec.p_list],
        "coefficients": [[i, k, scalar_str(c)] for (i, k), c in sorted(rec.coefficients.items())],
        "q": None,
        "m": None,
        "final": None,
    }
    checks = {
        "hwvDim": 1,
        "alphaResiduals": [scalar_str(x) for x in alpha],
        "betaResiduals": None,
        "casimirNilpotent": False,
        "positivity": all(x > 0 for x in rec.p_list)
        and all(c > 0 for c in rec.coefficients.values()),
    }
    if gen:
        case["q"] = [scalar_str(x) for x in gen.q_list]
        case["m"] = gen.m_shift
        case["final"] = [scalar_str(x) for x in gen.final]
        checks["betaResiduals"] = [scalar_str(x) for x in gen.beta_residuals]
        checks["casimirNilpotent"] = True  # record construction verifies both halves
        checks["positivity"] = checks["positivity"] and all(x > 0 for x in gen.final)
    else:
        mat, basis = enright.casimir_weight_matrix(n, s, s * (s + 2))
        pos = {b: i for i, b in enumerate(basis)}
        vec = {pos[key]: v for key, v in rec.coefficients.items()}
        checks["casimirNilpotent"] = not mat.apply(vec)
    ok = (
        checks["positivity"]
        and checks["casimirNilpotent"]
        and all(x == "0" for x in checks["alphaResiduals"])
        and (checks["betaResiduals"] is None
             or all(x == "0" for x in checks["betaResiduals"]))
    )
    case["checks"] = checks
    return case, ok


def _index_sets_doc(sets):
    return {
        "I": list(sets.I),
        "Iprime": list(sets.Iprime),
        "Idoubleprime": list(sets.Idoubleprime),
        "Itripleprime": list(sets.Itripleprime),
    }


def _record_for_n(n, depth):
    sets = enright.index_sets(n, 0)
    cases = []
    ok = True
    for s in sorted(set(sets.Iprime) | set(sets.Itripleprime)):
        try:
            case, case_ok = _case_record(n, s, set(sets.Iprime))
        except (AssertionError, ValueError) as exc:
            case, case_ok = {"s": s, "error": str(exc)}, False
        cases.append(case)
        ok = ok and case_ok
    audit = enright.decomposition_audit(n, depth)
    ok = ok and all(r.lhs == r.rhs for r in audit)
    doc = {
        "n": n,
        "lambda": 0,
        "indexSets": _index_sets_doc(sets),
        "cases": cases,
        "audit": [{"mu": r.mu, "lhs": r.lhs, "rhs": r.rhs} for r in audit],
    }
    return doc, ok


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_decompose(cfg):
    depth = cfg.depth if cfg.depth is not None else 2 * cfg.n + 10
    if cfg.lam != 0:
        doc = {
            "n": cfg.n,
            "lambda": cfg.lam,
            "indexSets": _index_sets_doc(enright.index_sets(cfg.n, cfg.lam)),
            "note": "dimension audit runs for lambda = 0 only",
        }
        return doc, True
    doc, ok = _record_for_n(cfg.n, depth)
    blocks = []
    for j in range(depth + 1):
        mu = cfg.n - 2 * j
        rep = enright.casimir_blocks(cfg.n, mu, depth)
        blocks.append({
            "mu": mu,
            "ok": rep.ok,
            "blocks": [
                {"t": b.t, "c": b.c, "kernel": b.kernel_dim, "excess": b.excess_dim}
                for b in rep.blocks
            ],
        })
        ok = ok and rep.ok
    doc["casimirBlocks"] = blocks
    doc["module"] = sl2mod.module_to_json(sl2mod.build_tensor(cfg.n, depth))
    return doc, ok


def cmd_hwv(cfg):
    sets = enright.index_sets(cfg.n, 0)
    case, ok = _case_record(cfg.n, cfg.s, set(sets.Iprime))
    return {"n": cfg.n, "case": case}, ok


def cmd_projgen(cfg):
    gen = enright.projective_generator(cfg.n, cfg.s)
    doc = {
        "n": cfg.n,
        "s": cfg.s,
        "c": gen.c,
        "q": [scalar_str(x) for x in gen.q_list],
        "p": [scalar_str(x) for x in gen.p_list],
        "m": gen.m_shift,
        "final": [scalar_str(x) for x in gen.final],
        "omegaMinusC": [[i, j, scalar_str(x)]
                        for (i, j), x in sorted(gen.omega_minus_c.entries.items())],
        "betaResiduals": [scalar_str(x) for x in gen.beta_residuals],
        "qFormResiduals": [scalar_str(x) for x in gen.q_residuals],
    }
    ok = all(x == 0 for x in gen.beta_residuals) and all(x > 0 for x in gen.final)
    return doc, ok


def cmd_verify_hecke(cfg):
    n_deg = cfg.n_max if cfg.n_max is not None else 5
    n_nondeg = min(cfg.n_max, 4) if cfg.n_max is not None else 4
    n_bridge = min(cfg.n_max, 3) if cfg.n_max is not None else 3
    checks = []
    if cfg.q_mode in ("both", "unit"):
        for n in range(2, n_deg + 1):
            checks += [("degenerate", c) for c in hecke.verify_degenerate(n)]
    if cfg.q_mode in ("both", "generic"):
        for n in range(2, n_nondeg + 1):
            checks += [("nondegenerate", c) for c in hecke.verify_nondegenerate(n)]
        for n in range(2, n_bridge + 1):
            checks += [("degeneration", c) for c in hecke.degeneration_check(n)]
    rows = [{"model": model, "relation": c.family, "n": c.n, "indices": list(c.indices),
             "witnessOrPass": True if c.passed else c.witness}
            for model, c in checks]
    ok = all(c.passed for _, c in checks)
    return {"relations": rows, "allPassed": ok}, ok


def _tilde_table(max_n, max_m):
    rows = []
    for n in range(1, max_n + 1):
        _, residuals = heisenberg.tilde_probe(n, max_m)
        for (i, m, r) in residuals:
            rows.append({"n": i, "m": m, "residualNormalForm": repr(r)})
    return rows


def _word_str(word):
    """A word in the generators as its letters, b1.a2 style (1 if empty)."""
    return ".".join(f"{g}{i}" for g, i in word) or "1"


def cmd_verify_heisenberg(cfg):
    trials = cfg.trials if cfg.trials is not None else 1000
    order = 6
    residuals = heisenberg.verify_generating_identity(order)
    rel_rows = [{"i": i, "j": j, "residual": repr(r)}
                for (i, j), r in sorted(residuals.items())]
    rel_ok = all(not r for r in residuals.values())

    table = _tilde_table(4, 4)
    if cfg.refreeze:
        save_json(TILDE_FIXTURE, {"maxN": 6, "maxM": 6, "table": _tilde_table(6, 6)})
    frozen = load_tilde_fixture()
    frozen_map = {(row["n"], row["m"]): row["residualNormalForm"]
                  for row in frozen["table"]}
    tilde_ok = all(
        frozen_map.get((row["n"], row["m"])) == row["residualNormalForm"]
        for row in table
    )

    fuzz = heisenberg.confluence_fuzz(trials, cfg.seed)
    fuzz_doc = {
        "trials": fuzz.trials,
        "failures": len(fuzz.mismatches) + len(fuzz.negative_coefficient_words),
    }
    if not fuzz.ok:
        # the witnesses: every word the three normal forms disagree on,
        # and every word with a negative normal-form coefficient
        fuzz_doc["mismatches"] = [_word_str(w) for w in fuzz.mismatches]
        fuzz_doc["negativeCoefficientWords"] = [
            _word_str(w) for w in fuzz.negative_coefficient_words]
    doc = {
        "relationResiduals": rel_rows,
        "tildeResiduals": table,
        "tildeMatchesFixture": tilde_ok,
        "fuzz": fuzz_doc,
        "seed": cfg.seed,
    }
    ok = rel_ok and tilde_ok and fuzz.ok
    return doc, ok


def cmd_verify_adelman(cfg):
    trials = cfg.trials if cfg.trials is not None else 100
    if cfg.refreeze:
        reports = [adelman.resolve_interpretation(seed=s) for s in (cfg.seed, cfg.seed + 1, cfg.seed + 2)]
        choices = {(r.kernel_choice, r.cokernel_choice) for r in reports}
        if len(choices) != 1:
            raise AssertionError(f"interpretation unstable across seeds: {choices}")
        save_json(ADELMAN_FIXTURE, {
            "kernel": reports[0].kernel_choice,
            "cokernel": reports[0].cokernel_choice,
            "seeds": [r.seed for r in reports],
            "trials": [r.trials for r in reports],
        })
        adelman._frozen_choice = None
    frozen = adelman.frozen_interpretation()
    resolved = adelman.resolve_interpretation(seed=cfg.seed)
    stable = (resolved.kernel_choice, resolved.cokernel_choice) == frozen
    cong = adelman.congruence_checks(cfg.seed, max(trials // 4, 10))
    up = adelman.universal_property_trials(cfg.seed, trials)
    doc = {
        "interpretationChosen": {
            "kernel": resolved.kernel_choice,
            "cokernel": resolved.cokernel_choice,
            "matchesFixture": stable,
            "resolutionTrials": resolved.trials,
        },
        "congruenceChecks": {
            "trials": cong.trials,
            "reflexive": cong.reflexive_ok,
            "symmetric": cong.symmetric_ok,
            "transitive": cong.transitive_ok,
            "composition": cong.composition_ok,
        },
        "universalPropertyTrials": {
            "passed": up.kernel_passed + up.cokernel_passed,
            "failed": up.kernel_failed + up.cokernel_failed,
        },
        "seed": cfg.seed,
    }
    ok = stable and cong.ok and up.ok
    return doc, ok


def cmd_verify_pseudoadjoint(cfg):
    sets = enright.index_sets(cfg.n, 0)
    margin = cfg.margin
    depth = cfg.depth if cfg.depth is not None else margin + 12
    runs = []
    ok = True
    jobs = [("Verma", 0, sl2mod.build_verma(0, depth), 0)]
    jobs.append(("Ln", cfg.n, sl2mod.build_Ln(cfg.n), cfg.n * (cfg.n + 2)))
    for s in sets.Itripleprime:
        jobs.append(("Verma", s, sl2mod.build_verma(s, depth), s * (s + 2)))
    for r in sets.Iprime:
        mod = sl2mod.build_Tr(r, cfg.n, r + margin + 4)
        jobs.append(("Tr", r, mod, r * (r + 2)))
    for kind, idx, mod, c in jobs:
        rep = enright.pseudoadjoint_check(mod, c, margin)
        row = {
            "module": kind,
            "index": idx,
            "c": c,
            "labelsChecked": rep.labels_checked,
            "identityZero": rep.identity_zero,
            "casimirMatch": rep.casimir_match,
        }
        if rep.failures:
            # the witnesses: each failing check with the label it failed on
            row["failures"] = [[kind, sl2mod.label_str(b)] for kind, b in rep.failures]
        if "cross_coefficient" in mod.params:
            # observed, never asserted: the single e-coefficient from the
            # generator column onto the highest weight column
            row["crossCoefficient"] = scalar_str(mod.params["cross_coefficient"])
        runs.append(row)
        ok = ok and rep.identity_zero and rep.casimir_match
    return {"n": cfg.n, "margin": margin, "modules": runs}, ok


def cmd_report(cfg):
    results = [_record_for_n(n, 2 * n + 10 if cfg.depth is None else cfg.depth)
               for n in range(cfg.n_max + 1)]
    records = [doc for doc, _ in results]
    failures = sum(0 if ok else 1 for _, ok in results)
    cases_run = sum(len(doc["cases"]) for doc in records)
    doc = {
        "nMax": cfg.n_max,
        "seed": cfg.seed,
        "records": records,
        "summary": {"casesRun": cases_run, "failures": failures},
    }
    return doc, failures == 0


COMMANDS = {
    "decompose": cmd_decompose,
    "hwv": cmd_hwv,
    "projgen": cmd_projgen,
    "verify-hecke": cmd_verify_hecke,
    "verify-heisenberg": cmd_verify_heisenberg,
    "verify-adelman": cmd_verify_adelman,
    "verify-pseudoadjoint": cmd_verify_pseudoadjoint,
    "report": cmd_report,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_rows(command, doc):
    if command in ("decompose", "report"):
        records = doc["records"] if command == "report" else [doc]
        yield ["n", "mu", "lhs", "rhs"]
        for rec in records:
            for row in rec.get("audit", []):
                yield [rec["n"], row["mu"], row["lhs"], row["rhs"]]
    elif command == "hwv":
        yield ["i", "k", "coefficient"]
        for i, k, c in doc["case"]["coefficients"]:
            yield [i, k, c]
    elif command == "projgen":
        yield ["j", "q", "p", "final"]
        for j, (q, p, f) in enumerate(zip(doc["q"], doc["p"], doc["final"])):
            yield [j, q, p, f]
    elif command == "verify-hecke":
        yield ["model", "relation", "n", "indices", "witnessOrPass"]
        for row in doc["relations"]:
            yield [row["model"], row["relation"], row["n"],
                   " ".join(map(str, row["indices"])), row["witnessOrPass"]]
    elif command == "verify-heisenberg":
        yield ["n", "m", "residualNormalForm"]
        for row in doc["tildeResiduals"]:
            yield [row["n"], row["m"], row["residualNormalForm"]]
    elif command == "verify-adelman":
        yield ["check", "value"]
        for key in ("interpretationChosen", "congruenceChecks", "universalPropertyTrials"):
            yield [key, json.dumps(doc[key], sort_keys=True)]
    elif command == "verify-pseudoadjoint":
        yield ["module", "index", "c", "labelsChecked", "identityZero", "casimirMatch"]
        for row in doc["modules"]:
            # a failing row carries its witnesses as trailing kind:label cells
            yield [row["module"], row["index"], row["c"], row["labelsChecked"],
                   row["identityZero"], row["casimirMatch"],
                   *(f"{kind}:{label}" for kind, label in row.get("failures", ()))]
    else:
        yield ["key", "value"]
        yield [command, json.dumps(doc, sort_keys=True)]


def render_csv(command, doc):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    for row in _csv_rows(command, doc):
        writer.writerow(row)
    return buf.getvalue()


def run(cfg):
    """Execute one configured command; returns the process exit code."""
    handler = COMMANDS.get(cfg.command)
    if handler is None:
        print(f"unknown command: {cfg.command}", file=sys.stderr)
        return 2
    try:
        _validate(cfg)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        doc, ok = handler(cfg)
        text = render_json(doc) if cfg.fmt == "json" else render_csv(cfg.command, doc)
        if cfg.output_path:
            with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ValueError as exc:
        # precondition violations from the suites are usage errors
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        # ArithmeticError: an exact division that must succeed did not
        # (for example 1 - q not dividing a Hecke bridge coefficient)
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (FixtureError, OSError) as exc:
        # a missing or malformed fixture, or a file that cannot be read or written
        print(f"fixture or file error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def _validate(cfg):
    needs_n = cfg.command in ("decompose", "hwv", "projgen", "verify-pseudoadjoint")
    if needs_n:
        if cfg.n is None or cfg.n < 0:
            raise ValueError("--n must be a nonnegative integer")
    if cfg.command in ("hwv", "projgen") and cfg.s is None:
        raise ValueError("--s is required")
    if cfg.command == "report" and (cfg.n_max is None or cfg.n_max < 0):
        raise ValueError("--n-max must be a nonnegative integer")
    if cfg.command == "verify-hecke" and cfg.n_max is not None and cfg.n_max < 2:
        # smaller values would check no relation at all
        raise ValueError("--n-max must be at least 2 for verify-hecke")
    if cfg.depth is not None and cfg.depth < 0:
        raise ValueError("--depth must be nonnegative")
    if cfg.trials is not None and cfg.trials < 1:
        raise ValueError("--trials must be positive")
    if cfg.margin < 0:
        raise ValueError("--margin must be nonnegative")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vermalab",
        description="exact verification suites for sl2 tensor decompositions, "
                    "Hecke and Heisenberg relations, and the matrix abelianization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "decompose": "index sets, dimension audit, and Casimir blocks",
        "hwv": "highest weight vector at a given weight",
        "projgen": "projective generator with the coefficient recurrence",
        "verify-hecke": "all Hecke presentation relations",
        "verify-heisenberg": "normal-form identities, fuzzing, and the power-sum probe",
        "verify-adelman": "homotopy congruence and kernel/cokernel universal properties",
        "verify-pseudoadjoint": "the degree-eight functor identity on module slices",
        "report": "full sweep over n with per-case records",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=int, default=0)
        p.add_argument("--s", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--margin", type=int, default=8)
        p.add_argument("--q-mode", choices=("both", "generic", "unit"), default="both")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--output", "-o", dest="output_path", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--refreeze", action="store_true",
                       help="recompute and overwrite the checked-in fixtures")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        command=args.command, n=args.n, lam=args.lam, s=args.s,
        depth=args.depth, margin=args.margin, q_mode=args.q_mode,
        trials=args.trials, seed=args.seed, n_max=args.n_max,
        output_path=args.output_path, fmt=args.fmt, refreeze=args.refreeze,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())

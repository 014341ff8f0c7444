"""Batch command-line front end for the verification suites.

Verbs: decompose | hwv | projgen | verify-hecke | verify-heisenberg |
verify-adelman | verify-pseudoadjoint | report.  ``VERBS`` lists the
options each verb reads, with their defaults; any other option is a
usage error.  Output is JSON (sorted keys, every exact scalar an int
rendered by int.__repr__, which raises on any other type) or RFC-4180
CSV held to the same types.  Exit code 0 means every check passed;
otherwise the class of the exception alone decides it, with one stderr
line and no traceback:

    exit  classes                   stderr line
    2     sl2mod.UsageError         usage error: ...
    1     AssertionError            verification failure: [<Subclass>: ]...
    1     FixtureError, OSError     fixture or file error: ...
    3     any other Exception       internal error: <Class>: ...

verify-heisenberg owns its fixture's schema: the rows are its own
tildeResiduals rows.

Reports are byte-deterministic: a fixed default seed, fixed key order,
and string-rendered unbounded integers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Callable, NamedTuple

from . import adelman, enright, fixtures, hecke, heisenberg, sl2mod
from .fixtures import FixtureError

DEFAULT_SEED = 1729
# verify-hecke checks the nondegenerate relations and the degeneration
# only up to these n, whatever --n-max says
NONDEGENERATE_N_MAX = 4
DEGENERATION_N_MAX = 3


def _slice_rows(vec, k_top):
    """A slice vector keyed by i as [i, k, value] rows, k = k_top - i."""
    return [[i, k_top - i, int.__repr__(x)] for i, x in sorted(vec.items())]


# ---------------------------------------------------------------------------
# per-case record assembly (shared by hwv/projgen/decompose/report)
# ---------------------------------------------------------------------------

def _case_record(n, s, iprime):
    """The per-case record of index s at n, whether its checks pass, and
    the library record that ``enright.casimir_blocks`` reads for s."""
    gen = enright.projective_generator(n, s) if s in iprime else None
    rec = gen.hwv if gen else enright.highest_weight_vector(n, s)
    alpha = enright.alpha_recursion_check(rec)
    case = {
        "s": s,
        "kind": "projective" if s in iprime else "verma",
        "p": [int.__repr__(x) for x in rec.p_list],
        "coefficients": _slice_rows(rec.coefficients, (n - s) // 2),
        "q": None,
        "m": None,
        "final": None,
    }
    checks = {
        "hwvDim": 1,
        "alphaResiduals": [int.__repr__(x) for x in alpha],
        "betaResiduals": None,
        "casimirNilpotent": False,
        "positivity": all(x > 0 for x in rec.p_list)
        and all(c > 0 for c in rec.coefficients.values()),
    }
    if gen:
        case["q"] = [int.__repr__(x) for x in gen.q_list]
        case["m"] = gen.m_shift
        case["final"] = [int.__repr__(x) for x in gen.final]
        checks["betaResiduals"] = [int.__repr__(x) for x in gen.beta_residuals]
        checks["casimirNilpotent"] = True  # record construction verifies both halves
        checks["positivity"] = checks["positivity"] and all(x > 0 for x in gen.final)
    else:
        rows = enright.casimir_weight_matrix(n, s, s * (s + 2))
        residual = sl2mod.apply_rows(rows, rec.coefficients)
        checks["casimirNilpotent"] = not residual
        if residual:
            checks["casimirResidual"] = _slice_rows(residual, (n - s) // 2)
    ok = (
        checks["positivity"]
        and checks["casimirNilpotent"]
        and all(x == "0" for x in checks["alphaResiduals"])
        and (checks["betaResiduals"] is None
             or all(x == "0" for x in checks["betaResiduals"]))
    )
    case["checks"] = checks
    return case, ok, gen or rec


def _index_sets_doc(sets):
    return {
        "I": list(sets.I),
        "Iprime": list(sets.Iprime),
        "Idoubleprime": list(sets.Idoubleprime),
        "Itripleprime": list(sets.Itripleprime),
    }


def _record_for_n(n, depth):
    """The record of n, whether it passes, and the library records of the
    cases that built: a case whose record is an error has none."""
    sets = enright.index_sets(n, 0)
    cases = []
    records = {}
    ok = True
    for s in sorted(set(sets.Iprime) | set(sets.Itripleprime)):
        try:
            case, case_ok, records[s] = _case_record(n, s, set(sets.Iprime))
        except AssertionError as exc:
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
    return doc, ok, records


# ---------------------------------------------------------------------------
# commands: each takes the parsed options of its verb
# ---------------------------------------------------------------------------

def cmd_decompose(args):
    depth = args.depth if args.depth is not None else 2 * args.n + 10
    doc, ok, records = _record_for_n(args.n, depth)
    # the audit starts from the records' own vectors, so a case that
    # failed to build fails its blocks instead of being built again; they
    # are released before the module is built, where decompose peaks
    reports = enright.casimir_blocks(args.n, depth, records)
    del records
    blocks = []
    for rep in reports:
        rows = [{"t": b.t, "c": b.c, "kernel": b.kernel_dim, "excess": b.excess_dim}
                for b in rep.blocks]
        blocks.append({"mu": rep.mu, "ok": rep.ok, "blocks": rows})
        if not rep.ok:
            # the witness: the failed checks, each block's predicted
            # dimensions beside the certified ones, and the residual of
            # each failing certificate as [i, k, value] rows
            blocks[-1]["failedChecks"] = rep.failed_checks
            k_top = (args.n - rep.mu) // 2
            for row, b in zip(rows, rep.blocks):
                row.update(predictedKernel=b.predicted_kernel, predictedExcess=b.predicted_excess)
                for key, residual in (("kernelResidual", b.kernel_residual),
                                      ("excessResidual", b.excess_residual)):
                    if residual is not None:
                        row[key] = _slice_rows(residual, k_top)
        ok = ok and rep.ok
    doc["casimirBlocks"] = blocks
    doc["module"] = sl2mod.module_to_json(sl2mod.build_tensor(args.n, depth))
    return doc, ok


def cmd_hwv(args):
    sets = enright.index_sets(args.n, 0)
    case, ok, _ = _case_record(args.n, args.s, set(sets.Iprime))
    return {"n": args.n, "case": case}, ok


def cmd_projgen(args):
    gen = enright.projective_generator(args.n, args.s)
    # the single-index q-form of the recurrence is the same list
    residuals = [int.__repr__(x) for x in gen.beta_residuals]
    doc = {
        "n": args.n,
        "s": args.s,
        "c": gen.c,
        "q": [int.__repr__(x) for x in gen.q_list],
        "p": [int.__repr__(x) for x in gen.p_list],
        "m": gen.m_shift,
        "final": [int.__repr__(x) for x in gen.final],
        "omegaMinusC": [[i, j, int.__repr__(x)] for i, row in enumerate(gen.omega_minus_c)
                        for j, x in sorted(row.items())],
        "betaResiduals": residuals,
        "qFormResiduals": residuals,
    }
    ok = all(x == 0 for x in gen.beta_residuals) and all(x > 0 for x in gen.final)
    return doc, ok


def cmd_verify_hecke(args):
    checks = []
    if args.q_mode in ("both", "unit"):
        for n in range(2, args.n_max + 1):
            checks += [("degenerate", c) for c in hecke.verify_degenerate(n)]
    if args.q_mode in ("both", "generic"):
        for n in range(2, min(args.n_max, NONDEGENERATE_N_MAX) + 1):
            checks += [("nondegenerate", c) for c in hecke.verify_nondegenerate(n)]
        for n in range(2, min(args.n_max, DEGENERATION_N_MAX) + 1):
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


def cmd_verify_heisenberg(args):
    order = 6
    residuals = heisenberg.verify_generating_identity(order)
    rel_rows = [{"i": i, "j": j, "residual": repr(r)}
                for (i, j), r in sorted(residuals.items())]
    rel_ok = all(not r for r in residuals.values())

    table = _tilde_table(4, 4)
    path = fixtures.TILDE_FIXTURE
    if args.refreeze:
        fixtures.save_json(path, {"maxN": 6, "maxM": 6, "table": _tilde_table(6, 6)})
    frozen = fixtures.load_json(path)
    try:
        frozen_map = {(row["n"], row["m"]): row["residualNormalForm"] for row in frozen["table"]}
    except (KeyError, TypeError) as exc:
        raise FixtureError(f"{path} must hold a table of rows with n, m and "
                           f"residualNormalForm: {type(exc).__name__}: {exc}") from exc
    # the witness: every row whose normal form is not the frozen one
    mismatches = [{"n": row["n"], "m": row["m"], "computed": row["residualNormalForm"],
                   "frozen": frozen_map.get((row["n"], row["m"]))} for row in table
                  if frozen_map.get((row["n"], row["m"])) != row["residualNormalForm"]]

    fuzz = heisenberg.confluence_fuzz(args.trials, args.seed)
    fuzz_doc = {
        "trials": fuzz.trials,
        "failures": len(fuzz.mismatches) + len(fuzz.negative_coefficient_words),
    }
    if not fuzz.ok:
        # the witnesses: every word the three normal forms disagree on,
        # and every word with a negative normal-form coefficient
        fuzz_doc["mismatches"] = [heisenberg.word_str(w) for w in fuzz.mismatches]
        fuzz_doc["negativeCoefficientWords"] = [
            heisenberg.word_str(w) for w in fuzz.negative_coefficient_words]
    doc = {
        "relationResiduals": rel_rows,
        "tildeResiduals": table,
        "tildeMatchesFixture": not mismatches,
        "fuzz": fuzz_doc,
        "seed": args.seed,
    }
    if mismatches:
        doc["tildeMismatches"] = mismatches
    ok = rel_ok and not mismatches and fuzz.ok
    return doc, ok


def cmd_verify_adelman(args):
    seed = args.seed
    resolve = adelman.freeze_interpretation if args.refreeze else adelman.resolve_interpretation
    resolved = resolve(seed)
    frozen = adelman.frozen_interpretation()
    stable = (resolved.kernel_choice, resolved.cokernel_choice) == frozen
    cong = adelman.congruence_checks(seed, max(args.trials // 4, 10))
    up = adelman.universal_property_trials(seed, args.trials)
    doc = {
        "interpretationChosen": {
            "kernel": resolved.kernel_choice,
            "cokernel": resolved.cokernel_choice,
            "matchesFixture": stable,
            "resolutionTrials": resolved.trials,
        },
        "congruenceChecks": {"trials": cong.trials,
                             **{r: cong.passed(r) for r in adelman.RELATIONS}},
        "universalPropertyTrials": {
            "passed": up.passed,
            "failed": len(up.failures),
        },
        "seed": seed,
    }
    # the witnesses, only when there are any, so passing bytes stay the same
    if not stable:
        doc["interpretationChosen"]["fixture"] = {"kernel": frozen[0], "cokernel": frozen[1]}
    if cong.failures:
        doc["congruenceChecks"]["failures"] = cong.failures
    if up.failures:
        doc["universalPropertyTrials"]["failures"] = up.failures
    ok = stable and cong.ok and up.ok
    return doc, ok


def cmd_verify_pseudoadjoint(args):
    n, margin = args.n, args.margin
    depth = args.depth if args.depth is not None else margin + 12
    sets = enright.index_sets(n, 0)
    runs = []
    ok = True
    jobs = [("Verma", 0, sl2mod.build_verma(0, depth), 0)]
    jobs.append(("Ln", n, sl2mod.build_Ln(n), n * (n + 2)))
    for s in sets.Itripleprime:
        jobs.append(("Verma", s, sl2mod.build_verma(s, depth), s * (s + 2)))
    for r in sets.Iprime:
        mod = sl2mod.build_Tr(enright.projective_generator(n, r), r + margin + 4)
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
            row["crossCoefficient"] = int.__repr__(mod.params["cross_coefficient"])
        runs.append(row)
        ok = ok and rep.identity_zero and rep.casimir_match
    return {"n": n, "margin": margin, "modules": runs}, ok


def cmd_report(args):
    # each n's library records are dropped as soon as its document is built
    results = [_record_for_n(n, 2 * n + 10 if args.depth is None else args.depth)[:2]
               for n in range(args.n_max + 1)]
    records = [doc for doc, _ in results]
    failures = sum(0 if ok else 1 for _, ok in results)
    cases_run = sum(len(doc["cases"]) for doc in records)
    doc = {
        "nMax": args.n_max,
        "seed": DEFAULT_SEED,  # kept so that report bytes stay as they were
        "records": records,
        "summary": {"casesRun": cases_run, "failures": failures},
    }
    return doc, failures == 0


# ---------------------------------------------------------------------------
# CSV rows: each takes its verb's report document
# ---------------------------------------------------------------------------

def _audit_rows(records):
    return [["n", "mu", "lhs", "rhs"]] + [
        [rec["n"], row["mu"], row["lhs"], row["rhs"]]
        for rec in records for row in rec.get("audit", [])]


def _hwv_rows(doc):
    return [["i", "k", "coefficient"], *doc["case"]["coefficients"]]


def _projgen_rows(doc):
    return [["j", "q", "p", "final"]] + [
        [j, *qpf] for j, qpf in enumerate(zip(doc["q"], doc["p"], doc["final"]))]


def _hecke_rows(doc):
    return [["model", "relation", "n", "indices", "witnessOrPass"]] + [
        [row["model"], row["relation"], row["n"], " ".join(map(str, row["indices"])),
         row["witnessOrPass"]] for row in doc["relations"]]


def _heisenberg_rows(doc):
    return [["n", "m", "residualNormalForm"]] + [
        [row["n"], row["m"], row["residualNormalForm"]] for row in doc["tildeResiduals"]]


def _adelman_rows(doc):
    return [["check", "value"]] + [
        [key, doc[key]]
        for key in ("interpretationChosen", "congruenceChecks", "universalPropertyTrials")]


def _pseudoadjoint_rows(doc):
    # a failing row carries its witnesses as trailing kind:label cells
    return [["module", "index", "c", "labelsChecked", "identityZero", "casimirMatch"]] + [
        [row["module"], row["index"], row["c"], row["labelsChecked"], row["identityZero"],
         row["casimirMatch"], *(f"{kind}:{label}" for kind, label in row.get("failures", ()))]
        for row in doc["modules"]]


# ---------------------------------------------------------------------------
# the verb table
# ---------------------------------------------------------------------------

class Option(NamedTuple):
    flag: str
    dest: str           # the attribute it is parsed into
    least: int | None   # the least value accepted, None for any
    settings: dict      # the other add_argument keywords


def _int_option(flag, dest, least=None, **settings):
    return Option(flag, dest, least, {"type": int, **settings})


N = _int_option("--n", "n", 0, required=True)
S = _int_option("--s", "s", required=True)
DEPTH = _int_option("--depth", "depth", 0)  # no fixed default: each verb derives one
MARGIN = _int_option("--margin", "margin", 0, default=8)
SEED = _int_option("--seed", "seed", default=DEFAULT_SEED)
Q_MODE = Option("--q-mode", "q_mode", None,
                {"choices": ("both", "generic", "unit"), "default": "both"})
REFREEZE = Option("--refreeze", "refreeze", None,
                  {"action": "store_true",
                   "help": "recompute and overwrite the checked-in fixtures"})


class Verb(NamedTuple):
    handler: Callable   # parsed options -> (report document, all checks passed)
    help: str
    options: tuple
    csv_rows: Callable  # report document -> CSV rows, header first


VERBS = {
    "decompose": Verb(
        cmd_decompose, "index sets, dimension audit, and Casimir blocks",
        (N, DEPTH), lambda doc: _audit_rows([doc])),
    "hwv": Verb(
        cmd_hwv, "highest weight vector at a given weight", (N, S), _hwv_rows),
    "projgen": Verb(
        cmd_projgen, "projective generator with the coefficient recurrence",
        (N, S), _projgen_rows),
    "verify-hecke": Verb(
        cmd_verify_hecke, "all Hecke presentation relations",
        # below n = 2 there is no relation to check, so a pass would be vacuous
        (Q_MODE, _int_option(
            "--n-max", "n_max", 2, default=5,
            help="largest n of the degenerate relations (default 5, at least 2); the "
                 f"nondegenerate relations stop at n = {NONDEGENERATE_N_MAX} and the "
                 f"degeneration check at n = {DEGENERATION_N_MAX}, whatever this is")),
        _hecke_rows),
    "verify-heisenberg": Verb(
        cmd_verify_heisenberg, "normal-form identities, fuzzing, and the power-sum probe",
        (_int_option("--trials", "trials", 1, default=1000), SEED, REFREEZE),
        _heisenberg_rows),
    "verify-adelman": Verb(
        cmd_verify_adelman,
        "homotopy congruence and kernel/cokernel universal properties",
        (_int_option("--trials", "trials", 1, default=100), SEED, REFREEZE),
        _adelman_rows),
    "verify-pseudoadjoint": Verb(
        cmd_verify_pseudoadjoint, "the degree-eight functor identity on module slices",
        (N, DEPTH, MARGIN), _pseudoadjoint_rows),
    "report": Verb(
        cmd_report, "full sweep over n with per-case records",
        (_int_option("--n-max", "n_max", 0, required=True), DEPTH),
        lambda doc: _audit_rows(doc["records"])),
}


# ---------------------------------------------------------------------------
# rendering and the entry point
# ---------------------------------------------------------------------------

def render_json(doc):
    """json.dumps(doc, indent=2, sort_keys=True) + "\\n", appended to one list
    instead of re-yielded through json's pure-Python indenting encoder.
    Only what an exact report holds is accepted: dicts with str keys, lists
    and tuples, str, int, bool and None; anything else, a float included,
    raises TypeError."""
    out = []
    _write_json(doc, out, "\n")
    return "".join(out) + "\n"


_quote = json.encoder.encode_basestring_ascii  # a TypeError on a key that is no str
# the text of a scalar by its exact type; a subclass of str or int takes the last branch
_SCALAR_TEXT = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get,
                type(None): lambda _: "null"}


def _write_json(value, out, newline):
    # newline breaks and indents the line value starts on; a container
    # writes its scalar items itself and recurses into the rest
    if isinstance(value, (dict, list, tuple)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key in sorted(value):
            item = value[key]
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                out.append(f"{sep}{inner}{_quote(key)}: ")
                _write_json(item, out, inner)
            else:
                out.append(f"{sep}{inner}{_quote(key)}: {text(item)}")
            sep = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                out.append(sep)
                _write_json(item, out, inner)
            else:
                out.append(sep + text(item))
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, (str, int)) or value is None:
        text = _SCALAR_TEXT.get(type(value)) or (_quote if isinstance(value, str) else int.__repr__)
        out.append(text(value))
    else:
        raise TypeError(f"a {type(value).__name__} has no place in an exact report")


def render_csv(rows):
    """RFC-4180 CSV of rows held to what render_json takes, a dict cell
    written as its one-line JSON with sorted keys."""
    render_json(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows([json.dumps(cell, sort_keys=True) if isinstance(cell, dict) else cell
                      for cell in row] for row in rows)
    return buf.getvalue()


def build_parser(only=None):
    """The parser of every verb, or of the verb named only alone."""
    parser = argparse.ArgumentParser(
        prog="vermalab",
        description="exact verification suites for sl2 tensor decompositions, "
                    "Hecke and Heisenberg relations, and the matrix abelianization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in VERBS.items() if only is None else [(only, VERBS[only])]:
        # no abbreviations: --n must not be read as --n-max, nor --s as --seed
        p = sub.add_parser(name, help=verb.help, allow_abbrev=False)
        for opt in verb.options:
            p.add_argument(opt.flag, dest=opt.dest, **opt.settings)
        p.add_argument("--output", "-o", dest="output_path", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.set_defaults(verb_parser=p)
    return parser


def _check_ranges(args, options):
    for opt in options:
        value = getattr(args, opt.dest)
        if opt.least is not None and value is not None and value < opt.least:
            raise sl2mod.UsageError(f"{opt.flag} must be at least {opt.least}")


def main(argv=None):
    """Run one verb; returns the process exit code.

    argparse rejects an unknown verb, an option the verb does not read
    and a missing required option by raising SystemExit(2); a foreign
    option is reported with the usage of the verb it was given to.
    """
    argv = sys.argv[1:] if argv is None else argv
    args, extra = build_parser(argv[0] if argv and argv[0] in VERBS else None).parse_known_args(argv)
    if extra:
        args.verb_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    verb = VERBS[args.command]
    try:
        _check_ranges(args, verb.options)
        doc, ok = verb.handler(args)
        text = render_json(doc) if args.fmt == "json" else render_csv(verb.csv_rows(doc))
        if args.output_path:
            with open(args.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except sl2mod.UsageError as exc:
        # an out-of-range option, an index that names no case, a depth below the margin
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a failed check; a subclass, such as ConstructionError, names itself
        name = "" if type(exc) is AssertionError else f"{type(exc).__name__}: "
        print(f"verification failure: {name}{exc}", file=sys.stderr)
        return 1
    except (FixtureError, OSError) as exc:
        # a missing or malformed fixture, or a file that cannot be read or written
        print(f"fixture or file error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a fault of the program itself: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}".replace("\n", " "), file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

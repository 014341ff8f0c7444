"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance zero); the only numeric thresholds are
wall-clock limits.  Each test prints a single PASS/FAIL line so the
suite doubles as a checklist:

    pytest -v -s tests/test_acceptance.py
"""

import time

from oracles import decategorify, slice_matrix, zero_equivalent

from vermalab import adelman, enright, hecke, heisenberg
from vermalab.cli import main
from vermalab.exactla import generalized_kernel
from vermalab.fixtures import TILDE_FIXTURE, load_json
from vermalab.sl2mod import (
    apply_op,
    build_Ln,
    build_Tr,
    build_tensor,
    build_verma,
    tensor_weight_basis,
)


def _report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _closed_form_sets(n):
    if n % 2 == 0:
        ip = list(range(0, n - 1, 2))
        idp = list(range(-n, -1, 2))
        itp = [n]
    else:
        ip = list(range(1, n - 1, 2))
        idp = list(range(-n, -2, 2))
        itp = [-1, n] if n >= 1 else [n]
    return ip, idp, itp


def test_criterion_01_index_sets():
    start = time.monotonic()
    ok = True
    for n in range(13):
        sets = enright.index_sets(n, 0)
        ip, idp, itp = _closed_form_sets(n)
        ok = ok and list(sets.Iprime) == ip
        ok = ok and list(sets.Idoubleprime) == idp
        ok = ok and list(sets.Itripleprime) == itp
    for n in range(65):
        for lam in range(-16, 17):
            sets = enright.index_sets(n, lam)
            union = sorted(sets.Iprime + sets.Idoubleprime + sets.Itripleprime)
            ok = ok and union == list(sets.I)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(1, f"index sets match closed forms and partition I ({elapsed:.2f}s < 1s)", ok)


def test_criterion_02_highest_weight_vectors():
    start = time.monotonic()
    ok = True
    for n in range(13):
        sets = enright.index_sets(n, 0)
        for s in sorted(set(sets.Iprime) | {n}):
            rec = enright.highest_weight_vector(n, s)  # asserts 1-dim e-kernel
            ok = ok and all(isinstance(p, int) and p > 0 for p in rec.p_list)
            if s != n:
                # exact proportionality oracle vs closed form, cross-multiplied
                for j, p in enumerate(rec.p_list):
                    a = rec.coefficients.get(j, 0)
                    ok = ok and a * rec.p_list[0] == rec.coefficients[0] * p
    ok = ok and enright.p_coefficients(4, -2) == [16, 8]
    ok = ok and enright.p_coefficients(6, -4) == [24, 8]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(2, f"e-kernels one-dimensional, proportional to positive closed form "
               f"({elapsed:.2f}s < 10s)", ok)


def test_criterion_03_recursions():
    ok = True
    for n in range(13):
        sets = enright.index_sets(n, 0)
        for s in sorted(set(sets.Iprime) | {n}):
            rec = enright.highest_weight_vector(n, s)
            ok = ok and all(x == 0 for x in enright.alpha_recursion_check(rec))
        for s in sets.Iprime:
            gen = enright.projective_generator(n, s)
            ok = ok and all(x == 0 for x in gen.beta_residuals)
    _report(3, "alpha and beta recursion residuals exactly zero for n <= 12", ok)


def test_criterion_04_projective_generators():
    ok = True
    for n in range(11):
        for s in enright.index_sets(n, 0).Iprime:
            gen = enright.projective_generator(n, s)
            a = dict(enumerate(gen.final))
            mat = slice_matrix(gen.omega_minus_c, len(gen.omega_minus_c))
            shifted = mat.apply(a)
            ok = ok and bool(shifted)
            ok = ok and not mat.apply(shifted)
            # final stops at top, so the boundary (top + 1, 0) holds zero
            top = (n + s) // 2
            ok = ok and len(gen.final) == top + 1
            ok = ok and tensor_weight_basis(n, -s - 2)[top + 1] == (top + 1, 0)
            ok = ok and all(isinstance(x, int) and x > 0 for x in gen.final)
    fix = enright.projective_generator(2, 0)
    cols = [[fix.omega_minus_c[i].get(j, 0) for i in range(3)] for j in range(3)]
    ok = ok and cols == [[-8, -8, 0], [8, 8, 0], [0, 4, 8]]
    _report(4, "two-step Casimir structure, zero boundary, positive shifted "
               "coefficients, n=2 Jordan fixture", ok)


def test_criterion_05_decomposition_audit():
    ok = True
    for n in range(13):
        for row in enright.decomposition_audit(n, 2 * n + 10):
            ok = ok and row.lhs == row.rhs
    _report(5, "per-weight dimensions match the decomposition, n <= 12, "
               "depth 2n+10", ok)


def test_criterion_06_casimir_blocks():
    ok = True
    for n in range(13):
        sets = enright.index_sets(n, 0)
        for rep in enright.casimir_blocks(n, 2 * n + 10):
            mu = rep.mu
            ok = ok and rep.ok
            for b in rep.blocks:
                # two-step nilpotency on bases of ker M and ker M^2 / ker M
                rows = enright.casimir_weight_matrix(n, mu, b.c)
                shifted = slice_matrix(rows, len(rows))
                kernel, excess = generalized_kernel(shifted)
                ok = ok and (len(kernel), len(excess)) == (b.kernel_dim, b.excess_dim)
                ok = ok and all(not shifted.apply(shifted.apply(v)) for v in kernel + excess)
                expected_excess = 1 if (b.t in sets.Iprime and mu <= -b.t - 2) else 0
                ok = ok and b.excess_dim == expected_excess
    _report(6, "eigenvalue multisets, two-step nilpotency, and excess exactly "
               "under projective covers", ok)


def test_criterion_07_pseudoadjoint():
    ok = True
    margin = 8
    rep = enright.pseudoadjoint_check(build_verma(0, margin + 8), 0, margin)
    ok = ok and rep.identity_zero and rep.casimir_match
    for n in range(9):
        sets = enright.index_sets(n, 0)
        for s in sets.Itripleprime:
            mod = build_verma(s, margin + 8)
            rep = enright.pseudoadjoint_check(mod, s * (s + 2), margin)
            ok = ok and rep.identity_zero and rep.casimir_match
        for r in sets.Iprime:
            mod = build_Tr(enright.projective_generator(n, r), r + margin + 4)
            rep = enright.pseudoadjoint_check(mod, r * (r + 2), margin)
            ok = ok and rep.identity_zero and rep.casimir_match
        rep = enright.pseudoadjoint_check(build_Ln(n), n * (n + 2), margin)
        ok = ok and rep.identity_zero and rep.casimir_match
    _report(7, "degree-8 identity and B - C = Casimir exact on margin-8 "
               "interiors, n <= 8", ok)


def test_criterion_08_positivity_and_decategorification():
    ok = True
    for n in range(13):
        depth = n + 8
        dec = decategorify(n, depth)
        ok = ok and dec.ok
        mod = build_tensor(n, depth)
        ok = ok and all(
            type(x) is int and x > 0
            for x in mod.act_matrix("f").entries.values())
        sets = enright.index_sets(n, 0)
        for s in sorted(set(sets.Iprime) | {n}):
            rec = enright.highest_weight_vector(n, s)
            v = {("vw", i, (n - s) // 2 - i): c for i, c in rec.coefficients.items()}
            max_l = 2 * depth - (n + s) // 2 - depth  # stay inside the slice
            for _ in range(max(max_l, 4)):
                v = apply_op(mod, "f", v)
                ok = ok and all(
                    type(c) is int and c >= 0 for c in v.values())
    _report(8, "actF nonnegative integer, f-powers stay nonnegative, class map "
               "bijective and intertwining with [U_s] -> u_s", ok)


def test_criterion_09_hecke():
    ok = True
    for n in range(2, 6):
        ok = ok and all(c.passed for c in hecke.verify_degenerate(n))
    for n in range(2, 6):
        ok = ok and all(c.passed for c in hecke.verify_nondegenerate(n))
    for n in range(2, 5):
        ok = ok and all(c.passed for c in hecke.degeneration_check(n))
    _report(9, "degenerate relations n <= 5, nondegenerate over Z[q, q^-1] n <= 5, "
               "bridge identity n <= 4", ok)


def test_criterion_10_heisenberg():
    residuals = heisenberg.verify_generating_identity(6)
    ok = all(not r for r in residuals.values())
    verdict = heisenberg.confluence_fuzz(1000, 1729)
    ok = ok and verdict.ok and verdict.trials == 1000
    frozen = {(row["n"], row["m"]): row["residualNormalForm"]
              for row in load_json(TILDE_FIXTURE)["table"]}
    for n in range(1, 5):
        _, res = heisenberg.tilde_probe(n, 4)
        for (i, m, r) in res:
            ok = ok and repr(r) == frozen[i, m]
    one = heisenberg.HElem.one()
    b = heisenberg.HElem.monomial
    t1 = heisenberg.tilde_candidates(1)[0]
    t2 = heisenberg.tilde_candidates(2)[1]
    ok = ok and t1.commutator(b(b_indices=(1,))) == one
    ok = ok and t2.commutator(b(b_indices=(2,))) == one
    ok = ok and not t2.commutator(b(b_indices=(1,)))
    _report(10, "generating identity to order 6, 1000-word confluence fuzz, "
                "power-sum table matches frozen oracle", ok)


def test_criterion_11_adelman():
    ok = True
    cong = adelman.congruence_checks(seed=1729, trials=100, max_dim=4)
    ok = ok and cong.ok
    up = adelman.universal_property_trials(seed=1729, trials=60, max_dim=4)
    ok = ok and up.ok and up.passed >= 100
    X = adelman.embed(2)
    idX = adelman.identity_of(X)
    ker, _ = adelman.kernel(idX)
    cok, _ = adelman.cokernel(idX)
    ok = ok and zero_equivalent(ker) and zero_equivalent(cok)
    z = adelman.zero_morphism(X, X)
    ker0, inc0 = adelman.kernel(z)
    g = adelman.factors_through_kernel(idX, inc0)
    ok = ok and g is not None
    ok = ok and adelman.homotopic(adelman.compose(inc0, g), idX) is not None
    ok = ok and adelman.homotopic(
        adelman.compose(g, inc0), adelman.identity_of(ker0)) is not None
    cok0, proj0 = adelman.cokernel(z)
    h = adelman.factors_through_cokernel(idX, proj0)
    ok = ok and h is not None
    ok = ok and adelman.homotopic(adelman.compose(h, proj0), idX) is not None
    ok = ok and adelman.homotopic(
        adelman.compose(proj0, h), adelman.identity_of(cok0)) is not None
    choices = set()
    for seed in (1729, 7, 42):
        rep = adelman.resolve_interpretation(seed=seed)
        choices.add((rep.kernel_choice, rep.cokernel_choice))
    ok = ok and len(choices) == 1
    _report(11, "homotopy congruence, universal properties on 100+ instances, "
                "kernel/cokernel of identity and zero, stable interpretation", ok)


def test_criterion_12_end_to_end(tmp_path):
    start = time.monotonic()
    a = tmp_path / "report_a.json"
    b = tmp_path / "report_b.json"
    code_a = main(["report", "--n-max", "8", "-o", str(a)])
    code_b = main(["report", "--n-max", "8", "-o", str(b)])
    elapsed = time.monotonic() - start
    ok = code_a == 0 and code_b == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    ok = ok and elapsed < 300.0
    _report(12, f"report --n-max 8 twice, byte-identical, {elapsed:.1f}s < 300s", ok)

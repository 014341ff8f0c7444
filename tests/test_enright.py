import json
import re
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    apply_word,
    casimir,
    decategorify,
    entry,
    formal_matrices,
    per_vector_pseudoadjoint_check,
    rank,
    slice_kernel,
    slice_matrix,
    solved_casimir_blocks,
    solved_casimir_kernels,
    solved_highest_weight_vector,
    solved_projective_generator,
    substituted_casimir_blocks,
)

from vermalab import enright, sl2mod
from vermalab.cli import main
from vermalab.exactla import (
    SparseMat,
    generalized_kernel,
    normalize_integer_vector,
    nullspace,
    solve,
    vec_iadd,
)
from vermalab.sl2mod import (
    TruncatedModule,
    apply_op,
    build_Ln,
    build_Tr,
    build_tensor,
    build_verma,
    e_weight_matrix,
    f_on_slice,
    tensor_weight_basis,
)


class TestIndexSets:
    @pytest.mark.parametrize("n,lam,ip,idp,itp", [
        (4, 0, (0, 2), (-4, -2), (4,)),
        (3, 0, (1,), (-3,), (-1, 3)),
        (0, 0, (), (), (0,)),
        (6, 0, (0, 2, 4), (-6, -4, -2), (6,)),
        (5, 0, (1, 3), (-5, -3), (-1, 5)),
    ])
    def test_lambda_zero_closed_forms(self, n, lam, ip, idp, itp):
        sets = enright.index_sets(n, lam)
        assert sets.Iprime == ip
        assert sets.Idoubleprime == idp
        assert sets.Itripleprime == itp

    def test_partition_property_sweep(self):
        for n in range(0, 33):
            for lam in range(-8, 9):
                sets = enright.index_sets(n, lam)
                union = sorted(sets.Iprime + sets.Idoubleprime + sets.Itripleprime)
                assert union == list(sets.I)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            enright.index_sets(-1, 0)

    @pytest.mark.parametrize("field", ["n", "I", "Iprime"])
    def test_frozen(self, field):
        with pytest.raises(AttributeError):
            setattr(enright.index_sets(4, 0), field, ())


class TestPCoefficients:
    @pytest.mark.parametrize("n,r,expect", [
        (4, -2, [16, 8]),
        (2, -2, [1]),
        (6, -4, [24, 8]),
    ])
    def test_closed_form_values(self, n, r, expect):
        assert enright.p_coefficients(n, r) == expect

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            enright.p_coefficients(4, -1)

    def test_all_positive_integers(self):
        for n in range(0, 13):
            for s in enright.index_sets(n, 0).Iprime:
                ps = enright.p_coefficients(n, -s - 2)
                assert all(isinstance(p, int) and p > 0 for p in ps)

    def test_annihilation_by_e(self):
        # e applied to the closed-form combination vanishes exactly
        n, r = 6, -4
        ps = enright.p_coefficients(n, r)
        mod = build_tensor(n, 8)
        vec = {}
        for j, p in enumerate(ps):
            vec[("vw", j, (n + r + 2) // 2 - j)] = p
        assert apply_op(mod, "e", vec) == {}


class TestHighestWeightVector:
    def test_top_vector(self):
        rec = enright.highest_weight_vector(2, 2)
        assert rec.coefficients == {0: 1}

    def test_n4_weight0(self):
        rec = enright.highest_weight_vector(4, 0)
        assert rec.coefficients == {0: 2, 1: 1}  # at (i, k) = (0, 2), (1, 1)
        assert rec.p_list == [16, 8]

    def test_n2_weight0(self):
        rec = enright.highest_weight_vector(2, 0)
        assert rec.coefficients == {0: 1}

    def test_kernel_dimension_one_sweep(self):
        for n in range(0, 13):
            sets = enright.index_sets(n, 0)
            for s in sorted(set(sets.Iprime) | {n}):
                rec = enright.highest_weight_vector(n, s)
                assert all(c > 0 for c in rec.coefficients.values())
                # keyed by slice index: the support is 0 .. len - 1
                assert sorted(rec.coefficients) == list(range(len(rec.coefficients)))

    def test_rejects_non_hwv_weight(self):
        with pytest.raises(ValueError):
            enright.highest_weight_vector(4, -2)  # -2 is a mirror index


class TestAlphaRecursion:
    def test_n4_s0_residuals(self):
        rec = enright.highest_weight_vector(4, 0)
        assert enright.alpha_recursion_check(rec) == [0, 0]
        # the displayed instance: alpha_{1,1} * 4 - alpha_{0,2} * 2 = 0 for p=(16,8)
        assert 8 * 4 - 16 * 2 == 0

    def test_single_term_vacuous(self):
        rec = enright.highest_weight_vector(2, 0)
        res = enright.alpha_recursion_check(rec)
        assert all(x == 0 for x in res)

    def test_n6_s2(self):
        rec = enright.highest_weight_vector(6, 2)
        assert rec.p_list == [24, 8]
        assert all(x == 0 for x in enright.alpha_recursion_check(rec))


class TestApplyFPower:
    @staticmethod
    def f_steps(n, rec, count):
        """f u, ..., f^count u for the highest weight vector u of rec."""
        out = [rec.coefficients]
        for _ in range(count):
            out.append(f_on_slice(n, out[-1]))
        return out[1:]

    def test_single_step(self):
        rec = enright.highest_weight_vector(2, 0)
        # f (v_0 (x) w_1) = v_1 (x) w_1 + v_0 (x) w_2
        assert self.f_steps(2, rec, 1) == [{1: 1, 0: 1}]

    def test_image_satisfies_hwv_recursion(self):
        # coefficients of f u_0 in L4 (x) V0 follow the same recurrence
        n = 4
        rec = enright.highest_weight_vector(n, 0)
        [coeffs] = self.f_steps(n, rec, 1)
        assert all(x == 0 for x in enright.hwv_recursion_residuals(n, -2, coeffs))

    def test_nonnegativity_preserved(self):
        n = 6
        rec = enright.highest_weight_vector(n, 2)
        for v in self.f_steps(n, rec, 10):
            assert v
            assert all(type(c) is int and c > 0 for c in v.values())


class TestProjectiveGenerator:
    def test_n2_s0_fixture(self):
        rec = enright.projective_generator(2, 0)
        assert tensor_weight_basis(2, -2) == [(0, 2), (1, 1), (2, 0)]
        assert len(rec.omega_minus_c) == 3
        cols = [[rec.omega_minus_c[i].get(j, 0) for i in range(3)] for j in range(3)]
        assert cols == [[-8, -8, 0], [8, 8, 0], [0, 4, 8]]
        assert rec.q_list == [2, 1]
        assert rec.p_list == [1, 1]
        assert rec.m_shift == 0
        assert rec.final == [2, 1]

    def test_boundary_coefficient_vanishes(self):
        # the lists stop at top, one short of the k = 0 boundary (top + 1, 0)
        for n, s in [(2, 0), (4, 0), (4, 2), (6, 2)]:
            rec = enright.projective_generator(n, s)
            top = (n + s) // 2
            assert tensor_weight_basis(n, -s - 2)[top + 1] == (top + 1, 0)
            assert len(rec.q_list) == len(rec.p_list) == len(rec.final) == top + 1

    def test_a_kernel_line_on_the_boundary_raises(self, monkeypatch):
        # u or the generator with support at top + 1 would be cut short by
        # p_list or q_list.  f^(s+1) u_s leaking there fails its
        # certificate, as row top of M holds 4(n - top) at column top + 1;
        # a solution of M x = u leaking there moves the generator onto it
        real_f, real_solve = f_on_slice, enright._slice_solve
        monkeypatch.setattr(sl2mod, "f_on_slice",
                            lambda n, vec: {**real_f(n, vec), max(vec) + 2: 1})
        with pytest.raises(AssertionError,
                           match="f-power image is not killed by the shifted Casimir at n=4"):
            enright.projective_generator(4, 0)
        monkeypatch.setattr(sl2mod, "f_on_slice", real_f)
        monkeypatch.setattr(enright, "_slice_solve", lambda rows, b, n, mu: [
            {**x, len(rows) - 1: 1} for x in real_solve(rows, b, n, mu)])
        with pytest.raises(AssertionError,
                           match="support leaks onto the k=0 boundary at n=4, s=0"):
            enright.projective_generator(4, 0)

    def test_kernel_shift_invariance(self):
        # adding the kernel line preserves both shifted-Casimir conditions
        rec = enright.projective_generator(4, 0)
        mat = slice_matrix(rec.omega_minus_c, len(rec.omega_minus_c))
        a = dict(enumerate(rec.q_list))
        u = dict(enumerate(rec.p_list))
        shifted = dict(a)
        for k, v in u.items():
            shifted[k] = shifted.get(k, 0) + 7 * v
        assert mat.apply(shifted)
        assert not (mat @ mat).apply(shifted)

    def test_recursion_residuals_zero(self):
        for n in range(2, 9):
            for s in enright.index_sets(n, 0).Iprime:
                rec = enright.projective_generator(n, s)
                assert all(x == 0 for x in rec.beta_residuals)

    def test_rejects_non_projective_index(self):
        with pytest.raises(ValueError):
            enright.projective_generator(4, 4)

    def test_keeps_the_highest_weight_record(self):
        for n in range(2, 9):
            for s in enright.index_sets(n, 0).Iprime:
                rec = enright.projective_generator(n, s)
                assert rec.hwv == enright.highest_weight_vector(n, s)

    def test_keeps_the_f_power_oracle_tower(self):
        # f^j u_s for j <= s + 1, from the highest weight record's own
        # vector to the kernel line p it certifies
        for n in range(2, 9):
            for s in enright.index_sets(n, 0).Iprime:
                rec = enright.projective_generator(n, s)
                assert len(rec.tower) == s + 2 and rec.tower[0] is rec.hwv.coefficients
                assert all(f_on_slice(n, v) == w for v, w in zip(rec.tower, rec.tower[1:]))
                assert normalize_integer_vector(rec.tower[-1]) == dict(enumerate(rec.p_list))


class TestBetaRecursionDisplay:
    def test_display_matches_squared_operator(self):
        # the five-term recurrence must agree with applying the squared
        # shifted Casimir to arbitrary vectors on the weight slice
        import random
        rng = random.Random(1234)
        for n, s in [(4, 0), (6, 2), (5, 1)]:
            c = s * (s + 2)
            rows = enright.casimir_weight_matrix(n, -s - 2, c)
            mat = slice_matrix(rows, len(rows))
            for _ in range(5):
                coeffs = [rng.randint(-9, 9) for _ in rows]
                vec = dict(enumerate(coeffs))
                image = (mat @ mat).apply(vec)
                res = enright.beta_recursion_residuals(n, s, coeffs)
                assert len(res) == len(rows)
                for idx in range(len(rows)):
                    assert image.get(idx, 0) == 16 * res[idx]


class TestDecompositionAudit:
    def test_n2_values(self):
        rows = {r.mu: (r.lhs, r.rhs) for r in enright.decomposition_audit(2, 12)}
        assert rows[-4] == (3, 3)
        assert rows[2] == (1, 1)

    def test_n0_all_ones(self):
        for r in enright.decomposition_audit(0, 10):
            assert r.lhs == r.rhs == 1

    def test_sweep_exact(self):
        for n in range(0, 13):
            for r in enright.decomposition_audit(n, 2 * n + 10):
                assert r.lhs == r.rhs


def _audit(n, mu):
    """The Casimir audit of the weight-mu slice: the last report of the
    walk down from n."""
    return enright.casimir_blocks(n, (n - mu) // 2)[-1]


class TestCasimirBlocks:
    def test_n2_weight_minus2(self):
        rep = _audit(2, -2)
        by_c = {b.c: b for b in rep.blocks}
        assert by_c[0].kernel_dim == 1 and by_c[0].excess_dim == 1
        assert by_c[8].kernel_dim == 1 and by_c[8].excess_dim == 0
        assert rep.ok

    def test_n2_weight_2(self):
        rep = _audit(2, 2)
        assert [(b.c, b.kernel_dim, b.excess_dim) for b in rep.blocks] == [(8, 1, 0)]
        assert rep.ok

    def test_n0(self):
        rep = _audit(0, 0)
        assert [(b.c, b.kernel_dim, b.excess_dim) for b in rep.blocks] == [(0, 1, 0)]
        assert rep.ok

    def test_one_report_per_slice_in_order(self):
        for n, depth in [(0, 0), (3, 5), (6, 22)]:
            reports = enright.casimir_blocks(n, depth)
            assert [rep.mu for rep in reports] == [n - 2 * j for j in range(depth + 1)]
            assert all(rep.n == n and rep.ok for rep in reports)
            assert all(b.kernel_residual is None and b.excess_residual is None
                       for rep in reports for b in rep.blocks)

    def test_excess_exactly_where_projective(self):
        n = 6
        sets = enright.index_sets(n, 0)
        for rep in enright.casimir_blocks(n, 9):
            mu = rep.mu
            assert rep.ok
            for b in rep.blocks:
                expected = 1 if (b.t in sets.Iprime and mu <= -b.t - 2) else 0
                assert b.excess_dim == expected


class TestPseudoadjoint:
    def test_verma0(self):
        rep = enright.pseudoadjoint_check(build_verma(0, 12), 0)
        assert rep.identity_zero and rep.casimir_match

    def test_l2_scalar(self):
        rep = enright.pseudoadjoint_check(build_Ln(2), 8)
        assert rep.identity_zero and rep.casimir_match

    def test_t0_jordan(self):
        mod = build_Tr(enright.projective_generator(2, 0), 12)
        rep = enright.pseudoadjoint_check(mod, 0)
        assert rep.identity_zero and rep.casimir_match
        # B - C is nonzero even though its square vanishes
        bc, cv = enright._b_and_c(mod, {("a", 0): 1})
        assert {k: bc.get(k, 0) - cv.get(k, 0) for k in set(bc) | set(cv)
                if bc.get(k, 0) != cv.get(k, 0)}

    def test_margin_guard(self):
        with pytest.raises(ValueError):
            enright.pseudoadjoint_check(build_verma(0, 4), 0, margin=8)

    def test_shared_suffixes_match_whole_words(self):
        # B v and C v from the 12 shared suffixes against each of the six
        # words applied letter by letter
        for mod in (build_verma(2, 14), build_Ln(3),
                    build_Tr(enright.projective_generator(4, 2), 14)):
            for b in mod.interior(8):
                v = {b: 1}
                expected = []
                for words in (enright._B_WORDS, enright._C_WORDS):
                    combo = {}
                    for word, mult in words:
                        vec_iadd(combo, apply_word(mod, word, v), mult)
                    expected.append(combo)
                assert enright._b_and_c(mod, v) == expected

    def test_kept_images_match_the_per_vector_check(self, monkeypatch, capsys):
        # every module that verify-pseudoadjoint --n 0..12 checks, with the
        # images of its labels kept and with every vector pushed afresh
        real, runs = enright.pseudoadjoint_check, []

        def recorded(module, c, margin=8):
            runs.append((module, c, margin, real(module, c, margin)))
            return runs[-1][-1]

        monkeypatch.setattr(enright, "pseudoadjoint_check", recorded)
        for n in range(13):
            assert main(["verify-pseudoadjoint", "--n", str(n)]) == 0
        capsys.readouterr()
        assert {module.kind for module, *_ in runs} == {"Verma", "Ln", "Tr"}
        for module, c, margin, rep in runs:
            assert rep == per_vector_pseudoadjoint_check(module, c, margin)

    @pytest.mark.parametrize("build,c", [
        (lambda: build_verma(0, 20), 0),
        (lambda: build_Ln(6), 48),
        (lambda: build_Tr(enright.projective_generator(4, 2), 14), 8),
    ], ids=["Verma", "Ln", "Tr"])
    def test_kept_images_hide_no_fault(self, build, c):
        # e doubled on one interior label: both checks see the same
        # failures, in the same order
        mod = build()
        broken = mod.interior(8)[len(mod.interior(8)) // 2]

        def act(op, label):
            image = mod.act_label(op, label)
            return {k: 2 * x for k, x in image.items()} if (op, label) == ("e", broken) else image

        faulty = TruncatedModule(mod.kind, mod.params, mod.depth, mod.basis, mod.basis_ext,
                                 mod.weight, mod.depth_of, act, mod.complete)
        rep = enright.pseudoadjoint_check(faulty, c)
        assert rep.failures and not (rep.identity_zero and rep.casimir_match)
        assert rep == per_vector_pseudoadjoint_check(faulty, c)


class TestDecategorify:
    def test_class_rules_match_module_action(self):
        rep = decategorify(4, 10)
        assert rep.bijective and rep.f_intertwines and rep.e_intertwines

    def test_hwv_and_generator_classes(self):
        rep = decategorify(4, 10)
        assert rep.hwv_classes == {0: True, 2: True, 4: True}
        assert rep.generator_classes == {0: True, 2: True}
        assert rep.nonnegative_f
        assert rep.ok

    def test_formal_f_on_top_class(self):
        basis, basis_ext, F, E = formal_matrices(1, 2)
        j = basis.index((0, 0))
        col = {i: x for (i, jj), x in F.entries.items() if jj == j}
        assert col == {basis_ext.index((1, 0)): 1, basis_ext.index((0, 1)): 1}


def test_integral_matrices_are_plain_int():
    rows = enright.casimir_weight_matrix(4, -4, 8)
    _, _, F, E = formal_matrices(3, 4)
    for mat in (slice_matrix(rows, len(rows)), F, E):
        assert mat.entries and all(type(x) is int for x in mat.entries.values())


def test_slice_casimir_matches_the_module_casimir():
    # independent route: restrict the Casimir matrix of a whole tensor slice
    # to each weight slice whose labels all have k < depth, so that no
    # column of the big matrix is truncated
    for n in range(9):
        depth = 2 * n + 10
        mod = build_tensor(n, depth)
        full = casimir(mod)
        for j in range(depth):
            mu = n - 2 * j
            rows = enright.casimir_weight_matrix(n, mu)
            idx = [mod.index[("vw", i, k)] for i, k in tensor_weight_basis(n, mu)]
            cols = set(idx)  # the Casimir keeps the weight: no entry leaves the slice
            assert all(r in cols for r, c in full.entries if c in cols)
            size = len(idx)
            restricted = SparseMat(size, size, {
                (a, b): entry(full, r, c) for a, r in enumerate(idx) for b, c in enumerate(idx)})
            assert slice_matrix(rows, size) == restricted
            shifted = enright.casimir_weight_matrix(n, mu, 3)
            assert slice_matrix(shifted, size) == restricted - SparseMat.identity(size).scale(3)


def test_slice_e_matches_the_module_e():
    # independent route: restrict e of a whole truncated tensor module to
    # each weight slice; e never raises k, so both slices are stored
    for n in range(9):
        depth = 2 * n + 10
        mod = build_tensor(n, depth)
        act = mod.act_matrix("e")
        for j in range(depth + 1):
            mu = n - 2 * j
            e_rows = e_weight_matrix(n, mu)
            src = [mod.index[("vw", i, k)] for i, k in tensor_weight_basis(n, mu)]
            dst = [mod.index[("vw", i, k)] for i, k in tensor_weight_basis(n, mu + 2)]
            cols, rows = set(src), set(dst)
            assert all(r in rows for r, c in act.entries if c in cols)
            assert slice_matrix(e_rows, len(src)) == SparseMat(len(dst), len(src), {
                (a, b): entry(act, r, c) for a, r in enumerate(dst) for b, c in enumerate(src)})


def test_slice_f_matches_the_module_f():
    # independent route: restrict f of a whole truncated tensor module to
    # each weight slice and compare it, column by column, with the closed
    # form on i-keyed slice vectors; f raises k by at most one, into the
    # extended basis
    for n in range(9):
        depth = 2 * n + 10
        mod = build_tensor(n, depth)
        act = mod.act_matrix("f")
        for j in range(depth + 1):
            mu = n - 2 * j
            basis = tensor_weight_basis(n, mu)
            src = [mod.index[("vw", i, k)] for i, k in basis]
            dst = [mod.index_ext[("vw", i, k)] for i, k in tensor_weight_basis(n, mu - 2)]
            cols, rows = set(src), set(dst)
            assert all(r in rows for r, c in act.entries if c in cols)
            for b, c in enumerate(src):
                assert f_on_slice(n, {b: 1}) == {
                    a: entry(act, r, c) for a, r in enumerate(dst) if entry(act, r, c)}


# ---------------------------------------------------------------------------
# the span check against the product of the squares
# ---------------------------------------------------------------------------

_CLOSED_FORM = enright.casimir_weight_matrix


def _decompose_slices(n_max):
    """Every (n, mu) that ``decompose`` audits at its default depth."""
    return [(n, n - 2 * j) for n in range(n_max + 1) for j in range(2 * n + 11)]


def _replace_slice(monkeypatch, n, mu, rows_for):
    """Make every shift c of the (n, mu) slice take the rows
    rows_for(rows, c), rows being its closed form."""
    def replaced(n_, mu_, c=0):
        rows = _CLOSED_FORM(n_, mu_, c)
        return rows_for(rows, c) if (n_, mu_) == (n, mu) else rows
    monkeypatch.setattr(enright, "casimir_weight_matrix", replaced)


def _perturb(monkeypatch, n, mu, pos):
    """Make every shift of the (n, mu) slice carry an extra 2 at pos."""
    r, col = pos

    def plus_two(rows, _):
        rows = [dict(row) for row in rows]
        rows[r][col] = rows[r].get(col, 0) + 2
        return rows
    _replace_slice(monkeypatch, n, mu, plus_two)


def _fake_slice(monkeypatch, diagonal, below=()):
    """Make C on the (4, -8) slice the band map with the given diagonal,
    1 on the superdiagonal and the (row, column, value) entries below."""
    def fake(_, c):
        rows = [{r + 1: 1} for r in range(len(diagonal) - 1)] + [{}]
        for r, x in enumerate(diagonal):
            if x != c:
                rows[r][r] = x - c
        for r, col, x in below:
            rows[r][col] = x
        return rows
    _replace_slice(monkeypatch, 4, -8, fake)


def _square_product(n, mu, rep):
    """prod_t (C - c_t)^2 over the blocks of rep, formed with @."""
    dim = len(tensor_weight_basis(n, mu))
    product = SparseMat.identity(dim)
    for b in rep.blocks:
        shifted = slice_matrix(enright.casimir_weight_matrix(n, mu, b.c), dim)
        product = product @ shifted @ shifted
    return product


@pytest.mark.parametrize("n,step", [(n, 1) for n in range(13)] + [(24, 4)])
def test_ranks_match_the_generalized_kernel(n, step):
    # every step-th slice that decompose audits: the certified block
    # dimensions against bases of ker M and ker M^2 / ker M, and the span
    # check against the rank of those bases
    for rep in enright.casimir_blocks(n, 2 * n + 10)[::step]:
        mu = rep.mu
        dim = len(tensor_weight_basis(n, mu))
        vectors = []
        for b in rep.blocks:
            shifted = slice_matrix(enright.casimir_weight_matrix(n, mu, b.c), dim)
            kernel, excess = generalized_kernel(shifted)
            assert (b.kernel_dim, b.excess_dim) == (len(kernel), len(excess))
            assert all(not shifted.apply(shifted.apply(v)) for v in kernel + excess)
            vectors += kernel + excess
        assert rep.no_stray_eigenvalues == (rank(SparseMat.from_columns(range(dim), vectors)) == dim)


@pytest.mark.parametrize("n,step", [(n, 1) for n in range(41)] + [(48, 7), (56, 9), (64, 11)])
def test_certificates_agree_with_the_solve_oracle(n, step):
    # every step-th slice that decompose audits: the certified (t, kernel,
    # excess) and span verdict against two slice solves per block
    for rep in enright.casimir_blocks(n, 2 * n + 10)[::step]:
        solved = solved_casimir_blocks(n, rep.mu)
        assert [(b.t, b.kernel_dim, b.excess_dim) for b in rep.blocks] == solved.blocks
        assert rep.no_stray_eigenvalues == solved.spanned == rep.ok


def _audit_records(n):
    """The records that decompose hands the Casimir audit at n."""
    sets = enright.index_sets(n, 0)
    return {t: (enright.projective_generator if t in sets.Iprime
                else enright.highest_weight_vector)(n, t)
            for t in sorted(set(sets.Iprime) | set(sets.Itripleprime))}


def _held_to_the_substitution(n, depth, records=None):
    """The reports of casimir_blocks, each held field by field to those of
    the audit that substitutes every f-tower vector."""
    ours = enright.casimir_blocks(n, depth, records)
    oracle = substituted_casimir_blocks(n, depth, records)
    assert [rep.mu for rep in ours] == [rep.mu for rep in oracle]
    for rep, want in zip(ours, oracle):
        for field in type(rep)._fields:
            assert getattr(rep, field) == getattr(want, field), (n, rep.mu, field)
    return ours


def _edge_verdicts(monkeypatch):
    """The verdicts of the audit's edge checks, in the order it asks for them."""
    verdicts, real = [], enright.commutes_with_f

    def spied(n, upper, lower):
        verdicts.append(real(n, upper, lower))
        return verdicts[-1]

    monkeypatch.setattr(enright, "commutes_with_f", spied)
    return verdicts


@pytest.mark.parametrize("n", [*range(41), 48, 64])
def test_the_audit_is_the_substitution_audit(n):
    # every slice at decompose's default depth, and for n <= 40 at --depth 3:
    # the audit that substitutes only at the tower tops gives the reports of
    # the one that substitutes every tower vector
    records = _audit_records(n)
    for depth in [2 * n + 10] + [3] * (n <= 40):
        assert all(rep.ok for rep in _held_to_the_substitution(n, depth, records))


def test_a_perturbed_entry_below_the_tops_falls_back_at_its_edge(monkeypatch):
    # 2 added to C at (0, 0) on the (4, -8) slice, below every tower top: the
    # edges from mu = 4 down to -6 commute with f, the edge -6 -> -8 does not
    # and is the last one checked, and from -8 on every block is substituted
    _perturb(monkeypatch, 4, -8, (0, 0))
    verdicts = _edge_verdicts(monkeypatch)
    reports = _held_to_the_substitution(4, 18)
    assert verdicts == [True] * 5 + [False]
    assert [rep.mu for rep in reports if not rep.ok] == [-8]
    assert all(b.kernel_residual for b in reports[6].blocks)


def test_a_perturbed_generator_fails_at_its_excess_top(monkeypatch):
    # final_0 of the T_0 generator one too large: every edge commutes with f,
    # but y = M x_0 is no longer killed by M at the top mu = -2, so the excess
    # block of t = 0 fails there and on every slice below, substituted
    real = enright.projective_generator

    def off_by_one(n, s):
        gen = real(n, s)
        return gen._replace(final=[gen.final[0] + 1, *gen.final[1:]]) if s == 0 else gen

    monkeypatch.setattr(enright, "projective_generator", off_by_one)
    verdicts = _edge_verdicts(monkeypatch)
    reports = _held_to_the_substitution(4, 18)
    assert verdicts == [True] * 18
    assert [(rep.mu, b.t) for rep in reports for b in rep.blocks if not b.matches] == [
        (mu, 0) for mu in range(-2, -33, -2)]
    assert all(b.excess_residual for rep in reports for b in rep.blocks if not b.matches)


def test_a_missing_record_fails_its_blocks_alone(monkeypatch):
    # no record for t = 2: its blocks fail with empty residuals on every slice
    # it reaches, and every other block is certified at its top as before
    records = _audit_records(4)
    del records[2]
    reports = _held_to_the_substitution(4, 18, records)
    failing = [b for rep in reports for b in rep.blocks if not b.matches]
    assert [rep.mu for rep in reports if not rep.ok] == list(range(2, -33, -2))
    assert {b.t for b in failing} == {2} and len(failing) == 18
    assert all(b.kernel_residual == {} and b.excess_residual == ({} if b.predicted_excess else None)
               for b in failing)


def test_a_clean_audit_substitutes_only_at_the_tower_tops(monkeypatch):
    # the audit of decompose --n 64 takes no f-step but its edge checks' two per
    # unit vector, substitutes once at each kernel top and twice at each excess
    # top (x_t, then y = M x_t), and builds C once per slice and once per top
    n, depth = 64, 138
    records, sets = _audit_records(n), enright.index_sets(n, 0)
    calls, real_f = Counter(), f_on_slice

    def steps(n, vec):
        calls["f", sys._getframe(1).f_code.co_name] += 1
        return real_f(n, vec)

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(sl2mod, "f_on_slice", steps)
    for name in ("apply_rows", "casimir_weight_matrix"):
        monkeypatch.setattr(enright, name, counted(name, getattr(enright, name)))
    assert all(rep.ok for rep in enright.casimir_blocks(n, depth, records))
    kernel_tops, excess_tops = len(sets.Iprime) + len(sets.Itripleprime), len(sets.Iprime)
    units = sum(len(tensor_weight_basis(n, n - 2 * j)) for j in range(depth))
    assert calls == {("f", "commutes_with_f"): 2 * units,
                     "apply_rows": kernel_tops + 2 * excess_tops,
                     "casimir_weight_matrix": depth + 1 + kernel_tops + excess_tops}


@pytest.mark.parametrize("n", range(31))
def test_records_agree_with_the_solve_oracle(n):
    # every highest weight record and every generator record of L_n (x) V0,
    # field by field, against the records with the e-kernel and the Casimir
    # (kernel, excess) pair solved on their slices
    sets = enright.index_sets(n, 0)
    cases = [(s, enright.highest_weight_vector, solved_highest_weight_vector)
             for s in sorted(set(sets.Iprime) | set(sets.Itripleprime))]
    cases += [(s, enright.projective_generator, solved_projective_generator) for s in sets.Iprime]
    for s, certified, solved in cases:
        ours, oracle = certified(n, s), solved(n, s)
        for field in type(ours)._fields:
            assert getattr(ours, field) == getattr(oracle, field), (n, s, field)


def test_span_check_matches_the_product_of_squares(monkeypatch):
    # every slice as it is, then with 2 added to one diagonal and one
    # off-diagonal entry per column, wherever that entry is in a row of
    # the slice map (c <= r + 1).  The product of the squared shifted
    # Casimirs catches 1550 of the 1558 perturbations.  The audit catches
    # all of them: 160 on a generator slice, where projective_generator
    # fails first, and the other 1398 by a nonzero residual, among them
    # the 8 superdiagonal entries at mu = n - 2 that move the eigenvectors
    # and keep the spectrum.
    caught = Counter()
    for n, mu in _decompose_slices(8):
        unperturbed = _audit(n, mu)
        assert unperturbed.ok and _square_product(n, mu, unperturbed).is_zero()
        dim = len(tensor_weight_basis(n, mu))
        for j in range(dim):
            for pos in {(j, j), ((j + 1) % dim, j)}:
                if pos[1] > pos[0] + 1:
                    continue
                _perturb(monkeypatch, n, mu, pos)
                caught["product"] += not _square_product(n, mu, unperturbed).is_zero()
                caught["total"] += 1
                try:
                    rep = _audit(n, mu)
                except AssertionError:
                    caught["generator"] += 1
                    continue
                assert rep.failed_checks == ["span", "dimensions"]
                assert any(b.kernel_residual or b.excess_residual for b in rep.blocks)
                caught["residual"] += 1
    assert caught == {"product": 1550, "generator": 160, "residual": 1398, "total": 1558}


@pytest.mark.parametrize("pos", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_a_perturbed_slice_fails_the_span_check(monkeypatch, capsys, pos):
    _perturb(monkeypatch, 4, -8, pos)
    rep = _audit(4, -8)
    assert not rep.no_stray_eigenvalues and not rep.ok
    assert not _square_product(4, -8, rep).is_zero()
    assert main(["decompose", "--n", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [b["mu"] for b in doc["casimirBlocks"] if not b["ok"]] == [-8]


@pytest.mark.parametrize("pos,kernel,excess", [
    ((0, 0), (4, 2, 2), ((-1592, -2400), (-2472, -3360))),
    ((0, 1), (18, 10, 12), ((-6480, -9360), (-11200, -14640))),
], ids=["diagonal", "off-diagonal"])
def test_a_failing_slice_prints_its_witness(monkeypatch, capsys, pos, kernel, excess):
    # the 2 added at row 0, column j leaves the residual 2 k_t[j] of each
    # kernel certificate at row 0, so no block certifies anything; passing
    # slices carry no witness keys
    _perturb(monkeypatch, 4, -8, pos)
    assert main(["decompose", "--n", "4"]) == 1
    slices = json.loads(capsys.readouterr().out)["casimirBlocks"]
    assert all(set(b) == {"mu", "ok", "blocks"} for b in slices if b["ok"])
    assert all(set(row) == {"t", "c", "kernel", "excess"}
               for b in slices if b["ok"] for row in b["blocks"])
    [failing] = [b for b in slices if not b["ok"]]
    (k0, k2, k4), (x0, x2) = kernel, excess
    assert failing == {"mu": -8, "ok": False, "failedChecks": ["span", "dimensions"],
                       "blocks": [
        {"t": 0, "c": 0, "kernel": 0, "excess": 0, "predictedKernel": 1, "predictedExcess": 1,
         "kernelResidual": [[0, 6, str(k0)]],
         "excessResidual": [[0, 6, str(x0[0])], [1, 5, str(x0[1])]]},
        {"t": 2, "c": 8, "kernel": 0, "excess": 0, "predictedKernel": 1, "predictedExcess": 1,
         "kernelResidual": [[0, 6, str(k2)]],
         "excessResidual": [[0, 6, str(x2[0])], [1, 5, str(x2[1])]]},
        {"t": 4, "c": 24, "kernel": 0, "excess": 0, "predictedKernel": 1, "predictedExcess": 0,
         "kernelResidual": [[0, 6, str(k4)]]},
    ]}
    rep = _audit(4, -8)
    assert rep.failed_checks == failing["failedChecks"]
    assert [(b.predicted_kernel, b.predicted_excess) for b in rep.blocks] == [
        (row["predictedKernel"], row["predictedExcess"]) for row in failing["blocks"]]
    # the kernel residual is 2 k_t[j] at row 0: k_t is the f-tower vector
    j = pos[1]
    for b, k in zip(rep.blocks, kernel):
        u = enright.highest_weight_vector(4, b.t).coefficients
        for _ in range((b.t + 8) // 2):
            u = f_on_slice(4, u)
        assert b.kernel_residual == {0: 2 * u[j]} == {0: k}


def test_a_vanishing_certificate_vector_fails_with_an_empty_residual(monkeypatch, capsys):
    # u_4 replaced by zero, so k_4 = 0, and each generator by its own
    # kernel line, so y = M x_t = 0: both certificates ask for a nonzero
    # vector, and the residual they print is that vector, empty
    real_hwv, real_gen = enright.highest_weight_vector, enright.projective_generator

    def zero_top(n, s):
        rec = real_hwv(n, s)
        return rec._replace(coefficients={}) if s == n else rec

    def kernel_line(n, s):
        gen = real_gen(n, s)
        return gen._replace(final=gen.p_list)

    monkeypatch.setattr(enright, "highest_weight_vector", zero_top)
    monkeypatch.setattr(enright, "projective_generator", kernel_line)
    for rep in enright.casimir_blocks(4, 18):
        assert [(b.kernel_residual, b.excess_residual) for b in rep.blocks] == [
            ({} if b.t == 4 else None, {} if b.predicted_excess else None) for b in rep.blocks]
        assert rep.failed_checks == ["span", "dimensions"]
    assert main(["decompose", "--n", "4"]) == 1
    rows = json.loads(capsys.readouterr().out)["casimirBlocks"][-1]["blocks"]
    assert [(row["t"], row.get("kernelResidual"), row.get("excessResidual")) for row in rows] == [
        (0, None, []), (2, None, []), (4, [], None)]


def test_a_case_that_fails_to_build_keeps_the_report(monkeypatch, capsys):
    # the generator of T_0 refused: decompose still prints the whole
    # report, the case's error beside the other records, and every slice
    # that T_0 reaches fails its t = 0 block with empty residuals, because
    # the audit has no tower for it and builds none of its own
    real = enright.projective_generator

    def refused(n, s):
        if s == 0:
            raise AssertionError("beta recursion fails at s=0")
        return real(n, s)

    monkeypatch.setattr(enright, "projective_generator", refused)
    assert main(["decompose", "--n", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["cases"][0] == {"s": 0, "error": "beta recursion fails at s=0"}
    assert all("error" not in case for case in doc["cases"][1:])
    slices = doc["casimirBlocks"]
    assert [b["mu"] for b in slices if b["ok"]] == [4, 2]
    for b in slices[2:]:
        assert b["failedChecks"] == ["span", "dimensions"]
        [zero] = [row for row in b["blocks"] if row["t"] == 0]
        assert zero["kernelResidual"] == [] and (zero["kernel"], zero["excess"]) == (0, 0)
        assert zero.get("excessResidual") == ([] if b["mu"] < 0 else None)
        assert not [row for row in b["blocks"]
                    if row["t"] != 0 and {"kernelResidual", "excessResidual"} & set(row)]


def test_decompose_builds_each_record_once(monkeypatch, capsys):
    # the audit starts from the vectors of decompose's own records
    calls = Counter()
    real_hwv, real_gen = enright.highest_weight_vector, enright.projective_generator

    def counted(real, kind):
        def call(n, s):
            calls[kind, s] += 1
            return real(n, s)
        return call

    monkeypatch.setattr(enright, "highest_weight_vector", counted(real_hwv, "hwv"))
    monkeypatch.setattr(enright, "projective_generator", counted(real_gen, "gen"))
    assert main(["decompose", "--n", "6"]) == 0
    capsys.readouterr()
    sets = enright.index_sets(6, 0)
    assert set(calls) == ({("gen", r) for r in sets.Iprime}
                          | {("hwv", t) for t in sets.Iprime + sets.Itripleprime})
    assert set(calls.values()) == {1}


def test_a_missing_prediction_fails_the_span_check_alone(monkeypatch, capsys):
    # without V_4 the blocks left over all certify, but 1 + ex_t no longer
    # sums to the dimension of any slice: "span" fails, "dimensions" holds,
    # and no residual is printed
    real = enright._mult_V
    monkeypatch.setattr(enright, "_mult_V", lambda s, mu: 0 if s == 4 else real(s, mu))
    reports = enright.casimir_blocks(4, 18)
    assert all(rep.failed_checks == ["span"] for rep in reports)
    assert main(["decompose", "--n", "4"]) == 1
    slices = json.loads(capsys.readouterr().out)["casimirBlocks"]
    assert [b["failedChecks"] for b in slices] == [["span"]] * 19
    assert not [row for b in slices for row in b["blocks"]
                if {"kernelResidual", "excessResidual"} & set(row)]


def test_a_shared_casimir_eigenvalue_is_refused(monkeypatch, capsys):
    # I''' holding -2, the mirror of 0 in I', would give two blocks the
    # eigenvalue 0, and then their ker M^2 need not be independent
    real = enright.index_sets

    def with_mirror(n, lam=0):
        sets = real(n, lam)
        return sets._replace(Itripleprime=(-2, *sets.Itripleprime)) if n == 4 else sets

    monkeypatch.setattr(enright, "index_sets", with_mirror)
    with pytest.raises(AssertionError, match="two predicted indices at n=4 share a Casimir"):
        enright.casimir_blocks(4, 0)
    assert main(["decompose", "--n", "4"]) == 1
    assert capsys.readouterr().err == (
        "verification failure: two predicted indices at n=4 share a Casimir eigenvalue\n")


def test_a_broken_partition_is_refused(monkeypatch, capsys):
    # with every index its own mirror, I'' repeats I' and the three sets
    # overlap
    monkeypatch.setattr(enright, "_mirror", lambda r, lam: r)
    assert main(["decompose", "--n", "4"]) == 1
    assert capsys.readouterr().err == (
        "verification failure: index sets fail to partition I for n=4, lam=0\n")


def _jordan_fault_fails(monkeypatch, capsys, diagonal, below=()):
    """C faked on the (4, -8) slice with J_3(0) + J_2(8) as its Jordan form.
    Slice solves read kernel 1 and excess 1 at c = 0 and 8, and every
    vector of ker (C - c)^2 is killed by (C - c)^2, yet one dimension at
    c = 0 lies outside ker C^2: only the dimensions left over show it.
    The f-towers of the true Casimir fail every kernel certificate
    outright, each with the residual 9, -3 or -18 at row 0."""
    _fake_slice(monkeypatch, diagonal, below)
    solved = solved_casimir_blocks(4, -8)
    assert (solved.blocks, solved.spanned) == ([(0, 1, 1), (2, 1, 1), (4, 0, 0)], False)
    for c in (0, 8):
        rows = enright.casimir_weight_matrix(4, -8, c)
        shifted = slice_matrix(rows, 5)
        kernel, excess = generalized_kernel(shifted)
        assert all(not shifted.apply(shifted.apply(v)) for v in kernel + excess)
        _checked_casimir_kernels(rows, 4, -8)
    rep = _audit(4, -8)
    assert [(b.c, b.kernel_dim, b.excess_dim) for b in rep.blocks] == [
        (0, 0, 0), (8, 0, 0), (24, 0, 0)]
    assert [b.kernel_residual[0] for b in rep.blocks] == [9, -3, -18]
    assert rep.failed_checks == ["span", "dimensions"]
    assert main(["decompose", "--n", "4"]) == 1
    [failing] = [b for b in json.loads(capsys.readouterr().out)["casimirBlocks"] if not b["ok"]]
    assert (failing["mu"], failing["failedChecks"]) == (-8, ["span", "dimensions"])
    assert [row["kernelResidual"][0] for row in failing["blocks"]] == [
        [0, 6, "9"], [0, 6, "-3"], [0, 6, "-18"]]


def test_a_jordan_block_of_size_three_fails_the_span_check(monkeypatch, capsys):
    # the diagonal 0, 0, 0, 8, 8 under a superdiagonal of ones
    _jordan_fault_fails(monkeypatch, capsys, (0, 0, 0, 8, 8))


def test_a_wrong_f_slice_fails_the_f_power_oracle(monkeypatch, capsys):
    # f with its (0, 0) entry 2 in place of 1 on every slice, in the one
    # f-step that sl2mod.f_tower takes
    real = f_on_slice

    def perturbed(n, vec):
        out = real(n, vec)
        if vec.get(0):
            out[0] = out.get(0, 0) + vec[0]
        return out

    monkeypatch.setattr(sl2mod, "f_on_slice", perturbed)
    message = "f-power image is not killed by the shifted Casimir at n=4, s=0"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        enright.projective_generator(4, 0)
    assert main(["projgen", "--n", "4", "--s", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification failure: {message}\n"


@pytest.mark.parametrize("argv,calls", [
    # 36 = the sum of r + 1 over I' = {0, 2, ..., 10}: the steps to the kernel lines,
    # which the audit and T_r no longer take again; the audit walks no tower on
    # a clean run, and its edge checks take 728 = 2 * 364 steps, two for each
    # unit vector of the 34 slices above the last one
    ("decompose --n 12", {"projective_generator": 36, "commutes_with_f": 728}),
    ("verify-pseudoadjoint --n 12", {"projective_generator": 36, "build_Tr": 144}),
    ("report --n-max 16", {"projective_generator": 372}),
])
def test_each_f_step_is_taken_once(argv, calls, monkeypatch, capsys):
    # f_on_slice calls by the function that pulled the tower (past its
    # comprehensions), or by commutes_with_f, which takes its steps on unit
    # vectors and columns itself; at n = 12 they were 400 and 216 before the
    # audit and T_r went on from the record's tower, and the audit took 328
    # before it substituted only at the tower tops
    seen = Counter()
    real = f_on_slice

    def counted(n, vec):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "f_tower":
            frame = frame.f_back
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        seen[frame.f_code.co_name] += 1
        return real(n, vec)

    monkeypatch.setattr(sl2mod, "f_on_slice", counted)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert dict(seen) == calls


def _projgen_faults():
    """Each of projective_generator's checks on the Casimir slice, with the
    fault upstream that makes it fire at n = 4, s = 0 and its message.  At
    mu = -2 and c = 0 the rows are (-24, 16), (-24, 8, 12), (-16, 24, 8) and
    (24) from columns 0, 0, 1 and 3, and u = f u_0 = (2, 3, 2)."""
    real_f, real_rows = f_on_slice, enright.casimir_weight_matrix

    def rows_for(change):
        return enright, "casimir_weight_matrix", lambda n, mu, c=0: change(n, mu, c)

    def solved(x):
        return enright, "_slice_solve", lambda rows, b, n, mu: x(b)

    def halved_row_0(n, mu, c):
        # M u = 0 still, but u leaves the image: the first three rows give
        # x_3 = lam / 2 from x_0 = 0, and row 3 asks for 0
        rows = real_rows(n, mu, c)
        return [{j: x // 2 for j, x in rows[0].items()}] + rows[1:] if c == 0 else rows

    def turned_f(n, vec):
        out = real_f(n, vec)
        out[0] = -out[0]
        return out

    return {
        # (s + 1)^2 is no eigenvalue t(t + 2) = (t + 1)^2 - 1 of C
        "kernel-dimension": (rows_for(lambda n, mu, c: real_rows(n, mu, c + 1)),
                             "f-power image is not killed by the shifted Casimir at n=4, s=0"),
        "excess-dimension": (rows_for(halved_row_0),
                             "excess space at n=4, s=0 has dimension 0"),
        # the kernel line handed back as the solution: the generator is u itself
        "plain-kernel": (solved(lambda u: [u]),
                         "candidate generator lies in the plain kernel"),
        "squared-operator": (solved(lambda u: [{0: 1}]),
                             "candidate generator not killed by the squared operator"),
        # f's (0, 0) entry -1 in place of 1: f u_0 = (-2, 3, 2)
        "positive-kernel-line": ((sl2mod, "f_on_slice", turned_f),
                                 "kernel line coefficients expected positive"),
    }


@pytest.mark.parametrize("fault", list(_projgen_faults()))
def test_projective_generator_checks_fire(fault, monkeypatch, capsys):
    (module, name, replacement), message = _projgen_faults()[fault]
    monkeypatch.setattr(module, name, replacement)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        enright.projective_generator(4, 0)
    assert main(["projgen", "--n", "4", "--s", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification failure: {message}\n"


_REAL_HWV = enright.highest_weight_vector


def _seed_off_by_one(n, s):
    rec = _REAL_HWV(n, s)
    return rec._replace(p_list=[rec.p_list[0] + 1, *rec.p_list[1:]])


@pytest.mark.parametrize("fault,argv,message", [
    # a highest weight record whose closed-form seed p_0 is one too large: only
    # hwv, which runs alpha_recursion_check, reads p_list
    ((enright, "highest_weight_vector", _seed_off_by_one), "hwv --n 4 --s 0",
     "closed-form seed mismatch at n=4, s=0: 17 != 16"),
    # a gcd that never returns 1 leaves no multiple sigma <= 1000 of the
    # excess line for the generator
    ((enright, "math", SimpleNamespace(gcd=lambda *xs: 2)), "hwv --n 4 --s 0",
     "no admissible generator multiple found"),
    ((enright, "math", SimpleNamespace(gcd=lambda *xs: 2)), "projgen --n 4 --s 0",
     "no admissible generator multiple found"),
], ids=["alpha-seed-hwv", "generator-multiple-hwv", "generator-multiple-projgen"])
def test_an_upstream_fault_fires_its_guard(fault, argv, message, monkeypatch, capsys):
    monkeypatch.setattr(*fault)
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification failure: {message}\n"


def _remainder_on_second_call():
    """A divmod that reports a remainder of 1 on its second call."""
    calls = []

    def fake(num, den):
        calls.append(num)
        val, rem = divmod(num, den)
        return (val, 1) if len(calls) == 2 else (val, rem)
    return fake


def test_a_non_integral_closed_form_coefficient_fires_its_guard(monkeypatch, capsys):
    # divmod is looked up in enright's globals before the builtins, so the fake
    # shadows it there alone: p_1 = 1536/4 at n=5, r=-1 is reported inexact
    message = "p_1 is not a positive integer for n=5, r=-1: 1536/4"
    monkeypatch.setattr(enright, "divmod", _remainder_on_second_call(), raising=False)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        enright.highest_weight_vector(5, -1)
    monkeypatch.setattr(enright, "divmod", _remainder_on_second_call(), raising=False)
    assert main(["hwv", "--n", "5", "--s", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification failure: {message}\n"


@given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**3)), min_size=1))
def test_the_shift_leaves_every_coefficient_at_least_the_kernel_lines(pairs):
    # why the shifted generator has no positivity check of its own: with
    # m = max(0, 1 - q // p), q + m p >= p + (q mod p) >= p > 0
    m = max([0] + [1 - q // p for q, p in pairs])
    assert all(q + m * p >= p for q, p in pairs)


# ---------------------------------------------------------------------------
# slice solves against the elimination engine
# ---------------------------------------------------------------------------

def test_the_slice_maps_have_a_nonzero_superdiagonal():
    # what every slice solve relies on, on every slice that decompose and
    # report audit up to n = 40: each entry of e and of C - c is a nonzero
    # int at a column c <= r + 1 of its row r, and row r holds c = r + 1
    # whenever that column exists; the shift moves only the diagonal
    for n, mu in _decompose_slices(40):
        cols = len(tensor_weight_basis(n, mu))
        for rows in (enright.casimir_weight_matrix(n, mu), e_weight_matrix(n, mu)):
            for r, row in enumerate(rows):
                assert all(type(x) is int and x for x in row.values())
                assert max(row, default=r) <= r + 1
                assert r + 1 >= cols or row.get(r + 1)


def _checked_casimir_kernels(rows, n, mu):
    """The slice (kernel, excess) of the map m with these rows, the kernel
    by forward substitution and the excess by ``enright._slice_solve``,
    held against generalized_kernel: the same lengths and the same spans,
    every kernel vector killed by m and every excess vector x with
    m x != 0 and m (m x) = 0."""
    kernel, excess = solved_casimir_kernels(rows, n, mu)
    m = slice_matrix(rows, len(rows))
    oracle_kernel, oracle_excess = generalized_kernel(m)
    assert (len(kernel), len(excess)) == (len(oracle_kernel), len(oracle_excess))
    assert all(not m.apply(v) for v in kernel)
    assert all(m.apply(x) and not m.apply(m.apply(x)) for x in excess)
    assert all(type(x) is int for v in kernel + excess for x in v.values())
    both = kernel + excess
    for ours, oracle in ((kernel, oracle_kernel), (both, oracle_kernel + oracle_excess)):
        assert rank(SparseMat.from_columns(range(m.cols), ours + oracle)) == len(ours)


@pytest.mark.parametrize("n,step", [(n, 1) for n in range(13)] + [(24, 4), (40, 15)])
def test_band_kernels_match_the_elimination_engine(n, step):
    # every step-th slice that decompose audits, with M = C - c for each of
    # its blocks, every step-th generator slice and every step-th highest
    # weight slice that report certifies: ker M and ker M^2 / ker M against
    # generalized_kernel, and ker e against nullspace and the closed form
    sets = enright.index_sets(n, 0)
    shifts = [(rep.mu, b.c) for rep in enright.casimir_blocks(n, n + 10)[::step]
              for b in rep.blocks]
    shifts += [(-s - 2, s * (s + 2)) for s in sets.Iprime[::step]]
    for mu, c in shifts:
        _checked_casimir_kernels(enright.casimir_weight_matrix(n, mu, c), n, mu)
    for s in sorted(set(sets.Iprime) | set(sets.Itripleprime))[::step]:
        rows, cols = e_weight_matrix(n, s), len(tensor_weight_basis(n, s))
        kernel = slice_kernel(rows, cols)
        assert len(kernel) == 1 and kernel == nullspace(slice_matrix(rows, cols))
        assert kernel == [enright.highest_weight_vector(n, s).coefficients]


_NONZERO = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def _band_maps(draw):
    """The rows of a square band map of dimension at most 6: entries in
    -3..3 on and below the superdiagonal, which has none of them zero."""
    d = draw(st.integers(1, 6))
    rows = [{c: draw(_NONZERO if c == r + 1 else st.integers(-3, 3)) for c in range(min(r + 2, d))}
            for r in range(d)]
    return [{c: x for c, x in row.items() if x} for row in rows]


@settings(max_examples=200, deadline=None)
@given(_band_maps())
@example([{}])
@example([{1: 1}, {2: 1}, {3: 1}, {}])
@example([{1: 1}, {1: 1}])
def test_random_band_maps_match_the_elimination_engine(rows):
    # J_1(0), J_4(0), and a kernel outside the image among the examples
    _checked_casimir_kernels(rows, 0, 0)


def test_a_jordan_block_of_size_three_on_the_band_fails_the_span_check(monkeypatch, capsys):
    # the companion matrix of x^3 (x - 8)^2, a band map like the true slices
    _jordan_fault_fails(monkeypatch, capsys, (0, 0, 0, 0, 16), below=[(4, 3, -64)])


def test_generators_from_the_elimination_engine_are_the_same(monkeypatch):
    # with the solution of M x = u taken from exactla.solve instead, another
    # x + t u, projective_generator, pinning its excess line, builds the
    # same record for every (n, s) that report covers up to 12
    cases = [(n, s) for n in range(13) for s in enright.index_sets(n, 0).Iprime]
    expected = {case: enright.projective_generator(*case) for case in cases}
    calls = []

    def eliminated(rows, b, n, mu):
        calls.append((n, mu))
        x = solve(slice_matrix(rows, len(rows)), b)
        return [] if x is None else [normalize_integer_vector(x)]

    monkeypatch.setattr(enright, "_slice_solve", eliminated)
    for case in cases:
        assert enright.projective_generator(*case) == expected[case]
    assert len(calls) == len(cases)


def test_the_band_kernel_raises_on_a_vector_it_cannot_check(monkeypatch):
    # a solution that fails the rows it was solved from names its slice
    rows = enright.casimir_weight_matrix(6, -4, 0)
    monkeypatch.setattr(enright, "back_substitute", lambda echelon, x, rhs: ({0: 1}, 1))
    for b in ({0: 1}, {2: 3}):
        with pytest.raises(AssertionError, match=r"does not satisfy the slice map at n=6, mu=-4"):
            enright._slice_solve(rows, b, 6, -4)


def _hwv_faults():
    """Each fault of the closed form that one of the four guards of the
    solved e-kernel caught, made in ``p_coefficients`` at n = 5, s = -1,
    and the message of the certificate e u = 0, u != 0 that now catches
    it: the zero vector (no kernel), a negative entry, an entry at the
    k = 0 boundary, and a vector out of proportion."""
    real_p = enright.p_coefficients

    def closed(change):
        return "p_coefficients", lambda n, r: change(real_p(n, r))

    message = "closed-form highest weight vector is zero or not killed by e at n=5, s=-1"
    return {
        "kernel-dimension": (closed(lambda p: []), message),
        "positivity": (closed(lambda p: [p[0], -p[1], p[2]]), message),
        "support-size": (closed(lambda p: p + [1]), message),
        "proportionality": (closed(lambda p: p[:-1] + [2 * p[-1]]), message),
    }


@pytest.mark.parametrize("fault", list(_hwv_faults()))
def test_highest_weight_vector_checks_fire(fault, monkeypatch, capsys):
    # enright.highest_weight_vector(5, -1) is {0: 5, 1: 6, 2: 3} from the
    # closed form [320, 384, 192]
    (name, replacement), message = _hwv_faults()[fault]
    monkeypatch.setattr(enright, name, replacement)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        enright.highest_weight_vector(5, -1)
    assert main(["hwv", "--n", "5", "--s", "-1"]) == 1
    assert capsys.readouterr() == ("", f"verification failure: {message}\n")


def test_a_broken_highest_weight_vector_fails_the_hwv_verb(monkeypatch, capsys):
    (name, replacement), message = _hwv_faults()["proportionality"]
    monkeypatch.setattr(enright, name, replacement)
    assert main(["hwv", "--n", "5", "--s", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification failure: {message}\n"


@pytest.fixture
def broken_recurrence(monkeypatch):
    # the last residual of every five-term recurrence made nonzero
    real = enright.beta_recursion_residuals
    monkeypatch.setattr(enright, "beta_recursion_residuals",
                        lambda n, s, final: real(n, s, final)[:-1] + [1])


def test_a_failed_five_term_recurrence_fires(broken_recurrence):
    with pytest.raises(AssertionError, match=r"^five-term recurrence fails at n=8, s=2$"):
        enright.projective_generator(8, 2)


def test_a_failed_five_term_recurrence_fails_the_projgen_verb(broken_recurrence, capsys):
    assert main(["projgen", "--n", "8", "--s", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: five-term recurrence fails at n=8, s=2\n"

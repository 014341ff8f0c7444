import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import rank

from vermalab import enright
from vermalab.cli import main
from vermalab.exactla import SparseMat, generalized_kernel, nullspace
from vermalab.sl2mod import apply_op, build_Ln, build_Tr, build_tensor, build_verma, casimir


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
            vec[("vw", j, (n + r + 2) // 2 - j)] = Fraction(p)
        assert apply_op(mod, "e", vec) == {}


class TestHighestWeightVector:
    def test_top_vector(self):
        rec = enright.highest_weight_vector(2, 2)
        assert rec.coefficients == {(0, 0): 1}

    def test_n4_weight0(self):
        rec = enright.highest_weight_vector(4, 0)
        assert rec.coefficients == {(0, 2): 2, (1, 1): 1}
        assert rec.p_list == [16, 8]

    def test_n2_weight0(self):
        rec = enright.highest_weight_vector(2, 0)
        assert rec.coefficients == {(0, 1): 1}

    def test_kernel_dimension_one_sweep(self):
        for n in range(0, 13):
            sets = enright.index_sets(n, 0)
            for s in sorted(set(sets.Iprime) | {n}):
                rec = enright.highest_weight_vector(n, s)
                assert all(c > 0 for c in rec.coefficients.values())

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
        """f u, ..., f^count u for the highest weight vector u of rec, keyed (i, k)."""
        v = {i: c for (i, _), c in rec.coefficients.items()}
        out = []
        for j in range(count):
            v = enright._f_on_slice(n, v)
            basis = enright.tensor_weight_basis(n, rec.s - 2 * j - 2)
            out.append({basis[i]: c for i, c in v.items()})
        return out

    def test_single_step(self):
        rec = enright.highest_weight_vector(2, 0)
        assert self.f_steps(2, rec, 1) == [{(1, 1): 1, (0, 2): 1}]

    def test_image_satisfies_hwv_recursion(self):
        # coefficients of f u_0 in L4 (x) V0 follow the same recurrence
        n = 4
        rec = enright.highest_weight_vector(n, 0)
        [coeffs] = self.f_steps(n, rec, 1)
        assert all(x == 0 for x in enright.hwv_recursion_residuals(n, coeffs))

    def test_nonnegativity_preserved(self):
        n = 6
        rec = enright.highest_weight_vector(n, 2)
        for v in self.f_steps(n, rec, 10):
            assert v
            assert all(type(c) is int and c > 0 for c in v.values())


class TestProjectiveGenerator:
    def test_n2_s0_fixture(self):
        rec = enright.projective_generator(2, 0)
        assert rec.basis == [(0, 2), (1, 1), (2, 0)]
        cols = [[rec.omega_minus_c[i, j] for i in range(3)] for j in range(3)]
        assert cols == [[-8, -8, 0], [8, 8, 0], [0, 4, 8]]
        assert rec.q_list == [2, 1]
        assert rec.p_list == [1, 1]
        assert rec.m_shift == 0
        assert rec.final == [2, 1]

    def test_boundary_coefficient_vanishes(self):
        for n, s in [(2, 0), (4, 0), (4, 2), (6, 2)]:
            rec = enright.projective_generator(n, s)
            top = (n + s) // 2
            assert rec.final_vector.get((top + 1, 0), 0) == 0

    def test_kernel_shift_invariance(self):
        # adding the kernel line preserves both shifted-Casimir conditions
        rec = enright.projective_generator(4, 0)
        mat = rec.omega_minus_c
        pos = {b: i for i, b in enumerate(rec.basis)}
        a = {pos[k]: Fraction(v) for k, v in rec.a_vector.items()}
        u = {pos[k]: Fraction(v) for k, v in rec.kernel_vector.items()}
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
                assert all(x == 0 for x in rec.q_residuals)

    def test_rejects_non_projective_index(self):
        with pytest.raises(ValueError):
            enright.projective_generator(4, 4)

    def test_keeps_the_highest_weight_record(self):
        for n in range(2, 9):
            for s in enright.index_sets(n, 0).Iprime:
                rec = enright.projective_generator(n, s)
                assert rec.hwv == enright.highest_weight_vector(n, s)


class TestBetaRecursionDisplay:
    def test_display_matches_squared_operator(self):
        # the five-term recurrence must agree with applying the squared
        # shifted Casimir to arbitrary vectors on the weight slice
        import random
        rng = random.Random(1234)
        for n, s in [(4, 0), (6, 2), (5, 1)]:
            c = s * (s + 2)
            mat, basis = enright.casimir_weight_matrix(n, -s - 2, c)
            for _ in range(5):
                coeffs = {b: rng.randint(-9, 9) for b in basis}
                vec = {i: Fraction(coeffs[b]) for i, b in enumerate(basis)}
                image = (mat @ mat).apply(vec)
                res = enright.beta_recursion_residuals(n, s, coeffs)
                for idx, b in enumerate(basis):
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


class TestCasimirBlocks:
    def test_n2_weight_minus2(self):
        rep = enright.casimir_blocks(2, -2)
        by_c = {b.c: b for b in rep.blocks}
        assert by_c[0].kernel_dim == 1 and by_c[0].excess_dim == 1
        assert by_c[8].kernel_dim == 1 and by_c[8].excess_dim == 0
        assert rep.ok

    def test_n2_weight_2(self):
        rep = enright.casimir_blocks(2, 2)
        assert [(b.c, b.kernel_dim, b.excess_dim) for b in rep.blocks] == [(8, 1, 0)]
        assert rep.ok

    def test_n0(self):
        rep = enright.casimir_blocks(0, 0)
        assert [(b.c, b.kernel_dim, b.excess_dim) for b in rep.blocks] == [(0, 1, 0)]
        assert rep.ok

    def test_excess_exactly_where_projective(self):
        n = 6
        sets = enright.index_sets(n, 0)
        for mu in range(n, n - 20, -2):
            rep = enright.casimir_blocks(n, mu)
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
        mod = build_Tr(0, 2, 12)
        rep = enright.pseudoadjoint_check(mod, 0)
        assert rep.identity_zero and rep.casimir_match
        # B - C is nonzero even though its square vanishes
        from vermalab.enright import _apply_combo, _B_WORDS, _C_WORDS
        v = {("a", 0): Fraction(1)}
        bc = _apply_combo(mod, _B_WORDS, v)
        cv = _apply_combo(mod, _C_WORDS, v)
        assert {k: bc.get(k, 0) - cv.get(k, 0) for k in set(bc) | set(cv)
                if bc.get(k, 0) != cv.get(k, 0)}

    def test_margin_guard(self):
        with pytest.raises(ValueError):
            enright.pseudoadjoint_check(build_verma(0, 4), 0, margin=8)


class TestDecategorify:
    def test_class_rules_match_module_action(self):
        rep = enright.decategorify(4, 10)
        assert rep.bijective and rep.f_intertwines and rep.e_intertwines

    def test_hwv_and_generator_classes(self):
        rep = enright.decategorify(4, 10)
        assert rep.hwv_classes == {0: True, 2: True, 4: True}
        assert rep.generator_classes == {0: True, 2: True}
        assert rep.nonnegative_f
        assert rep.ok

    def test_formal_f_on_top_class(self):
        from vermalab.enright import _formal_matrices
        basis, basis_ext, F, E = _formal_matrices(1, 2)
        j = basis.index((0, 0))
        col = {i: x for (i, jj), x in F.entries.items() if jj == j}
        assert col == {basis_ext.index((1, 0)): 1, basis_ext.index((0, 1)): 1}


def test_integral_matrices_are_plain_int():
    shifted, _ = enright.casimir_weight_matrix(4, -4, 8)
    _, _, F, E = enright._formal_matrices(3, 4)
    for mat in (shifted, F, E):
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
            mat, basis = enright.casimir_weight_matrix(n, mu)
            idx = [mod.index[("vw", i, k)] for i, k in basis]
            cols = set(idx)  # the Casimir keeps the weight: no entry leaves the slice
            assert all(r in cols for r, c in full.entries if c in cols)
            size = len(idx)
            restricted = SparseMat(size, size, {
                (a, b): full[r, c] for a, r in enumerate(idx) for b, c in enumerate(idx)})
            assert mat == restricted
            shifted, same = enright.casimir_weight_matrix(n, mu, 3)
            assert same == basis
            assert shifted == restricted - SparseMat.identity(size).scale(3)


def test_slice_e_matches_the_module_e():
    # independent route: restrict e of a whole truncated tensor module to
    # each weight slice; e never raises k, so both slices are stored
    for n in range(9):
        depth = 2 * n + 10
        mod = build_tensor(n, depth)
        act = mod.act_matrix("e")
        for j in range(depth + 1):
            mu = n - 2 * j
            mat, basis = enright._e_restriction_matrix(n, mu)
            src = [mod.index[("vw", i, k)] for i, k in basis]
            dst = [mod.index[("vw", i, k)] for i, k in enright.tensor_weight_basis(n, mu + 2)]
            cols, rows = set(src), set(dst)
            assert all(r in rows for r, c in act.entries if c in cols)
            assert mat == SparseMat(len(dst), len(src), {
                (a, b): act[r, c] for a, r in enumerate(dst) for b, c in enumerate(src)})


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
            basis = enright.tensor_weight_basis(n, mu)
            src = [mod.index[("vw", i, k)] for i, k in basis]
            dst = [mod.index_ext[("vw", i, k)] for i, k in enright.tensor_weight_basis(n, mu - 2)]
            cols, rows = set(src), set(dst)
            assert all(r in rows for r, c in act.entries if c in cols)
            for b, c in enumerate(src):
                assert enright._f_on_slice(n, {b: 1}) == {
                    a: act[r, c] for a, r in enumerate(dst) if act[r, c]}


# ---------------------------------------------------------------------------
# the span check against the product of the squares
# ---------------------------------------------------------------------------

_CLOSED_FORM = enright.casimir_weight_matrix


def _decompose_slices(n_max):
    """Every (n, mu) that ``decompose`` audits at its default depth."""
    return [(n, n - 2 * j) for n in range(n_max + 1) for j in range(2 * n + 11)]


def _perturb(monkeypatch, n, mu, pos):
    """Make every shift of the (n, mu) slice carry an extra 2 at pos."""
    def perturbed(n_, mu_, c=0):
        mat, basis = _CLOSED_FORM(n_, mu_, c)
        if (n_, mu_) == (n, mu):
            mat = mat + SparseMat(mat.rows, mat.cols, {pos: 2})
        return mat, basis
    monkeypatch.setattr(enright, "casimir_weight_matrix", perturbed)


def _square_product(n, mu, rep):
    """prod_t (C - c_t)^2 over the blocks of rep, formed with @."""
    product = SparseMat.identity(len(enright.tensor_weight_basis(n, mu)))
    for b in rep.blocks:
        shifted, _ = enright.casimir_weight_matrix(n, mu, b.c)
        product = product @ shifted @ shifted
    return product


@pytest.mark.parametrize("n,step", [(n, 1) for n in range(13)] + [(24, 4)])
def test_ranks_match_the_generalized_kernel(n, step):
    # every step-th slice that decompose audits: the block dimensions from
    # rank M and rank M^2 against bases of ker M and ker M^2 / ker M, and
    # the span check against the rank of those bases
    for j in range(0, 2 * n + 11, step):
        mu = n - 2 * j
        rep = enright.casimir_blocks(n, mu)
        dim = len(enright.tensor_weight_basis(n, mu))
        vectors = []
        for b in rep.blocks:
            shifted, _ = enright.casimir_weight_matrix(n, mu, b.c)
            kernel, excess = generalized_kernel(shifted)
            assert (b.kernel_dim, b.excess_dim) == (len(kernel), len(excess))
            assert all(not shifted.apply(shifted.apply(v)) for v in kernel + excess)
            vectors += kernel + excess
        assert rep.no_stray_eigenvalues == (rank(SparseMat.from_columns(range(dim), vectors)) == dim)


def test_span_check_matches_the_product_of_squares(monkeypatch):
    # every slice as it is, then with 2 added to one diagonal and one
    # off-diagonal entry per column; most, not all, of these perturbations
    # fail both checks
    stray = total = 0
    for n, mu in _decompose_slices(8):
        rep = enright.casimir_blocks(n, mu)
        assert rep.no_stray_eigenvalues and _square_product(n, mu, rep).is_zero()
        dim = len(enright.tensor_weight_basis(n, mu))
        for j in range(dim):
            for pos in {(j, j), ((j + 1) % dim, j)}:
                _perturb(monkeypatch, n, mu, pos)
                rep = enright.casimir_blocks(n, mu)
                assert rep.no_stray_eigenvalues == _square_product(n, mu, rep).is_zero()
                stray += not rep.no_stray_eigenvalues
                total += 1
    assert (stray, total) == (1655, 1691)


@pytest.mark.parametrize("pos", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_a_perturbed_slice_fails_the_span_check(monkeypatch, capsys, pos):
    _perturb(monkeypatch, 4, -8, pos)
    rep = enright.casimir_blocks(4, -8)
    assert not rep.no_stray_eigenvalues and not rep.ok
    assert not _square_product(4, -8, rep).is_zero()
    assert main(["decompose", "--n", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [b["mu"] for b in doc["casimirBlocks"] if not b["ok"]] == [-8]


@pytest.mark.parametrize("pos", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_a_failing_slice_prints_its_witness(monkeypatch, capsys, pos):
    # the perturbed slice keeps no kernel at all, so the blocks span
    # nothing; passing slices carry no witness keys
    _perturb(monkeypatch, 4, -8, pos)
    assert main(["decompose", "--n", "4"]) == 1
    slices = json.loads(capsys.readouterr().out)["casimirBlocks"]
    assert all(set(b) == {"mu", "ok", "blocks"} for b in slices if b["ok"])
    assert all(set(row) == {"t", "c", "kernel", "excess"}
               for b in slices if b["ok"] for row in b["blocks"])
    [failing] = [b for b in slices if not b["ok"]]
    assert failing == {"mu": -8, "ok": False, "failedChecks": ["span", "dimensions"],
                       "blocks": [
        {"t": 0, "c": 0, "kernel": 0, "excess": 0, "predictedKernel": 1, "predictedExcess": 1},
        {"t": 2, "c": 8, "kernel": 0, "excess": 0, "predictedKernel": 1, "predictedExcess": 1},
        {"t": 4, "c": 24, "kernel": 0, "excess": 0, "predictedKernel": 1, "predictedExcess": 0},
    ]}
    rep = enright.casimir_blocks(4, -8)
    assert rep.failed_checks == failing["failedChecks"]
    assert [(b.predicted_kernel, b.predicted_excess) for b in rep.blocks] == [
        (row["predictedKernel"], row["predictedExcess"]) for row in failing["blocks"]]


def test_a_jordan_block_of_size_three_fails_the_span_check(monkeypatch, capsys):
    # C = J_3(0) + J_2(8) on the (4, -8) slice: the blocks at c = 0 and 8
    # both read kernel 1 and excess 1, and every vector of ker (C - c)^2 is
    # killed by (C - c)^2, yet one dimension at c = 0 lies outside ker C^2
    jordan = {(0, 0): 0, (1, 1): 0, (2, 2): 0, (3, 3): 8, (4, 4): 8,
              (0, 1): 1, (1, 2): 1, (3, 4): 1}

    def fake(n_, mu_, c=0):
        mat, basis = _CLOSED_FORM(n_, mu_, c)
        if (n_, mu_) == (4, -8):
            mat = SparseMat(5, 5, {pos: x - c if pos[0] == pos[1] else x
                                   for pos, x in jordan.items()})
        return mat, basis

    monkeypatch.setattr(enright, "casimir_weight_matrix", fake)
    rep = enright.casimir_blocks(4, -8)
    assert [(b.c, b.kernel_dim, b.excess_dim) for b in rep.blocks] == [
        (0, 1, 1), (8, 1, 1), (24, 0, 0)]
    assert rep.failed_checks == ["span", "dimensions"]
    for c in (0, 8):
        shifted, _ = enright.casimir_weight_matrix(4, -8, c)
        kernel, excess = generalized_kernel(shifted)
        assert all(not shifted.apply(shifted.apply(v)) for v in kernel + excess)
    assert main(["decompose", "--n", "4"]) == 1
    [failing] = [b for b in json.loads(capsys.readouterr().out)["casimirBlocks"] if not b["ok"]]
    assert (failing["mu"], failing["failedChecks"]) == (-8, ["span", "dimensions"])


def test_a_wrong_f_slice_fails_the_f_power_oracle(monkeypatch, capsys):
    # f with its (0, 0) entry 2 in place of 1 on every slice
    real = enright._f_on_slice

    def perturbed(n, vec):
        out = real(n, vec)
        if vec.get(0):
            out[0] = out.get(0, 0) + vec[0]
        return out

    monkeypatch.setattr(enright, "_f_on_slice", perturbed)
    with pytest.raises(AssertionError,
                       match="f-power image disagrees with the Casimir kernel line"):
        enright.projective_generator(4, 0)
    assert main(["projgen", "--n", "4", "--s", "0"]) == 1
    assert "f-power image disagrees" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# band solves against the elimination engine
# ---------------------------------------------------------------------------

def _checked_casimir_kernels(m, n, mu):
    """The band (kernel, excess) of m, held against generalized_kernel: the
    same lengths and the same spans, every kernel vector killed by m and
    every excess vector x with m x != 0 and m (m x) = 0."""
    assert enright._band_solve(m, {}, n, mu) is not None
    kernel, excess = enright._casimir_kernels(m, n, mu)
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
    # weight slice that report solves: ker M and ker M^2 / ker M against
    # generalized_kernel, and ker e against nullspace
    sets = enright.index_sets(n, 0)
    shifts = [(mu, b.c) for mu in range(n, -n - 21, -2 * step)
              for b in enright.casimir_blocks(n, mu).blocks]
    shifts += [(-s - 2, s * (s + 2)) for s in sets.Iprime[::step]]
    for mu, c in shifts:
        m, _ = enright.casimir_weight_matrix(n, mu, c)
        _checked_casimir_kernels(m, n, mu)
    for s in sorted(set(sets.Iprime) | set(sets.Itripleprime))[::step]:
        m, _ = enright._e_restriction_matrix(n, s)
        kernel = enright._band_solve(m, {}, n, s)
        assert len(kernel) == 1 and kernel == nullspace(m)


_NONZERO = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def _band_maps(draw):
    """A square band map of dimension at most 6: entries in -3..3 on and
    below the superdiagonal, which has none of them zero."""
    d = draw(st.integers(1, 6))
    return SparseMat(d, d, {(r, c): draw(_NONZERO if c == r + 1 else st.integers(-3, 3))
                            for r in range(d) for c in range(min(r + 2, d))})


@settings(max_examples=200, deadline=None)
@given(_band_maps(), st.data())
@example(SparseMat(1, 1), None)
@example(SparseMat(4, 4, {(r, r + 1): 1 for r in range(3)}), None)
@example(SparseMat(2, 2, {(0, 1): 1, (1, 1): 1}), None)
def test_random_band_maps_match_the_elimination_engine(m, data):
    # J_1(0), J_4(0), and a kernel outside the image among the examples;
    # one entry above the band sends the map off it
    _checked_casimir_kernels(m, 0, 0)
    if data is not None and m.cols >= 3:
        r = data.draw(st.integers(0, m.cols - 3))
        c = data.draw(st.integers(r + 2, m.cols - 1))
        above = m + SparseMat(m.rows, m.cols, {(r, c): data.draw(_NONZERO)})
        assert enright._band_solve(above, {}, 0, 0) is None


def _count_calls(monkeypatch, name):
    """Count the calls enright makes to its elimination routine name."""
    calls = []
    real = getattr(enright, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(enright, name, counted)
    return calls


def test_a_jordan_block_of_size_three_on_the_band_fails_the_span_check(monkeypatch, capsys):
    # C is the companion matrix of x^3 (x - 8)^2 on the (4, -8) slice, so
    # J_3(0) + J_2(8) with every shift on the band: the blocks at c = 0 and
    # 8 read kernel 1 and excess 1 from band solves alone, and the one
    # dimension of ker C^3 outside ker C^2 is left over
    companion = {(r, r + 1): 1 for r in range(4)} | {(4, 3): -64, (4, 4): 16}

    def fake(n_, mu_, c=0):
        mat, basis = _CLOSED_FORM(n_, mu_, c)
        if (n_, mu_) == (4, -8):
            mat = SparseMat(5, 5, companion) - SparseMat.identity(5).scale(c)
        return mat, basis

    monkeypatch.setattr(enright, "casimir_weight_matrix", fake)
    calls = _count_calls(monkeypatch, "generalized_kernel")
    rep = enright.casimir_blocks(4, -8)
    assert [(b.c, b.kernel_dim, b.excess_dim) for b in rep.blocks] == [
        (0, 1, 1), (8, 1, 1), (24, 0, 0)]
    assert rep.failed_checks == ["span", "dimensions"]
    assert main(["decompose", "--n", "4"]) == 1
    [failing] = [b for b in json.loads(capsys.readouterr().out)["casimirBlocks"] if not b["ok"]]
    assert (failing["mu"], failing["failedChecks"]) == (-8, ["span", "dimensions"])
    assert not calls
    for b in rep.blocks:
        _checked_casimir_kernels(fake(4, -8, b.c)[0], 4, -8)


@pytest.mark.parametrize("off_band", ["above", "zero"])
def test_casimir_maps_off_the_band_go_to_the_generalized_kernel(monkeypatch, off_band):
    # (4, -8) with 2 at (0, d-1) above the band, or with a zero at (1, 2)
    # on the superdiagonal: the band solve declines each shifted map and
    # casimir_blocks reads the dimensions from generalized_kernel, as rank
    # reads them
    n, mu = 4, -8
    calls = _count_calls(monkeypatch, "generalized_kernel")
    assert enright.casimir_blocks(n, mu).ok and not calls

    def off(n_, mu_, c=0):
        mat, basis = _CLOSED_FORM(n_, mu_, c)
        if (n_, mu_) == (n, mu):
            d = mat.rows
            mat = mat + SparseMat(d, d, {(0, d - 1): 2} if off_band == "above"
                                  else {(1, 2): -mat[1, 2]})
        return mat, basis

    monkeypatch.setattr(enright, "casimir_weight_matrix", off)
    rep = enright.casimir_blocks(n, mu)
    assert len(calls) == len(rep.blocks)
    for b in rep.blocks:
        m, _ = off(n, mu, b.c)
        assert enright._band_solve(m, {}, n, mu) is None
        r1, r2 = rank(m), rank(m @ m)
        assert (b.kernel_dim, b.excess_dim) == (m.cols - r1, r1 - r2)


def test_an_e_map_off_the_band_goes_to_nullspace(monkeypatch):
    # adding the last row of e to its first keeps the kernel and puts an
    # entry above the band; the record is the one the band solve gives
    n, s = 8, 2
    calls = _count_calls(monkeypatch, "nullspace")
    expected = enright.highest_weight_vector(n, s)
    assert not calls
    real = enright._e_restriction_matrix

    def above(n_, mu_):
        mat, basis = real(n_, mu_)
        last = {c: x for (r, c), x in mat.entries.items() if r == mat.rows - 1}
        return mat + SparseMat(mat.rows, mat.cols, {(0, c): x for c, x in last.items()}), basis

    monkeypatch.setattr(enright, "_e_restriction_matrix", above)
    assert enright._band_solve(above(n, s)[0], {}, n, s) is None
    assert enright.highest_weight_vector(n, s) == expected
    assert len(calls) == 1


def test_an_e_map_with_a_zero_outer_entry_goes_to_nullspace(monkeypatch):
    # e on the (4, 0) slice is [[-2, 4, 0], [0, 0, 3]]; with the 3 taken out
    # the kernel has dimension 2, which nullspace finds and the record refuses
    calls = _count_calls(monkeypatch, "nullspace")
    real = enright._e_restriction_matrix

    def zero(n_, mu_):
        mat, basis = real(n_, mu_)
        assert mat.entries == {(0, 0): -2, (0, 1): 4, (1, 2): 3}
        return SparseMat(mat.rows, mat.cols, {(0, 0): -2, (0, 1): 4}), basis

    monkeypatch.setattr(enright, "_e_restriction_matrix", zero)
    with pytest.raises(AssertionError,
                       match=r"e-kernel at weight 0 has dimension 2, expected 1 \(n=4\)"):
        enright.highest_weight_vector(4, 0)
    assert len(calls) == 1


def test_generators_from_the_elimination_engine_are_the_same(monkeypatch):
    # with the band solve declining every map, projective_generator takes
    # its kernels from generalized_kernel and, pinning its excess line,
    # builds the same record for every (n, s) that report covers up to 12
    cases = [(n, s) for n in range(13) for s in enright.index_sets(n, 0).Iprime]
    expected = {case: enright.projective_generator(*case) for case in cases}
    calls = _count_calls(monkeypatch, "generalized_kernel")
    assert not calls
    monkeypatch.setattr(enright, "_band_solve", lambda m, b, n, mu: None)
    for case in cases:
        assert enright.projective_generator(*case) == expected[case]
    assert len(calls) == len(cases)


def test_the_band_kernel_raises_on_a_vector_it_cannot_check(monkeypatch):
    # a kernel vector or a solution that fails the rows it was solved from
    # names its slice
    m, _ = enright.casimir_weight_matrix(6, -4, 0)
    monkeypatch.setattr(enright, "_back_substitute", lambda echelon, x, rhs: ({0: 1}, 1))
    for b in ({}, {0: 1}):
        with pytest.raises(AssertionError, match=r"does not satisfy the slice map at n=6, mu=-4"):
            enright._band_solve(m, b, 6, -4)

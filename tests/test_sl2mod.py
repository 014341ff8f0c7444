from fractions import Fraction

import pytest
from oracles import rank

from vermalab import enright
from vermalab.cli import main
from vermalab.exactla import SparseMat, solve
from vermalab.sl2mod import (
    ConstructionError,
    TruncationError,
    apply_op,
    apply_word,
    build_Ln,
    build_Tr,
    build_tensor,
    build_verma,
    casimir,
    label_str,
    module_to_json,
    verify_category_I,
)


def vec(module, label):
    return {label: Fraction(1)}


def diff(u, v):
    out = {k: u.get(k, 0) - v.get(k, 0) for k in set(u) | set(v)}
    return {k: x for k, x in out.items() if x}


class TestLn:
    def test_actions_n2(self):
        m = build_Ln(2)
        assert m.act_label("f", ("v", 1)) == {("v", 2): Fraction(2)}
        assert m.act_label("e", ("v", 1)) == {("v", 0): Fraction(2)}
        assert m.act_label("h", ("v", 1)) == {}

    def test_n0_trivial(self):
        m = build_Ln(0)
        assert m.act_label("e", ("v", 0)) == {}
        assert m.act_label("f", ("v", 0)) == {}
        assert m.act_label("h", ("v", 0)) == {}

    def test_casimir_is_scalar(self):
        m = build_Ln(2)
        assert casimir(m) == SparseMat.identity(3).scale(Fraction(8))

    def test_commutator_on_whole_module(self):
        m = build_Ln(5)
        for b in m.basis:
            ef = apply_word(m, "ef", vec(m, b))
            fe = apply_word(m, "fe", vec(m, b))
            h = apply_op(m, "h", vec(m, b))
            assert diff(ef, fe) == h


class TestVerma:
    def test_lambda_zero_actions(self):
        m = build_verma(0, 6)
        assert m.act_label("e", ("w", 2)) == {("w", 1): Fraction(-2)}
        assert m.act_label("h", ("w", 3)) == {("w", 3): Fraction(-6)}
        assert m.act_label("f", ("w", 3)) == {("w", 4): Fraction(1)}

    def test_casimir_zero_on_v0(self):
        m = build_verma(0, 8)
        assert casimir(m).is_zero()

    def test_casimir_scalar_on_general_weight(self):
        for lam in (-3, 1, 4):
            m = build_verma(lam, 8)
            expected = SparseMat.identity(len(m.basis)).scale(Fraction(lam * (lam + 2)))
            assert casimir(m) == expected

    def test_highest_weight_annihilated(self):
        m = build_verma(5, 4)
        assert apply_op(m, "e", vec(m, ("w", 0))) == {}


class TestTensor:
    def test_coproduct_f(self):
        m = build_tensor(2, 4)
        assert m.act_label("f", ("vw", 0, 0)) == {
            ("vw", 1, 0): Fraction(1), ("vw", 0, 1): Fraction(1)}

    def test_weights_add(self):
        m = build_tensor(3, 4)
        assert m.weight(("vw", 1, 2)) == 3 - 2 - 4

    def test_e_drops_vanishing_term(self):
        m = build_tensor(4, 4)
        assert m.act_label("e", ("vw", 1, 1)) == {("vw", 0, 1): Fraction(4)}

    def test_commutator_on_interior(self):
        m = build_tensor(3, 6)
        for b in m.interior(1):
            ef = apply_word(m, "ef", vec(m, b))
            fe = apply_word(m, "fe", vec(m, b))
            h = apply_op(m, "h", vec(m, b))
            assert diff(ef, fe) == h

    def test_weight_grading_exact(self):
        m = build_tensor(3, 5)
        for b in m.basis:
            mu = m.weight(b)
            for lbl in m.act_label("e", b):
                assert m.weight(lbl) == mu + 2
            for lbl in m.act_label("f", b):
                assert m.weight(lbl) == mu - 2


class TestTr:
    def test_generators_n2(self):
        m = build_Tr(0, 2, 10)
        assert m.act_label("e", ("u", 0)) == {}
        assert m.act_label("h", ("a", 0)) == {("a", 0): Fraction(-2)}
        # quotient by the u-column carries e.abar = -k(k+r+1) abar with r=0
        e_a1 = m.act_label("e", ("a", 1))
        assert e_a1[("a", 0)] == Fraction(-2)

    def test_u_column_is_verma_r(self):
        r, n = 2, 4
        m = build_Tr(r, n, 12)
        verma = build_verma(r, 8)
        for k in range(6):
            img = m.act_label("e", ("u", k))
            ref = verma.act_label("e", ("w", k))
            assert {lbl[1]: c for lbl, c in img.items()} == {
                lbl[1]: c for lbl, c in ref.items()}

    def test_weight_multiplicities(self):
        r, n = 2, 4
        m = build_Tr(r, n, 12)
        counts = {}
        for b in m.basis:
            counts[m.weight(b)] = counts.get(m.weight(b), 0) + 1
        for k in range(r + 1):
            assert counts[r - 2 * k] == 1
        for mu in range(-r - 2, -r - 2 - 8, -2):
            assert counts[mu] == 2

    @pytest.mark.parametrize("r,n", [(0, 2), (2, 4), (1, 3)])
    def test_casimir_two_step_nilpotent(self, r, n):
        m = build_Tr(r, n, r + 12)
        c = Fraction(r * (r + 2))
        for b in m.interior(4):
            v = vec(m, b)
            w = _shifted_casimir(m, c, v)
            assert _shifted_casimir(m, c, w) == {}
        a = vec(m, ("a", 0))
        assert _shifted_casimir(m, c, a) != {}

    @pytest.mark.parametrize("r,n", [(0, 2), (2, 4), (1, 5)])
    def test_e_power_kills_generator(self, r, n):
        m = build_Tr(r, n, r + 10)
        v = vec(m, ("a", 0))
        for _ in range(r + 2):
            v = apply_op(m, "e", v)
        assert v == {}

    @pytest.mark.parametrize("r,n", [(0, 2), (2, 6), (3, 5)])
    def test_commutator_on_interior(self, r, n):
        m = build_Tr(r, n, r + 10)
        for b in m.interior(1):
            ef = apply_word(m, "ef", vec(m, b))
            fe = apply_word(m, "fe", vec(m, b))
            assert diff(ef, fe) == apply_op(m, "h", vec(m, b))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            build_Tr(1, 2, 8)  # 1 is not a projective index for n=2


def _tower(f_mat, index, coefficients, count):
    """f^j of a tensor vector given keyed (i, k), for j <= count, as
    vectors over the tensor slice's basis indices."""
    tower = [{index["vw", i, k]: c for (i, k), c in coefficients.items()}]
    for _ in range(count):
        tower.append(f_mat.apply(tower[-1]))
    return tower


@pytest.mark.parametrize("r,n", [(r, n) for n in range(11)
                                 for r in enright.index_sets(n, 0).Iprime])
def test_closed_form_e_matches_the_solved_action(r, n):
    """The independent oracle of T_r's closed-form e: the spanning towers
    f^k u and f^k a are taken with build_tensor's matrices, and each e
    image down to depth + 1 is solved back into the towers one depth up,
    which are independent, so the expression is unique."""
    depth = r + 12
    m = build_Tr(r, n, depth)
    gen = enright.projective_generator(n, r)
    # f^(depth+1) u and f^(depth-r) a have tensor depth (n-r)/2 + depth + 1
    tensor = build_tensor(n, (n - r) // 2 + depth + 1)
    e_mat, f_mat = tensor.act_matrix("e"), tensor.act_matrix("f")
    towers = {"u": _tower(f_mat, tensor.index, gen.hwv.coefficients, depth + 1),
              "a": _tower(f_mat, tensor.index, gen.final_vector, depth - r)}
    rows = range(len(tensor.basis))
    for lbl in m.basis_ext:
        span = [s for s in m.basis_ext if m.depth_of(s) == m.depth_of(lbl) - 1]
        image = e_mat.apply(towers[lbl[0]][lbl[1]])
        if not span:
            assert image == {} and m.act_label("e", lbl) == {}
            continue
        cols = SparseMat.from_columns(rows, [towers[col][k] for col, k in span])
        assert rank(cols) == len(span)
        x = solve(cols, image)
        assert x is not None
        assert {span[j]: c for j, c in x.items() if c} == m.act_label("e", lbl)


def _perturb_generator(monkeypatch):
    """Add 1 to the first coordinate of every projective generator."""
    real = enright.projective_generator

    def perturbed(n, s):
        rec = real(n, s)
        key = min(rec.final_vector)
        return rec._replace(final_vector={**rec.final_vector, key: rec.final_vector[key] + 1})

    monkeypatch.setattr(enright, "projective_generator", perturbed)


def test_a_perturbed_generator_fails_the_substitution_check(monkeypatch, capsys):
    _perturb_generator(monkeypatch)
    with pytest.raises(ConstructionError, match="^e on a0 is not the closed-form T_2 action$"):
        build_Tr(2, 4, 12)
    assert main(["verify-pseudoadjoint", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verification failure: ConstructionError: e on a0 is not the closed-form T_0 action\n")


@pytest.mark.parametrize("r,n", [(0, 2), (1, 3), (2, 4)])
def test_Tr_action_stops_at_the_stored_depth(r, n):
    """f is known down to depth and e down to depth + 1; one step deeper
    raises TruncationError."""
    depth = r + 5
    m = build_Tr(r, n, depth)
    for lbl in m.basis_ext:
        assert all(m.weight(x) == m.weight(lbl) + 2 for x in m.act_label("e", lbl))
        if m.depth_of(lbl) <= depth:
            assert m.act_label("f", lbl) == {(lbl[0], lbl[1] + 1): 1}
        else:
            with pytest.raises(TruncationError):
                m.act_label("f", lbl)
    for lbl in (("u", depth + 2), ("a", depth + 1 - r)):
        assert m.depth_of(lbl) == depth + 2
        with pytest.raises(TruncationError):
            m.act_label("e", lbl)


def _shifted_casimir(m, c, v):
    from vermalab.sl2mod import casimir_on_vector
    out = casimir_on_vector(m, v)
    for lbl, x in v.items():
        y = out.get(lbl, 0) - c * x
        if y:
            out[lbl] = y
        else:
            out.pop(lbl, None)
    return out


class TestCategoryMembership:
    def test_verma_is_member(self):
        rep = verify_category_I(build_verma(0, 10))
        assert rep.in_category

    def test_ln_fails_f_injectivity(self):
        rep = verify_category_I(build_Ln(2))
        assert rep.weights_diagonal and rep.e_locally_nilpotent
        assert not rep.f_injective
        assert rep.f_failures == [-2]

    def test_tr_is_member(self):
        rep = verify_category_I(build_Tr(0, 2, 10))
        assert rep.in_category

    def test_tensor_is_member(self):
        rep = verify_category_I(build_tensor(2, 8))
        assert rep.weights_diagonal and rep.in_category

    @pytest.mark.parametrize("label", [("vw", 0, 0), ("vw", 1, 2), ("vw", 2, 3)])
    def test_wrong_weight_fails_weights_diagonal(self, label):
        # h reads the declared weight; e and f do not, so ef - fe exposes it
        m = build_tensor(2, 8)
        true_weight = m.weight
        m.weight = lambda lbl: true_weight(lbl) + (2 if lbl == label else 0)
        assert not verify_category_I(m).weights_diagonal


def test_serialization_roundtrip_shape():
    m = build_verma(0, 3)
    doc = module_to_json(m)
    assert doc["kind"] == "Verma"
    assert doc["basis"] == ["w0", "w1", "w2", "w3"]
    assert doc["weights"] == [0, -2, -4, -6]
    assert all(len(t) == 3 for t in doc["actF"])


def test_label_str():
    assert label_str(("vw", 1, 2)) == "v1*w2"
    assert label_str(("a", 3)) == "a3"


@pytest.mark.parametrize("build,args", [
    (build_Ln, (4,)), (build_verma, (2, 6)), (build_verma, (-3, 6)), (build_tensor, (3, 5)),
], ids=["Ln4", "Verma2", "Verma-3", "L3xV0"])
def test_integral_actions_are_plain_int(build, args):
    """Every integral structure constant is an int, never a Fraction."""
    m = build(*args)
    for mat in (m.act_matrix("e"), m.act_matrix("f"), m.act_matrix("h"), casimir(m)):
        assert mat.entries and all(type(x) is int for x in mat.entries.values())


@pytest.mark.parametrize("build,interior", [
    (lambda: build_Ln(3), [("v", 0), ("v", 1), ("v", 2), ("v", 3)]),
    (lambda: build_verma(-3, 5), [("w", 0), ("w", 1), ("w", 2), ("w", 3)]),
    (lambda: build_tensor(2, 4), [("vw", 0, 0), ("vw", 1, 0), ("vw", 2, 0),
                                  ("vw", 0, 1), ("vw", 1, 1), ("vw", 2, 1),
                                  ("vw", 0, 2), ("vw", 1, 2), ("vw", 2, 2)]),
    (lambda: build_Tr(1, 3, 7), [("u", 0), ("u", 1), ("u", 2), ("a", 0), ("u", 3),
                                 ("a", 1), ("u", 4), ("a", 2), ("u", 5), ("a", 3)]),
], ids=["Ln3", "Verma-3", "L2xV0", "T1"])
def test_weight_and_depth_functions(build, interior):
    """h acts by the builder's weight function on the extended basis, f
    lowers it by 2, and the interior read off the depth function is the
    pinned label list."""
    m = build()
    for b in m.basis_ext:
        mu = m.weight(b)
        assert m.act_label("h", b) == ({b: mu} if mu else {})
    for b in m.basis:
        assert all(m.weight(lbl) == m.weight(b) - 2 for lbl in m.act_label("f", b))
    assert m.interior(2) == interior

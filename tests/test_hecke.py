import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import inversions

from vermalab import hecke
from vermalab.exactla import Laurent
from vermalab.hecke import (
    GroupAlgebraElement,
    HeckeElement,
    compose,
    degeneration_check,
    evaluation_X,
    evaluation_X_inverses,
    identity_perm,
    inverse,
    jucys_murphy,
    reduced_word,
    simple,
    specialize_at_one,
    t_inverse,
    transposition,
    verify_degenerate,
    verify_nondegenerate,
    xbar,
)

Q = Laurent.q()


class TestPermutations:
    def test_compose_inverse(self):
        p = (2, 0, 1)
        assert compose(p, inverse(p)) == identity_perm(3)

    def test_reduced_word_reconstructs(self):
        rng = random.Random(5)
        for n in (3, 4, 5):
            for _ in range(20):
                p = list(range(n))
                rng.shuffle(p)
                p = tuple(p)
                w = reduced_word(p)
                assert len(w) == inversions(p)
                acc = identity_perm(n)
                for i in reversed(w):
                    acc = compose(simple(n, i), acc)
                assert acc == p

    def test_transposition_validation(self):
        with pytest.raises(ValueError):
            transposition(3, 1, 1)


class TestJucysMurphy:
    def test_x2_is_transposition(self):
        assert jucys_murphy(3, 2) == GroupAlgebraElement.from_perm(transposition(3, 1, 2))

    def test_x1_zero(self):
        assert jucys_murphy(3, 1) == GroupAlgebraElement.zero(3)

    def test_crossing_relation_n3(self):
        # X_2 T_1 = T_1 X_1 + 1 since X_1 = 0 and (1 2)(1 2) = id
        t1 = GroupAlgebraElement.from_perm(simple(3, 1))
        assert jucys_murphy(3, 2) * t1 == GroupAlgebraElement.one(3)

    def test_commute_n4(self):
        x3, x4 = jucys_murphy(4, 3), jucys_murphy(4, 4)
        assert x3 * x4 == x4 * x3


def test_coefficients_are_integral():
    p = simple(3, 1)
    assert type(GroupAlgebraElement.from_perm(p, 2).terms[p]) is int
    assert HeckeElement.T(p, 2) == HeckeElement.T(p, Laurent.const(2))
    # the coefficients are ints: even an integral Fraction is refused
    for c in (Fraction(2), Fraction(1, 2)):
        with pytest.raises(TypeError):
            GroupAlgebraElement.from_perm(p, c)
        with pytest.raises(TypeError):
            HeckeElement.T(p, c)
        for element in (GroupAlgebraElement.one(3), HeckeElement.one(3)):
            with pytest.raises(TypeError):
                element * c
            with pytest.raises(TypeError):
                element + c
    # and compares unequal, as a float does, with no error
    for element in (GroupAlgebraElement.one(3), HeckeElement.one(3)):
        assert element == 1 and element != 2
        for c in (Fraction(1), Fraction(1, 2), 1.0, 0.5):
            assert not element == c and element != c
            assert not c == element and c != element
    assert GroupAlgebraElement.one(3) != HeckeElement.one(3)


def test_constructors_drop_zeros_after_coercion():
    p, e = simple(3, 1), identity_perm(3)
    assert GroupAlgebraElement(3, {p: 0, e: 2}).terms == {e: 2}
    assert HeckeElement(3, {p: Laurent.const(0), e: 0}).terms == {}
    # a zero of a foreign type is still rejected, not silently dropped
    with pytest.raises(TypeError):
        GroupAlgebraElement(3, {p: Laurent.const(0)})
    with pytest.raises(TypeError):
        HeckeElement(3, {p: 0.0})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_degenerate_relations(n):
    assert all(c.passed for c in verify_degenerate(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_nondegenerate_relations(n):
    checks = verify_nondegenerate(n)
    assert all(c.passed and c.witness is None for c in checks)


@pytest.mark.parametrize("field", ["family", "passed", "witness"])
def test_relation_checks_are_frozen(field):
    with pytest.raises(AttributeError):
        setattr(verify_nondegenerate(2)[0], field, None)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_degeneration_identities(n):
    assert all(c.passed for c in degeneration_check(n))


class TestHeckeMultiplication:
    def test_quadratic_relation(self):
        n = 2
        t1 = HeckeElement.T(simple(n, 1))
        one = HeckeElement.one(n)
        assert (t1 + one) * (t1 - one.scale(Q)) == HeckeElement.zero(n)

    def test_square_expansion(self):
        n = 2
        t1 = HeckeElement.T(simple(n, 1))
        expected = HeckeElement(n, {identity_perm(n): Q, simple(n, 1): Q - 1})
        assert t1 * t1 == expected

    def test_braid_through_reduced_words(self):
        n = 3
        t1 = HeckeElement.T(simple(n, 1))
        t2 = HeckeElement.T(simple(n, 2))
        w0 = compose(simple(n, 1), compose(simple(n, 2), simple(n, 1)))
        assert t1 * t2 * t1 == HeckeElement.T(w0)
        assert t1 * t2 * t1 == t2 * t1 * t2

    def test_t_inverse(self):
        n = 3
        for i in (1, 2):
            ti = HeckeElement.T(simple(n, i))
            assert ti * t_inverse(n, i) == HeckeElement.one(n)
            assert t_inverse(n, i) * ti == HeckeElement.one(n)

    def test_associativity_on_random_triples(self):
        rng = random.Random(1729)
        n = 4
        perms = []
        base = list(range(n))
        for _ in range(6):
            rng.shuffle(base)
            perms.append(tuple(base))

        def rand_elem():
            terms = {}
            for _ in range(3):
                p = perms[rng.randrange(len(perms))]
                coeffs = [rng.randint(-2, 2) for _ in range(3)]
                terms[p] = Laurent(coeffs, low=-1)  # q^-1, 1, q
            return HeckeElement(n, terms)

        for _ in range(200):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a * b) * c == a * (b * c)


class TestEvaluationElements:
    def test_x2_closed_form(self):
        xs = evaluation_X(2)
        expected = HeckeElement(2, {
            identity_perm(2): Laurent.const(1),
            simple(2, 1): Laurent.const(1) - Laurent.q(-1),
        })
        assert xs[1] == expected

    def test_defining_relation_reverified(self):
        n = 3
        xs = evaluation_X(n)
        for i in (1, 2):
            ti = HeckeElement.T(simple(n, i))
            assert ti * xs[i - 1] * ti == xs[i].scale(Q)

    def test_inverses(self):
        n = 4
        xs = evaluation_X(n)
        invs = evaluation_X_inverses(n)
        for x, xi in zip(xs, invs):
            assert x * xi == HeckeElement.one(n)

    def test_commutativity(self):
        xs = evaluation_X(3)
        assert xs[1] * xs[2] == xs[2] * xs[1]


class TestDegeneration:
    def test_xbar2_closed_form(self):
        xb = xbar(2)
        assert xb[0] == HeckeElement.zero(2)
        assert xb[1] == HeckeElement(2, {simple(2, 1): Laurent.q(-1)})

    def test_bridge_identity_n2(self):
        n = 2
        xb = xbar(n)
        t1 = HeckeElement.T(simple(n, 1))
        lhs = t1 + t1 * xb[0] * t1
        assert lhs == xb[1].scale(Q)
        assert lhs == t1

    def test_specialization_hits_jucys_murphy(self):
        for n in (2, 3, 4):
            for i, x in enumerate(xbar(n), start=1):
                assert specialize_at_one(x) == jucys_murphy(n, i)

    def test_group_algebra_shadow(self):
        n = 3
        one = GroupAlgebraElement.one(n)
        for i in (1, 2):
            ti = GroupAlgebraElement.from_perm(simple(n, i))
            assert one + ti * jucys_murphy(n, i) == jucys_murphy(n, i + 1) * ti

    def test_specialization_is_integral(self):
        for x in xbar(4):
            assert all(type(c) is int for c in specialize_at_one(x).terms.values())

    def test_non_divisible_bridge_coefficient_raises(self, monkeypatch):
        # X_2 + 1 leaves 1 - X_2 with a coefficient that is -1 at q = 1
        real = hecke.evaluation_X
        monkeypatch.setattr(hecke, "evaluation_X",
                            lambda n: [x + 1 if k == 1 else x for k, x in enumerate(real(n))])
        with pytest.raises(ArithmeticError):
            xbar(3)
        with pytest.raises(ArithmeticError):
            degeneration_check(3)


def test_failing_relation_carries_its_difference(monkeypatch):
    real = hecke.evaluation_X
    monkeypatch.setattr(hecke, "evaluation_X",
                        lambda n: [x.scale(Q) if k == 1 else x for k, x in enumerate(real(n))])
    checks = {(c.family, c.indices): c for c in verify_nondegenerate(2)}
    crossing = checks["crossing", (1,)]
    # T_1 X_1 T_1 = q X_2, but X_2 was replaced by q X_2
    x2 = real(2)[1]
    assert not crossing.passed
    assert crossing.witness == repr(x2.scale(Q) - x2.scale(Q * Q))
    assert crossing.witness != "0"
    assert all(c.witness is None for c in checks.values() if c.passed)


# up to four permutations of S_3 with Laurent coefficients in q^-2 .. q^4
_perms3 = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
_laurent = st.builds(Laurent, st.lists(st.integers(-3, 3), max_size=5), st.integers(-2, 0))
_hecke3 = st.dictionaries(st.sampled_from(_perms3), _laurent, max_size=4).map(
    lambda terms: HeckeElement(3, terms))


@given(_hecke3, _hecke3)
@settings(max_examples=100, deadline=None)
def test_specialization_at_one_is_multiplicative(a, b):
    """At q = 1 the Hecke product becomes the group algebra product."""
    assert specialize_at_one(a * b) == specialize_at_one(a) * specialize_at_one(b)


def test_printed_forms_are_pinned(monkeypatch):
    # the repr of each model and a failing relation's witness are report bytes
    assert repr(GroupAlgebraElement(3, {(1, 0, 2): 2, (0, 1, 2): -1})) == \
        "-1*(0, 1, 2) + 2*(1, 0, 2)"
    assert repr(HeckeElement(3, {(1, 0, 2): Q - 1, (0, 1, 2): Laurent.q(-1) * 2})) == \
        "(2*q^-1)*T(0, 1, 2) + (-1+q)*T(1, 0, 2)"
    # X_3 + (1 3) no longer commutes with X_2 nor with T_1
    real = hecke.jucys_murphy
    monkeypatch.setattr(hecke, "jucys_murphy", lambda n, k: real(n, k) + (
        GroupAlgebraElement.from_perm(transposition(n, 1, 3)) if k == 3 else 0))
    failed = [(c.family, c.indices, c.witness) for c in verify_degenerate(3) if not c.passed]
    assert failed == [
        ("X_commute", (2, 3), "-1*(1, 2, 0) + 1*(2, 0, 1)"),
        ("X_T_commute", (3, 1), "1*(1, 2, 0) + -1*(2, 0, 1)"),
        ("crossing", (2,), "1*(2, 0, 1)"),
    ]

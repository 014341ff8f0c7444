import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vermalab.fixtures import load_tilde_fixture
from vermalab.heisenberg import (
    FockPoly,
    FuzzVerdict,
    HElem,
    a_gen,
    b_gen,
    confluence_fuzz,
    fock_action,
    normal_form,
    tilde_candidates,
    tilde_probe,
    verify_generating_identity,
    word_inversions,
)


def mono(bs=(), aas=(), c=1):
    return HElem.monomial(bs, aas, c)


class TestNormalForm:
    def test_basic_exchange(self):
        assert normal_form([a_gen(1), b_gen(1)]) == mono((1,), (1,)) + 1

    def test_index_two_exchange(self):
        assert normal_form([a_gen(2), b_gen(2)]) == mono((2,), (2,)) + mono((1,), (1,))

    def test_two_step_rewriting(self):
        out = normal_form([a_gen(1), a_gen(1), b_gen(2)])
        assert out == mono((2,), (1, 1)) + mono((1,), (1,), 2) + 1

    def test_already_normal(self):
        w = (b_gen(2), b_gen(3), a_gen(1))
        assert normal_form(w) == mono((2, 3), (1,))

    def test_empty_word(self):
        assert normal_form(()) == HElem.one()

    def test_commutativity_within_families(self):
        assert normal_form([a_gen(3), a_gen(1)]) == normal_form([a_gen(1), a_gen(3)])
        assert normal_form([b_gen(4), b_gen(2)]) == normal_form([b_gen(2), b_gen(4)])

    def test_strategies_agree_on_spec_word(self):
        w = (a_gen(1), b_gen(1), a_gen(1), b_gen(1))
        assert normal_form(w, "leftmost") == normal_form(w, "rightmost")

    def test_mutating_a_result_leaves_the_cache_intact(self):
        word = (("a", 2), ("b", 2))
        expected = repr(normal_form(word))
        x = normal_form(word)
        x.terms.clear()
        assert expected != "0"
        assert repr(normal_form(word)) == expected

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            normal_form((), "inner")


def test_inversion_measure_decreases():
    # one exchange step removes exactly one inversion
    w = (a_gen(2), b_gen(2))
    assert word_inversions(w) == 1
    assert word_inversions((b_gen(2), a_gen(2))) == 0
    assert word_inversions((b_gen(1), a_gen(1))) == 0


@st.composite
def words(draw):
    length = draw(st.integers(0, 6))
    return tuple(
        (draw(st.sampled_from("ab")), draw(st.integers(1, 5)))
        for _ in range(length)
    )


@given(words())
@settings(max_examples=200, deadline=None)
def test_confluence_and_positivity(word):
    left = normal_form(word, "leftmost")
    right = normal_form(word, "rightmost")
    assert left == right
    assert all(c > 0 for c in left.terms.values())


@pytest.mark.parametrize("i", range(1, 7))
@pytest.mark.parametrize("j", range(1, 7))
def test_family_commutators_vanish(i, j):
    assert normal_form((a_gen(i), a_gen(j))) == normal_form((a_gen(j), a_gen(i)))
    assert normal_form((b_gen(i), b_gen(j))) == normal_form((b_gen(j), b_gen(i)))


class TestGeneratingIdentity:
    def test_residuals_vanish_to_order_six(self):
        res = verify_generating_identity(6)
        assert all(not r for r in res.values())

    def test_specific_coefficients(self):
        # a2 b1 = b1 a2 + a1; a1 b3 = b3 a1 + b2
        assert normal_form([a_gen(2), b_gen(1)]) == mono((1,), (2,)) + mono((), (1,))
        assert normal_form([a_gen(1), b_gen(3)]) == mono((3,), (1,)) + mono((2,))


class TestFockAction:
    def test_lowering(self):
        out = fock_action(mono(aas=(1,)), FockPoly.from_indices((1,)))
        assert out.terms == {(): 1}

    def test_vacuum_annihilated(self):
        out = fock_action(mono(aas=(4,)), FockPoly.one())
        assert out.is_zero()

    def test_two_step_lowering(self):
        out = fock_action(mono(aas=(2,)), FockPoly.from_indices((1, 1)))
        assert out.terms == {(): 1}

    def test_representation_property(self):
        import random
        rng = random.Random(99)
        gens = [mono(aas=(n,)) for n in (1, 2)] + [mono(bs=(m,)) for m in (1, 2, 3)]
        for _ in range(200):
            x = gens[rng.randrange(len(gens))]
            y = gens[rng.randrange(len(gens))]
            lam = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(0, 3))))
            p = FockPoly.from_indices(lam)
            via_product = fock_action(x * y, p)
            stepwise = fock_action(x, fock_action(y, p))
            assert via_product == stepwise

    def test_degree_overflow(self):
        with pytest.raises(OverflowError):
            fock_action(mono(bs=(5,)), FockPoly.from_indices((1,), degree_bound=3))


class TestTildeProbe:
    def test_first_candidates(self):
        t1, t2 = tilde_candidates(2)
        assert t1 == mono(aas=(1,))
        assert t2 == mono(aas=(1, 1)) + mono(aas=(2,), c=-2)

    def test_newton_pattern_order3(self):
        t3 = tilde_candidates(3)[2]
        expected = mono(aas=(1, 1, 1)) + mono(aas=(1, 2), c=-3) + mono(aas=(3,), c=3)
        assert t3 == expected

    def test_probe_fixture_values(self):
        _, res = tilde_probe(1, 2)
        table = {(n, m): r for n, m, r in res}
        assert not table[1, 1]                      # [a~1, b1] = 1 exactly
        assert table[1, 2] == mono((1,))            # correction beyond the diagonal
        _, res = tilde_probe(2, 3)
        table = {(n, m): r for n, m, r in res}
        assert not table[2, 1]
        assert not table[2, 2]
        assert table[2, 3] == mono((1,))

    def test_matches_frozen_fixture(self):
        frozen = {(row["n"], row["m"]): row["residualNormalForm"]
                  for row in load_tilde_fixture()["table"]}
        for n in range(1, 5):
            _, res = tilde_probe(n, 4)
            for (i, m, r) in res:
                assert repr(r) == frozen[i, m]

    def test_degree_bound_guard(self):
        with pytest.raises(ValueError):
            tilde_probe(3, 2)


class TestConfluenceFuzz:
    def test_seeded_run_clean(self):
        verdict = confluence_fuzz(200, 1729)
        assert isinstance(verdict, FuzzVerdict)
        assert verdict.ok
        assert verdict.trials == 200

    def test_reproducible(self):
        a = confluence_fuzz(50, 7)
        b = confluence_fuzz(50, 7)
        assert a.mismatches == b.mismatches
        assert a.ok == b.ok

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            confluence_fuzz(0, 1)

import inspect
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FockPoly, bucketed_rewrite, fock_action, fuzz_through_normal_form, fuzz_words

from vermalab import heisenberg
from vermalab.fixtures import TILDE_FIXTURE, load_json
from vermalab.heisenberg import (
    FuzzVerdict,
    HElem,
    a_gen,
    b_gen,
    confluence_fuzz,
    normal_form,
    tilde_candidates,
    tilde_probe,
    verify_generating_identity,
    word_inversions,
    word_str,
)


STRATEGIES = ("series", "leftmost", "rightmost")


def mono(bs=(), aas=(), c=1):
    return c * HElem.monomial(bs, aas)


@pytest.fixture
def fresh_cache():
    # a planted fault must neither read nor leave behind memoised words or
    # passages; the memos are taken before a test can monkeypatch them
    memos = (heisenberg._nf_cached, heisenberg._push_b, heisenberg._exchange_one)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


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

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("letter", [("a", 0), ("b", -1), ("c", 1), ("a", 1.5),
                                        ("b", True), ("a",), ["a", 1], "a1"], ids=repr)
    def test_malformed_letter(self, letter, strategy):
        with pytest.raises(ValueError, match=re.escape(repr(letter))):
            normal_form((("b", 1), letter, ("a", 1)), strategy)


@pytest.mark.parametrize("index", [0, -1, 1.5, 2.0, Fraction(2), True, False, "1", None],
                         ids=repr)
def test_malformed_generator_index(index):
    message = re.escape(repr(index))
    for make in (a_gen, b_gen, lambda i: HElem.monomial((i,), ()),
                 lambda i: HElem.monomial((1,), (2, i))):
        with pytest.raises(ValueError, match=message):
            make(index)


def test_scalars_are_ints():
    x = mono((1,), (2,))
    assert x * 3 == 3 * x == mono((1,), (2,), 3)
    # even an integral Fraction is refused, on either side
    for c in (Fraction(1), Fraction(1, 2)):
        with pytest.raises(TypeError):
            x * c
        with pytest.raises(TypeError):
            c * x


@pytest.mark.parametrize("other", ["a", 0.5, Fraction(1, 2), None],
                         ids=["str", "float", "Fraction", "None"])
def test_a_foreign_operand_is_no_element(other):
    # neither an int nor an HElem: unequal with no error, and + and -
    # refuse it on either side, where an int is taken on either side
    x = mono((1,), (2,))
    for element in (HElem.one(), x):
        assert 2 - element == -(element - 2) and 2 + element == element + 2
        assert not element == other and element != other
        assert not other == element and other != element
        for combine in (lambda: element + other, lambda: other + element,
                        lambda: element - other, lambda: other - element):
            with pytest.raises(TypeError):
                combine()


def _power_oracle(k):
    # a_1^k b_1^k = sum_j C(k, j)^2 j! b_1^{k-j} a_1^{k-j}: choose the j
    # lowered a's and b's and match them up
    return HElem({((1,) * (k - j), (1,) * (k - j)): comb(k, j) ** 2 * factorial(j)
                  for j in range(k + 1)})


@pytest.mark.parametrize("k, strategy", [(40, s) for s in STRATEGIES] + [(200, "series")])
def test_power_word_matches_closed_form(k, strategy, fresh_cache):
    word = (a_gen(1),) * k + (b_gen(1),) * k
    assert normal_form(word, strategy) == _power_oracle(k)


def test_inversion_measure_decreases():
    # one exchange step removes exactly one inversion
    w = (a_gen(2), b_gen(2))
    assert word_inversions(w) == 1
    assert word_inversions((b_gen(2), a_gen(2))) == 0
    assert word_inversions((b_gen(1), a_gen(1))) == 0


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("word", [(a_gen(1), b_gen(1)), (a_gen(1), a_gen(1), b_gen(1)),
                                  (a_gen(2), b_gen(3), a_gen(1), b_gen(1))])
def test_misfiled_word_raises(word, shift, strategy, monkeypatch, fresh_cache):
    # file the word under the wrong inversion count: some word must then
    # reach count 0 with an a before a b, or leave it without one
    true_count = word_inversions(word)
    monkeypatch.setattr(heisenberg, "word_inversions", lambda w: true_count + shift)
    with pytest.raises(AssertionError, match="inversion measure") as exc:
        normal_form(word, strategy)
    # the witness is written in generator letters, not in the rewriters'
    # internal encoding
    assert re.search(r"measure: (1|[ab][1-9]\d*(\.[ab][1-9]\d*)*) filed under",
                     str(exc.value))
    if true_count + shift == 0:
        # filed under 0 with an inversion, the word itself is the witness
        assert f": {word_str(word)} filed under 0 inversions" in str(exc.value)


LETTERS = [a_gen(i) for i in range(1, 4)] + [b_gen(i) for i in range(1, 4)]
SHORT_WORDS = [w for length in range(5) for w in product(LETTERS, repeat=length)]


def test_rewriters_match_the_fold_on_every_short_word(fresh_cache):
    # every word of length <= 4 over a_1..a_3, b_1..b_3
    assert len(SHORT_WORDS) == 1555
    for word in SHORT_WORDS:
        series = normal_form(word)
        assert normal_form(word, "leftmost") == series, word
        assert normal_form(word, "rightmost") == series, word


@pytest.mark.parametrize("words", [pytest.param(SHORT_WORDS, id="short")] + [
    pytest.param(list(dict.fromkeys(fuzz_words(1000, seed))), id=f"fuzz-{seed}")
    for seed in (1729, 4242, 7)])
def test_rewriters_match_the_bucketed_oracle(words):
    for word in words:
        for strategy in ("leftmost", "rightmost"):
            assert heisenberg._rewrite(word, strategy).terms == \
                bucketed_rewrite(word, strategy).terms, (word, strategy)


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_planted_exchange_fault_is_a_mismatch(strategy, monkeypatch, fresh_cache):
    # drop the contraction term of every exchange of an a_2 with a b; the
    # term that always swaps survives, so the inversion guard stays quiet
    source = inspect.getsource(heisenberg._exchange_one)
    step = "for key in (aas, _insert(passed, k), mb), (aas, lowered, mb - 1):"
    assert source.count(step) == 1
    namespace = dict(vars(heisenberg))
    exec(source.replace(step, "for key in ((aas, _insert(passed, k), mb), "
                              "(aas, lowered, mb - 1))[:1 if k == 2 else 2]:"), namespace)
    monkeypatch.setattr(heisenberg, "_exchange_one", namespace["_exchange_one"])
    verdict = confluence_fuzz(200, 1729)
    assert verdict.mismatches and not verdict.ok
    assert any(normal_form(w, strategy) != normal_form(w) for w in verdict.mismatches)


SORTED_A_PARTS = [aas for length in range(5)
                  for aas in combinations_with_replacement(range(1, 7), length)]


def test_closed_form_matches_the_exchange_steps(fresh_cache):
    # the fold's passage of b_m through a sorted a-part against the
    # rewriters', for every a-part of length <= 4 over a_1..a_6
    assert len(SORTED_A_PARTS) == 210
    for aas in SORTED_A_PARTS:
        for m in range(1, 7):
            pushed = heisenberg._push_b(aas, m)
            passages, rounds = heisenberg._exchange_one(aas, m)
            assert type(pushed) is tuple and type(passages) is tuple
            closed = {}
            for w, mb, new_aas in pushed:
                closed[mb, new_aas] = closed.get((mb, new_aas), 0) + w
            assert dict(passages) == closed, (aas, m)
            # the term that always swaps passes every a, one per round
            assert rounds == len(aas), (aas, m)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_large_indices_need_no_ceiling(strategy, fresh_cache):
    big = 10**6
    assert normal_form((a_gen(big), b_gen(big)), strategy) == \
        mono((big,), (big,)) + mono((big - 1,), (big - 1,))


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
    series, left, right = (normal_form(word, s) for s in STRATEGIES)
    assert series == left == right
    assert all(c > 0 for c in series.terms.values())


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


def _tilde_candidates_fraction(order):
    """The power-sum candidates computed over Fraction, as a dict per order."""
    a_minus = [{(): Fraction(1)}]
    for j in range(1, order + 1):
        a_minus.append({(j,): Fraction(-1) ** j})
    a_prime = [{(j + 1,): Fraction(-1) ** j * (j + 1)} for j in range(order)]

    def cmul(x, y):
        out = {}
        for mx, cx in x.items():
            for my, cy in y.items():
                key = tuple(sorted(mx + my))
                v = out.get(key, Fraction(0)) + cx * cy
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return out

    inv = [{(): Fraction(1)}]
    for k in range(1, order):
        acc = {}
        for j in range(1, k + 1):
            if j < len(a_minus):
                for mono_, c in cmul(a_minus[j], inv[k - j]).items():
                    v = acc.get(mono_, Fraction(0)) + c
                    if v:
                        acc[mono_] = v
                    else:
                        acc.pop(mono_, None)
        inv.append({m: -c for m, c in acc.items()})

    tildes = []
    for k in range(1, order + 1):
        acc = {}
        for j in range(k):
            if j < len(a_prime):
                for mono_, c in cmul(a_prime[j], inv[k - 1 - j]).items():
                    v = acc.get(mono_, Fraction(0)) + c
                    if v:
                        acc[mono_] = v
                    else:
                        acc.pop(mono_, None)
        tildes.append(acc)
    return tildes


@pytest.mark.parametrize("order", range(1, 9))
def test_tilde_candidates_match_fraction_computation(order):
    expected = [{((), m): c for m, c in t.items()} for t in _tilde_candidates_fraction(order)]
    got = tilde_candidates(order)
    assert [t.terms for t in got] == expected
    assert all(type(c) is int for t in got for c in t.terms.values())


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
                  for row in load_json(TILDE_FIXTURE)["table"]}
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

    def test_planted_fold_fault_is_a_mismatch(self, monkeypatch, fresh_cache):
        # drop the last term of every multi-term push of a b through a's
        push = heisenberg._push_b
        monkeypatch.setattr(heisenberg, "_push_b",
                            lambda aas, m: push(aas, m)[:-1] or push(aas, m))
        verdict = confluence_fuzz(200, 1729)
        assert verdict.mismatches and not verdict.ok
        assert all(normal_form(w, "leftmost") == normal_form(w, "rightmost")
                   for w in verdict.mismatches)

    def test_repeated_words_match_the_per_trial_oracle(self, monkeypatch, fresh_cache):
        # take 2 from the lowest monomial of the fold of every word that
        # needs rewriting: a mismatch always, a negative coefficient only
        # where that coefficient was 1
        real = heisenberg._reduce

        def broken(word, strategy):
            out = real(word, strategy)
            if strategy != "series" or not word_inversions(word):
                return out
            terms = dict(out.terms)
            terms[min(terms)] -= 2
            return HElem(terms)

        monkeypatch.setattr(heisenberg, "_reduce", broken)
        mismatches, negatives = fuzz_through_normal_form(100, 7)
        assert max(Counter(mismatches).values()) > 1
        assert max(Counter(negatives).values()) > 1
        assert len(negatives) < len(mismatches)
        verdict = confluence_fuzz(100, 7)
        assert verdict.mismatches == mismatches
        assert verdict.negative_coefficient_words == negatives

    def test_fuzz_leaves_the_memo_alone(self, fresh_cache):
        # each distinct word's normal forms are dropped once compared
        before = heisenberg._nf_cached.cache_info()
        tracemalloc.start()
        try:
            verdict = confluence_fuzz(1000, 1729)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.ok
        assert heisenberg._nf_cached.cache_info() == before
        assert peak < 4 * 2**20

"""The integral Heisenberg algebra on a_n, b_m and its normal forms.

Generators a_n and b_m (n, m >= 1) satisfy

    a_n b_m = b_m a_n + b_{m-1} a_{n-1},     a_0 = b_0 = 1,

with the a's commuting among themselves and likewise the b's; in
generating series, A(t) B(u) = B(u) A(t) (1 + tu).  Words reduce to
integer combinations of normal monomials b...b a...a with weakly
increasing indices, in three independent ways:

- "series", the default: a left-to-right fold.  An a-letter joins the
  a-monomial; b_m passes a_{n_1} ... a_{n_j} as
  sum over S of b_{m-|S|} prod_{l in S} a_{n_l - 1} prod_{l not in S} a_{n_l},
  read off the series relation, with subsets S of equal indices
  enumerated by multiset and weighted by binomial coefficients.
- "leftmost" and "rightmost": exchange-step rewriters.  "leftmost" reads
  the word from the left, keeps what it has read as normal monomials,
  and exchanges each b with the a's in front of it, one a per round;
  "rightmost" is its mirror image, read from the right.  Each step
  removes an (a, b) inversion, so rewriting terminates, and a word
  whose rounds do not sum to its number of inversions raises.

Whole words are memoised in a bounded cache that serves ``normal_form``
callers.  Below it, each engine memoises the one step it repeats, the
passage of one b_m through one sorted a-part, keyed by (a-part, m) with
no b-part, in a bounded cache of its own: the fold's closed form
(`_push_b`) and the rewriters' exchange rounds (`_exchange_one`, shared
by leftmost and rightmost).  The two memos never answer for each other,
so the engines stay independent.  Confluence is exercised empirically
by comparing all three over random words; the fuzz calls the engines
directly and keeps one verdict per distinct word for one call, so it
leaves no normal form behind; it does fill the passage memos.
``a_gen`` and ``b_gen`` build checked letters for words written by hand;
the Fock representation, which no verb reads, is a test oracle.

The power-sum elements built from the logarithmic derivative of the
generating series A(t) are provided as an exploratory probe: their
commutators with the b_m are computed exactly and compared against a
frozen fixture rather than asserted wholesale (they reproduce the
delta relation only for m <= n).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .exactla import vec_add, vec_iadd

__all__ = [
    "HElem",
    "a_gen",
    "b_gen",
    "normal_form",
    "word_inversions",
    "word_str",
    "verify_generating_identity",
    "tilde_candidates",
    "tilde_probe",
    "confluence_fuzz",
    "FuzzVerdict",
]


# generators are tagged tuples ("a", n) or ("b", m); a word is a tuple of them


def _check_index(i, what):
    """i, when it is an int >= 1 (a bool is not); else ValueError naming it."""
    if type(i) is not int or i < 1:
        raise ValueError(f"{what} are indexed by ints from 1, not {i!r}")
    return i


def a_gen(n):
    return ("a", _check_index(n, "a-generators"))


def b_gen(m):
    return ("b", _check_index(m, "b-generators"))


def word_inversions(word):
    """Number of pairs (i, j), i < j, with an a-letter at i and a b-letter at j."""
    count = 0
    bs_seen_right = 0
    for letter in reversed(word):
        if letter[0] == "b":
            bs_seen_right += 1
        else:
            count += bs_seen_right
    return count


class HElem:
    """Integer combination of normal monomials (b-indices, a-indices)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {mono: c for mono, c in (terms or {}).items() if c}

    @staticmethod
    def one():
        return HElem({((), ()): 1})

    @staticmethod
    def zero():
        return HElem()

    @staticmethod
    def monomial(b_indices=(), a_indices=()):
        for what, seq in (("b-generators", b_indices), ("a-generators", a_indices)):
            for i in seq:
                _check_index(i, what)
        return HElem({(tuple(sorted(b_indices)), tuple(sorted(a_indices))): 1})

    def __add__(self, other):
        if isinstance(other, int):
            other = HElem({((), ()): other})
        elif not isinstance(other, HElem):
            return NotImplemented
        return HElem(vec_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return HElem({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = HElem({((), ()): other})
        elif not isinstance(other, HElem):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other if isinstance(other, int) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return HElem({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, HElem):
            return NotImplemented
        out = {}
        for (b1, a1), c in self.terms.items():
            for (b2, a2), d in other.terms.items():
                word = tuple(("b", m) for m in b1) + tuple(("a", n) for n in a1) \
                     + tuple(("b", m) for m in b2) + tuple(("a", n) for n in a2)
                vec_iadd(out, normal_form(word).terms, c * d)
        return HElem(out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        if isinstance(other, int):
            other = HElem({((), ()): other})
        elif not isinstance(other, HElem):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (bs, aas), c in sorted(self.terms.items()):
            body = ".".join([f"b{m}" for m in bs] + [f"a{n}" for n in aas]) or "1"
            parts.append(f"{c}*{body}")
        return " + ".join(parts)


def word_str(word):
    """A word in the generators as its letters, b1.a2 style (1 if empty)."""
    return ".".join(f"{g}{i}" for g, i in word) or "1"


def _misfiled(word, count, detail=""):
    """The error for a word of `count` inversions that the exchange rounds
    did not match: some step failed to remove exactly one."""
    return AssertionError(f"rewrite step failed to decrease the inversion measure: "
                          f"{word_str(word)} filed under {count} inversions{detail}")


@lru_cache(maxsize=512)
def _exchange_one(aas, m):
    """b_m written after the sorted a-part `aas`, rewritten by exchange
    steps; returns a tuple of ((b-index or 0, a-indices), weight) and the
    number of rounds.

    A term in flight is A b P with P the a's the b has passed.  A round
    exchanges the last, largest a_k of A with the b: a_k b -> b a_k +
    b' a_{k-1}, b' one index lower, so a_k or a_{k-1} joins P, which stays
    sorted because each a of P is at least k - 1.  A term leaves once A
    is empty, with the b in front of P, or once b' = b_0 = 1.  The passage
    does not depend on the b's in front of A, so it is memoised on
    (A, m) alone; the result is a tuple, which no caller can mutate.
    """
    out = {}
    flight = {(aas, (), m): 1}
    rounds = -1  # the last pass only lets terms leave
    while flight:
        rounds += 1
        after = {}
        for (aas, passed, mb), c in flight.items():
            if not (aas and mb):
                key = (mb, passed) if mb else (0, tuple(sorted(aas + passed)))
                out[key] = out.get(key, 0) + c
                continue
            k = aas[-1]
            aas = aas[:-1]
            lowered = (k - 1,) + passed if k > 1 else passed
            for key in (aas, _insert(passed, k), mb), (aas, lowered, mb - 1):
                after[key] = after.get(key, 0) + c
        flight = after
    return tuple(out.items()), rounds


def _exchange(terms, m):
    """b_m written after each normal monomial B A of `terms`, rewritten by
    the exchange steps of `_exchange_one` on A; a surviving b joins B.

    Returns the normal terms and the number of rounds, the most any one
    term took: the rounds the terms would take exchanged side by side.
    """
    out = {}
    rounds = -1
    for (bs, aas), c in terms.items():
        passages, r = _exchange_one(aas, m)
        rounds = max(rounds, r)
        for (mb, new_aas), w in passages:
            key = (_insert(bs, mb) if mb else bs, new_aas)
            out[key] = out.get(key, 0) + c * w
    return out, rounds


def _rewrite(word, strategy):
    """Exchange-step rewriting of a word, read one letter at a time.

    "leftmost" keeps the word read so far as normal monomials B A with
    sorted indices: an a-letter joins A, and `_exchange` moves a b-letter
    past A, since in B A b rest the leftmost a-before-b pair is the last
    a of A and the b.  "rightmost" rewrites the mirror image, the reversed
    word with a's and b's swapped, under which the relation is symmetric,
    and swaps the normal monomials back.

    The term that always swaps has coefficient 1 and, as no coefficient
    is negative, never cancels; it exchanges each (a, b) inversion of the
    word in one round, so any other number of rounds raises.
    """
    rightmost = strategy == "rightmost"
    if rightmost:
        letters = [("b" if g == "a" else "a", i) for g, i in reversed(word)]
    else:
        letters = word
    terms = {((), ()): 1}
    rounds = 0
    for kind, i in letters:
        if kind == "a":
            terms = {(bs, _insert(aas, i)): c for (bs, aas), c in terms.items()}
        else:
            terms, r = _exchange(terms, i)
            rounds += r
    count = word_inversions(word)
    if rounds != count:
        raise _misfiled(word, count, f" but took {rounds} exchange rounds")
    if rightmost:
        terms = {(aas, bs): c for (bs, aas), c in terms.items()}
    return HElem(terms)


def _insert(indices, i):
    """The sorted tuple `indices` with one more entry i."""
    at = bisect_right(indices, i)
    return indices[:at] + (i,) + indices[at:]


@lru_cache(maxsize=512)
def _push_b(aas, m):
    """a_{n_1} ... a_{n_j} b_m as a tuple of (weight, b-index, a-indices).

    From A(t) B(u) = B(u) A(t) (1 + tu): b_m passes each a_n either
    unchanged or lowering both, a_n to a_{n-1} and b_m to b_{m-1}, with
    a_0 = b_0 = 1 and nothing lowered past b_0.  Lowering k of the r
    copies of one index has weight C(r, k).  `aas` is sorted, so the
    lowered copies of a run land after every earlier run and the
    a-indices stay sorted; a b-index of 0 means the b is gone.  Memoised
    on (aas, m); the result is a tuple, which no caller can mutate.
    """
    partial = [(1, m, ())]
    p = 0
    while p < len(aas):
        n = aas[p]
        r = bisect_right(aas, n, p) - p
        p += r
        lower = (n - 1,) if n > 1 else ()
        partial = [
            (w * comb(r, k), mb - k, kept + lower * k + (n,) * (r - k))
            for w, mb, kept in partial
            for k in range(min(r, mb) + 1)
        ]
    return tuple(partial)


def _fold(word):
    """Normal form by a left-to-right fold over the letters of the word.

    The running value is a combination of normal monomials b...b a...a:
    an a-letter joins the a-part, a b-letter is pushed through the a-part
    by `_push_b`.  No recursion and no memo of sub-words; only the
    passage of one b through one a-part is memoised, in `_push_b`.
    """
    terms = {((), ()): 1}
    for kind, i in word:
        if kind == "a":
            terms = {(bs, _insert(aas, i)): c for (bs, aas), c in terms.items()}
            continue
        out = {}
        for (bs, aas), c in terms.items():
            for w, mb, new_aas in _push_b(aas, i):
                key = (_insert(bs, mb) if mb else bs, new_aas)
                out[key] = out.get(key, 0) + c * w
        terms = out
    return HElem(terms)


_STRATEGIES = ("series", "leftmost", "rightmost")


def _reduce(word, strategy):
    """Normal form of a word by one engine, uncached."""
    if strategy == "series":
        return _fold(word)
    return _rewrite(word, strategy)


@lru_cache(maxsize=4096)
def _nf_cached(word, strategy):
    return _reduce(word, strategy)


def normal_form(word, strategy="series"):
    """Fully rewritten normal form of a word in the generators.

    "series" (the default) folds the word through the closed form of
    pushing a b past a-letters, read off the generating-series relation.
    "leftmost" and "rightmost" are true exchange-step rewriters that pick
    which adjacent a-before-b pair to exchange first.  All three reach the
    same normal form (checked by fuzzing, not assumed by the
    implementation).  Whole words are memoised in a bounded cache for
    the callers of this function; ``confluence_fuzz`` bypasses it.  Each
    engine also memoises, in a bounded cache of its own, the passage of
    one b through one sorted a-part, which no engine borrows from
    another.  The result is a fresh copy, so a caller may mutate it
    without touching the cache.  A letter other than ("a", n) or
    ("b", n) with an int n >= 1 raises ValueError.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    word = tuple(word)
    for letter in word:
        if not (type(letter) is tuple and len(letter) == 2 and letter[0] in ("a", "b")
                and type(letter[1]) is int and letter[1] >= 1):
            raise ValueError(f"not a generator letter: {letter!r}")
    return HElem(_nf_cached(word, strategy).terms)


# ---------------------------------------------------------------------------
# the generating-series identity A(t) B(u) = B(u) A(t) (1 + tu)
# ---------------------------------------------------------------------------

def verify_generating_identity(order):
    """Residual table of a_i b_j against the series side, i, j <= order.

    The right-hand side B(u) A(t) (1 + tu) is expanded as a genuine
    bivariate series whose coefficients are already normal monomials.  The
    left-hand side goes through the "leftmost" exchange rewriter, not the
    default fold, which is itself read off this relation: the comparison
    pits the rewriting engine against an independent construction.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    # coefficient of t^i u^j in B(u) A(t): the normal monomial b_j a_i
    def ba_coeff(i, j):
        bs = (j,) if j >= 1 else ()
        aas = (i,) if i >= 1 else ()
        return HElem({(bs, aas): 1})

    residuals = {}
    for i in range(1, order + 1):
        for j in range(1, order + 1):
            rhs = ba_coeff(i, j) + ba_coeff(i - 1, j - 1)
            lhs = normal_form((("a", i), ("b", j)), "leftmost")
            residuals[i, j] = lhs - rhs
    return residuals


# ---------------------------------------------------------------------------
# the power-sum probe
# ---------------------------------------------------------------------------

def tilde_candidates(order):
    """Candidates for the renormalized a-generators up to the given order.

    Coefficient of t^{k-1} in A'(-t) A(-t)^{-1}, expanded inside the
    commutative subalgebra generated by the a's; these are the power
    sums of the alphabet whose elementary symmetric functions are the
    a_n.  A(-t) has constant term 1, so its inverse needs no division and
    every coefficient stays an integer.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    # series coefficients are maps (sorted a-index tuple) -> int
    a_minus = [{(): 1}]
    for j in range(1, order + 1):
        a_minus.append({(j,): (-1) ** j})
    a_prime = [{(j + 1,): (-1) ** j * (j + 1)} for j in range(order)]

    def cmul(x, y):
        out = {}
        for mx, cx in x.items():
            # my -> mx + my is injective on multisets: no collisions
            vec_iadd(out, {tuple(sorted(mx + my)): cy for my, cy in y.items()}, cx)
        return out

    # power series inverse of A(-t) modulo t^order
    inv = [{(): 1}]
    for k in range(1, order):
        acc = {}
        for j in range(1, k + 1):
            if j < len(a_minus):
                vec_iadd(acc, cmul(a_minus[j], inv[k - j]))
        inv.append({m: -c for m, c in acc.items()})

    tildes = []
    for k in range(1, order + 1):
        acc = {}
        for j in range(k):
            if j < len(a_prime):
                vec_iadd(acc, cmul(a_prime[j], inv[k - 1 - j]))
        tildes.append(HElem({((), mono): c for mono, c in acc.items()}))
    return tildes


def tilde_probe(n, degree_bound):
    """Exact commutators of the n-th power-sum candidate with the b_m.

    Returns the candidate and the residual table
    [a~_n, b_m] - delta_{n,m} for m <= degree_bound.  The residuals are
    frozen as a regression fixture; they vanish for m <= n but not in
    general.
    """
    if degree_bound < n:
        raise ValueError("degree bound must reach n")
    cand = tilde_candidates(n)[n - 1]
    residuals = []
    for m in range(1, degree_bound + 1):
        comm = cand.commutator(HElem.monomial(b_indices=(m,)))
        delta = HElem.one() if m == n else HElem.zero()
        residuals.append((n, m, comm - delta))
    return cand, residuals


# ---------------------------------------------------------------------------
# confluence fuzzing
# ---------------------------------------------------------------------------

class FuzzVerdict(NamedTuple):
    trials: int
    mismatches: list
    negative_coefficient_words: list

    @property
    def ok(self):
        return not self.mismatches and not self.negative_coefficient_words


def confluence_fuzz(trials, seed):
    """Normalise random words by the fold and both rewriters and compare.

    Each word has at most 8 letters with indices from 1 to 6.  A word is
    a mismatch unless all three normal forms are equal.
    Also checks that every normal form of a product of generators has
    nonnegative integer coefficients.  Per-trial randomness derives from
    the master seed, so runs are reproducible.

    Each distinct word is normalised once per engine, bypassing the
    ``normal_form`` memo; only its (mismatch, negative) verdict is kept,
    for this call, and a repeated word is reported again in trial order.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    mismatches = []
    negatives = []
    verdicts = {}
    for t in range(trials):
        rng = random.Random((seed * 1_000_003 + t) & 0xFFFFFFFF)
        length = rng.randint(0, 8)
        word = tuple((rng.choice("ab"), rng.randint(1, 6)) for _ in range(length))
        verdict = verdicts.get(word)
        if verdict is None:
            series, left, right = (_reduce(word, s).terms for s in _STRATEGIES)
            verdict = verdicts[word] = (not series == left == right,
                                        any(c < 0 for c in series.values()))
        mismatch, negative = verdict
        if mismatch:
            mismatches.append(word)
        if negative:
            negatives.append(word)
    return FuzzVerdict(trials=trials, mismatches=mismatches,
                       negative_coefficient_words=negatives)

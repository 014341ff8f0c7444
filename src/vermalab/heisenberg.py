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
- "leftmost" and "rightmost": exchange-step rewriters.  Each step
  strictly decreases the number of (a, b) inversions, so rewriting
  terminates.  They run iteratively, one inversion count at a time, and
  raise if a word turns up under the wrong count.

Only whole words are memoised, in a bounded cache.  Confluence is
exercised empirically by comparing all three over random words.

The power-sum elements built from the logarithmic derivative of the
generating series A(t) are provided as an exploratory probe: their
commutators with the b_m are computed exactly and compared against a
frozen fixture rather than asserted wholesale (they reproduce the
delta relation only for m <= n).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .exactla import vec_add, vec_iadd

__all__ = [
    "HElem",
    "FockPoly",
    "a_gen",
    "b_gen",
    "normal_form",
    "word_inversions",
    "word_str",
    "verify_generating_identity",
    "fock_action",
    "tilde_candidates",
    "tilde_probe",
    "confluence_fuzz",
    "FuzzVerdict",
]


# generators are tagged tuples ("a", n) or ("b", m); a word is a tuple of them


def a_gen(n):
    if n < 1:
        raise ValueError("a-generators are indexed from 1")
    return ("a", n)


def b_gen(m):
    if m < 1:
        raise ValueError("b-generators are indexed from 1")
    return ("b", m)


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
        for seq in (b_indices, a_indices):
            if any(i < 1 for i in seq):
                raise ValueError("indices start at 1")
        return HElem({(tuple(sorted(b_indices)), tuple(sorted(a_indices))): 1})

    def __add__(self, other):
        if isinstance(other, int):
            other = HElem({((), ()): other})
        return HElem(vec_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return HElem({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = HElem({((), ()): other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HElem({m: c * other for m, c in self.terms.items()})
        out = {}
        for (b1, a1), c in self.terms.items():
            for (b2, a2), d in other.terms.items():
                word = tuple(("b", m) for m in b1) + tuple(("a", n) for n in a1) \
                     + tuple(("b", m) for m in b2) + tuple(("a", n) for n in a2)
                vec_iadd(out, normal_form(word).terms, c * d)
        return HElem(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        if isinstance(other, int):
            other = HElem({((), ()): other})
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


def _misfiled(w, count, loss=""):
    """The failed-decrease error for a signed-int word filed under `count`."""
    letters = word_str(("a", v) if v > 0 else ("b", -v) for v in w)
    return AssertionError(f"rewrite step failed to decrease the inversion measure: "
                          f"{letters} filed under {count} inversions{loss}")


def _rewrite(word, strategy):
    """Exchange-step rewriting, one inversion count at a time.

    Letters are signed ints, a_n as n and b_m as -m, so an adjacent
    a-before-b pair is w[p] > 0 > w[p + 1].  Words are filed in buckets by
    their number of (a, b) inversions.  A bucket is rewritten only once
    every word above it is done, so each distinct word is rewritten once,
    carrying its summed coefficient.  The swap removes exactly the
    exchanged inversion; the contraction also removes the inversions of a
    b_1 with the a's in front of it and of an a_1 with the b's behind it,
    since b_0 = a_0 = 1 leave the word.  A word is normal (all b's before
    all a's) exactly when it is filed under count 0: anything else is a
    failed decrease of the inversion measure and raises.  The words of
    count 0 are sorted once each; the sorted letters name the monomial.
    """
    top = word_inversions(word)
    buckets = [{} for _ in range(top + 1)]
    buckets[top][tuple(i if g == "a" else -i for g, i in word)] = 1
    leftmost = strategy == "leftmost"
    for count in range(top, 0, -1):
        swapped = buckets[count - 1]
        for w, c in buckets[count].items():
            for p in range(len(w) - 1) if leftmost else range(len(w) - 2, -1, -1):
                if w[p] > 0 > w[p + 1]:
                    break
            else:
                raise _misfiled(w, count)
            n, m = w[p], w[p + 1]  # a_n b_{-m}
            head, tail = w[:p], w[p + 2:]
            lost, contracted = 1, (m + 1, n - 1)
            if m == -1:
                lost += sum(1 for v in head if v > 0)
                contracted = contracted[1:]
            if n == 1:
                lost += sum(1 for v in tail if v < 0)
                contracted = contracted[:-1]
            if lost > count:
                raise _misfiled(w, count, f" loses {lost}")
            key = head + (m, n) + tail
            swapped[key] = swapped.get(key, 0) + c
            target = buckets[count - lost]
            key = head + contracted + tail
            target[key] = target.get(key, 0) + c
        buckets[count] = None
    merged = {}
    for w, c in buckets[0].items():
        s = sorted(w)
        k = bisect_left(s, 0)
        if k and max(w[:k]) > 0:
            raise _misfiled(w, 0)
        key = tuple(s)
        merged[key] = merged.get(key, 0) + c
    out = {}
    for s, c in merged.items():
        k = bisect_left(s, 0)
        out[tuple(-v for v in reversed(s[:k])), s[k:]] = c
    return HElem(out)


def _insert(indices, i):
    """The sorted tuple `indices` with one more entry i."""
    at = bisect_right(indices, i)
    return indices[:at] + (i,) + indices[at:]


def _push_b(aas, m):
    """a_{n_1} ... a_{n_j} b_m as a list of (weight, b-index, a-indices).

    From A(t) B(u) = B(u) A(t) (1 + tu): b_m passes each a_n either
    unchanged or lowering both, a_n to a_{n-1} and b_m to b_{m-1}, with
    a_0 = b_0 = 1 and nothing lowered past b_0.  Lowering k of the r
    copies of one index has weight C(r, k).  `aas` is sorted, so the
    lowered copies of a run land after every earlier run and the
    a-indices stay sorted; a b-index of 0 means the b is gone.
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
    return partial


def _fold(word):
    """Normal form by a left-to-right fold over the letters of the word.

    The running value is a combination of normal monomials b...b a...a:
    an a-letter joins the a-part, a b-letter is pushed through the a-part
    by `_push_b`.  No recursion and no memo of sub-words.
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


@lru_cache(maxsize=4096)
def _nf_cached(word, strategy):
    if strategy == "series":
        return _fold(word)
    return _rewrite(word, strategy)


def normal_form(word, strategy="series"):
    """Fully rewritten normal form of a word in the generators.

    "series" (the default) folds the word through the closed form of
    pushing a b past a-letters, read off the generating-series relation.
    "leftmost" and "rightmost" are true exchange-step rewriters that pick
    which adjacent a-before-b pair to exchange first.  All three reach the
    same normal form (checked by fuzzing, not assumed by the
    implementation).  Whole words are memoised in a bounded cache; the
    result is a fresh copy, so a caller may mutate it without touching
    the cache.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    return HElem(_nf_cached(tuple(word), strategy).terms)


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
# Fock representation: b multiplies, a lowers and kills 1
# ---------------------------------------------------------------------------

class FockPoly(NamedTuple):
    """Integer polynomial in the commuting b's; terms map sorted index
    tuples to coefficients.  degree_bound caps the total index sum and
    takes no part in equality."""

    terms: dict
    degree_bound: int = 10**9

    @staticmethod
    def one():
        return FockPoly({(): 1})

    @staticmethod
    def from_indices(indices, degree_bound=10**9):
        return FockPoly({tuple(sorted(indices)): 1}, degree_bound)

    def __eq__(self, other):
        return self.terms == other.terms

    def __ne__(self, other):
        return self.terms != other.terms

    def is_zero(self):
        return not self.terms


def fock_action(h, p):
    """Action of an algebra element on a Fock polynomial.

    b_m multiplies; a-letters are pushed through the b's by the exchange
    rule and annihilate the vacuum, so only the a-free part of the
    normal form survives.  Raises OverflowError past the degree bound.
    """
    out = {}
    for (bs, aas), c in h.terms.items():
        for lam, d in p.terms.items():
            word = tuple(("b", m) for m in bs) + tuple(("a", n) for n in aas) \
                 + tuple(("b", m) for m in lam)
            # a's annihilate 1
            kept = {rb: e for (rb, ra), e in normal_form(word).terms.items() if not ra}
            for rb in kept:
                if sum(rb) > p.degree_bound:
                    raise OverflowError(
                        f"Fock degree {sum(rb)} exceeds bound {p.degree_bound}")
            vec_iadd(out, kept, c * d)
    return FockPoly(out, p.degree_bound)


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
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    mismatches = []
    negatives = []
    for t in range(trials):
        rng = random.Random((seed * 1_000_003 + t) & 0xFFFFFFFF)
        length = rng.randint(0, 8)
        word = tuple((rng.choice("ab"), rng.randint(1, 6)) for _ in range(length))
        series = normal_form(word)
        left = normal_form(word, "leftmost")
        right = normal_form(word, "rightmost")
        if not series == left == right:
            mismatches.append(word)
        if any(c < 0 for c in series.terms.values()):
            negatives.append(word)
    return FuzzVerdict(trials=trials, mismatches=mismatches,
                       negative_coefficient_words=negatives)

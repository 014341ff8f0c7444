"""Affine Hecke relations checked in faithful finite representations.

Two models are used.  The degenerate presentation (q = 1) is realized in
the rational group algebra of the symmetric group with T_i the simple
transpositions and X_k the Jucys-Murphy sums of transpositions.  The
nondegenerate presentation runs over Q(q) in the finite Hecke algebra on
the T_w basis, with commuting evaluation elements X_i built from
X_1 = 1 and the defining relation T_i X_i T_i = q X_{i+1}.

The degeneration bridge X-bar_i = (1 - X_i)/(1 - q) is handled
symbolically: the bridging identity holds as an exact rational-function
identity, and the reduced coefficients of X-bar_i are regular at q = 1,
where they specialize to the Jucys-Murphy elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactla import RatFunc

__all__ = [
    "identity_perm",
    "compose",
    "inverse",
    "simple",
    "transposition",
    "inversions",
    "GroupAlgebraElement",
    "HeckeElement",
    "jucys_murphy",
    "verify_degenerate",
    "evaluation_X",
    "evaluation_X_inverses",
    "verify_nondegenerate",
    "degeneration_check",
    "specialize_at_one",
    "RelationCheck",
]


# ---------------------------------------------------------------------------
# permutations: tuples of images, 0-based
# ---------------------------------------------------------------------------

def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def simple(n, i):
    """The adjacent transposition s_i swapping i and i+1 (1-based i)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"s_{i} undefined for n={n}")
    out = list(range(n))
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def transposition(n, a, b):
    """The transposition (a b), 1-based."""
    if not (1 <= a <= n and 1 <= b <= n and a != b):
        raise ValueError(f"transposition ({a} {b}) undefined for n={n}")
    out = list(range(n))
    out[a - 1], out[b - 1] = out[b - 1], out[a - 1]
    return tuple(out)


def inversions(p):
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def _left_descent(p):
    """Smallest i with l(s_i p) < l(p), or None for the identity.

    s_i p swaps the values i-1, i (0-based); it shortens p exactly when
    the value i-1 appears after the value i.
    """
    inv = inverse(p)
    for i in range(len(p) - 1):
        if inv[i] > inv[i + 1]:
            return i + 1  # 1-based generator index
    return None


def reduced_word(p):
    """A reduced word [i_1, ..., i_k] with p = s_{i_1} ... s_{i_k}."""
    word = []
    n = len(p)
    while True:
        i = _left_descent(p)
        if i is None:
            return word
        word.append(i)
        p = compose(simple(n, i), p)


# ---------------------------------------------------------------------------
# the group algebra of the symmetric group over Q
# ---------------------------------------------------------------------------

class GroupAlgebraElement:
    """Finite Q-linear combination of permutations of fixed size."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for p, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    self.terms[p] = self.terms.get(p, Fraction(0)) + c
                    if not self.terms[p]:
                        del self.terms[p]

    @staticmethod
    def from_perm(p, coeff=Fraction(1)):
        return GroupAlgebraElement(len(p), {p: Fraction(coeff)})

    @staticmethod
    def one(n):
        return GroupAlgebraElement(n, {identity_perm(n): Fraction(1)})

    @staticmethod
    def zero(n):
        return GroupAlgebraElement(n)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mixed symmetric group sizes")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GroupAlgebraElement(self.n, {identity_perm(self.n): Fraction(other)})
        self._check(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            x = out.get(p, Fraction(0)) + c
            if x:
                out[p] = x
            else:
                out.pop(p, None)
        return GroupAlgebraElement(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return GroupAlgebraElement(self.n, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GroupAlgebraElement(self.n, {identity_perm(self.n): Fraction(other)})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupAlgebraElement(self.n, {p: c * other for p, c in self.terms.items()})
        self._check(other)
        out = {}
        for p, c in self.terms.items():
            for r, d in other.terms.items():
                key = compose(p, r)
                x = out.get(key, Fraction(0)) + c * d
                if x:
                    out[key] = x
                else:
                    out.pop(key, None)
        return GroupAlgebraElement(self.n, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GroupAlgebraElement(self.n, {identity_perm(self.n): Fraction(other)})
        return self.n == other.n and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{p}" for p, c in sorted(self.terms.items()))


def jucys_murphy(n, k):
    """X_1 = 0 and X_k = sum of the transpositions (j k) for j < k."""
    if not 1 <= k <= n:
        raise ValueError(f"X_{k} undefined for n={n}")
    terms = {}
    for j in range(1, k):
        terms[transposition(n, j, k)] = Fraction(1)
    return GroupAlgebraElement(n, terms)


# ---------------------------------------------------------------------------
# the finite Hecke algebra over Q(q) on the T_w basis
# ---------------------------------------------------------------------------

_RF_ONE = RatFunc.const(1)
_RF_Q = RatFunc.q()


class HeckeElement:
    """Finite Q(q)-linear combination of basis elements T_w."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for p, c in (terms.items() if isinstance(terms, dict) else terms):
                c = c if isinstance(c, RatFunc) else RatFunc.const(c)
                if c:
                    cur = self.terms.get(p)
                    c = c + cur if cur is not None else c
                    if c:
                        self.terms[p] = c
                    else:
                        del self.terms[p]

    @staticmethod
    def T(p, coeff=_RF_ONE):
        return HeckeElement(len(p), {p: coeff})

    @staticmethod
    def one(n):
        return HeckeElement(n, {identity_perm(n): _RF_ONE})

    @staticmethod
    def zero(n):
        return HeckeElement(n)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mixed Hecke algebra sizes")

    def _lift(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return HeckeElement(self.n, {identity_perm(self.n): other})
        return other

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            x = out.get(p)
            x = c if x is None else x + c
            if x:
                out[p] = x
            else:
                out.pop(p, None)
        return HeckeElement(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return HeckeElement(self.n, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return -(self - other)

    def scale(self, c):
        c = c if isinstance(c, RatFunc) else RatFunc.const(c)
        return HeckeElement(self.n, {p: c * x for p, x in self.terms.items()})

    def _gen_left(self, i):
        """Left multiplication by T_i on the basis:
        T_i T_w = T_{s_i w} when the length goes up, otherwise
        q T_{s_i w} + (q - 1) T_w."""
        n = self.n
        si = simple(n, i)
        out = {}

        def bump(p, c):
            x = out.get(p)
            x = c if x is None else x + c
            if x:
                out[p] = x
            else:
                out.pop(p, None)

        qm1 = _RF_Q - _RF_ONE
        for w, c in self.terms.items():
            sw = compose(si, w)
            if inversions(sw) > inversions(w):
                bump(sw, c)
            else:
                bump(sw, _RF_Q * c)
                bump(w, qm1 * c)
        return HeckeElement(n, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return self.scale(other)
        self._check(other)
        result = HeckeElement.zero(self.n)
        for u, c in self.terms.items():
            part = other.scale(c)
            for i in reversed(reduced_word(u)):
                part = part._gen_left(i)
            result = result + part
        return result

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._lift(other)
        return self.n == other.n and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*T{p}" for p, c in sorted(self.terms.items()))


def t_inverse(n, i):
    """T_i^{-1} = q^{-1} T_i - (1 - q^{-1}), from the quadratic relation."""
    qinv = RatFunc.q(-1)
    return HeckeElement(n, {simple(n, i): qinv}) - (_RF_ONE - qinv)


def evaluation_X(n):
    """The commuting evaluation elements [X_1, ..., X_n] with X_1 = 1 and
    X_{i+1} = q^{-1} T_i X_i T_i."""
    qinv = RatFunc.q(-1)
    xs = [HeckeElement.one(n)]
    for i in range(1, n):
        ti = HeckeElement.T(simple(n, i))
        xs.append((ti * xs[-1] * ti).scale(qinv))
    return xs


def evaluation_X_inverses(n):
    """Inverses of the evaluation elements, X_{i+1}^{-1} = q T_i^{-1} X_i^{-1} T_i^{-1}."""
    out = [HeckeElement.one(n)]
    for i in range(1, n):
        tinv = t_inverse(n, i)
        out.append((tinv * out[-1] * tinv).scale(_RF_Q))
    return out


# ---------------------------------------------------------------------------
# relation reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationCheck:
    family: str
    n: int
    indices: tuple
    passed: bool


def verify_degenerate(n):
    """All degenerate presentation relations with T_i = s_i and X_k the
    Jucys-Murphy elements, as exact group-algebra identities."""
    if n < 2:
        raise ValueError("need n >= 2")
    T = {i: GroupAlgebraElement.from_perm(simple(n, i)) for i in range(1, n)}
    X = {k: jucys_murphy(n, k) for k in range(1, n + 1)}
    one = GroupAlgebraElement.one(n)
    checks = []

    for i in range(1, n):
        checks.append(RelationCheck("involution", n, (i,), T[i] * T[i] == one))
    for i in range(1, n):
        for j in range(i + 2, n):
            checks.append(RelationCheck("distant_braid", n, (i, j), T[i] * T[j] == T[j] * T[i]))
    for i in range(1, n - 1):
        checks.append(RelationCheck(
            "braid", n, (i, i + 1),
            T[i] * T[i + 1] * T[i] == T[i + 1] * T[i] * T[i + 1]))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            checks.append(RelationCheck("X_commute", n, (i, j), X[i] * X[j] == X[j] * X[i]))
    for i in range(1, n + 1):
        for j in range(1, n):
            if i - j in (0, 1):
                continue
            checks.append(RelationCheck("X_T_commute", n, (i, j), X[i] * T[j] == T[j] * X[i]))
    for i in range(1, n):
        checks.append(RelationCheck(
            "crossing", n, (i,),
            X[i + 1] * T[i] == T[i] * X[i] + one))
    return checks


def verify_nondegenerate(n):
    """All nondegenerate presentation relations over Q(q) in the
    evaluation representation, as exact identities in the T_w basis."""
    if n < 2:
        raise ValueError("need n >= 2")
    T = {i: HeckeElement.T(simple(n, i)) for i in range(1, n)}
    X = evaluation_X(n)
    Xinv = evaluation_X_inverses(n)
    one = HeckeElement.one(n)
    checks = []

    for i in range(1, n):
        checks.append(RelationCheck(
            "quadratic", n, (i,),
            (T[i] + one) * (T[i] - one.scale(_RF_Q)) == HeckeElement.zero(n)))
    for i in range(1, n):
        for j in range(i + 2, n):
            checks.append(RelationCheck("distant_braid", n, (i, j), T[i] * T[j] == T[j] * T[i]))
    for i in range(1, n - 1):
        checks.append(RelationCheck(
            "braid", n, (i, i + 1),
            T[i] * T[i + 1] * T[i] == T[i + 1] * T[i] * T[i + 1]))
    for i in range(1, n + 1):
        checks.append(RelationCheck(
            "laurent", n, (i,),
            X[i - 1] * Xinv[i - 1] == one and Xinv[i - 1] * X[i - 1] == one))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            checks.append(RelationCheck(
                "X_commute", n, (i, j), X[i - 1] * X[j - 1] == X[j - 1] * X[i - 1]))
    for i in range(1, n + 1):
        for j in range(1, n):
            if i - j in (0, 1):
                continue
            checks.append(RelationCheck(
                "X_T_commute", n, (i, j), X[i - 1] * T[j] == T[j] * X[i - 1]))
    for i in range(1, n):
        checks.append(RelationCheck(
            "crossing", n, (i,),
            T[i] * X[i - 1] * T[i] == X[i].scale(_RF_Q)))
    return checks


def xbar(n):
    """The bridge elements (1 - X_i)/(1 - q), defined over Q(q)."""
    one_minus_q = RatFunc((1, -1))
    factor = _RF_ONE / one_minus_q
    return [(HeckeElement.one(n) - x).scale(factor) for x in evaluation_X(n)]


def specialize_at_one(h):
    """Evaluate every coefficient at q = 1, landing in the group algebra.

    Raises ZeroDivisionError when a reduced coefficient has a pole there.
    """
    return GroupAlgebraElement(h.n, {p: c.at(1) for p, c in h.terms.items()})


def degeneration_check(n):
    """The bridge identities tying the two presentations together.

    Over Q(q): T_i + T_i Xbar_i T_i = q Xbar_{i+1} exactly (so the
    statement survives any specialization q != 1, and the q -> 1 limit
    is meaningful).  At q = 1 the reduced Xbar_i coefficients are
    regular and specialize to the Jucys-Murphy elements, and the
    degenerate crossing relation 1 + T_i Xbar_i = Xbar_{i+1} T_i holds
    in the group algebra.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    xb = xbar(n)
    T = {i: HeckeElement.T(simple(n, i)) for i in range(1, n)}
    checks = []
    for i in range(1, n):
        lhs = T[i] + T[i] * xb[i - 1] * T[i]
        rhs = xb[i].scale(_RF_Q)
        checks.append(RelationCheck("bridge", n, (i,), lhs == rhs))
    for i in range(1, n + 1):
        checks.append(RelationCheck(
            "xbar_at_one", n, (i,),
            specialize_at_one(xb[i - 1]) == jucys_murphy(n, i)))
    one = GroupAlgebraElement.one(n)
    for i in range(1, n):
        ti = GroupAlgebraElement.from_perm(simple(n, i))
        jm_i, jm_next = jucys_murphy(n, i), jucys_murphy(n, i + 1)
        checks.append(RelationCheck(
            "crossing_at_one", n, (i,),
            one + ti * jm_i == jm_next * ti))
    return checks

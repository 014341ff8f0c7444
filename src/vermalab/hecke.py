"""Affine Hecke relations checked in faithful finite representations.

Two models are used.  The degenerate presentation (q = 1) is realized in
the integral group algebra of the symmetric group with T_i the simple
transpositions and X_k the Jucys-Murphy sums of transpositions.  The
nondegenerate presentation runs over Z[q, q^-1] in the finite Hecke
algebra on the T_w basis, with commuting evaluation elements X_i built
from X_1 = 1 and the defining relation T_i X_i T_i = q X_{i+1}.  That
ring suffices: the structure constants of the T_w basis lie in Z[q], and
X_i and X_i^-1 lie in the span of the T_w over Z[q, q^-1].

The degeneration bridge X-bar_i = (1 - X_i)/(1 - q) is computed by exact
division: every coefficient of 1 - X_i is divisible by 1 - q (the
division raises InexactDivisionError otherwise), so X-bar_i is regular at
q = 1 by construction and specializes there to the Jucys-Murphy
elements.

Both element classes share the ring-independent arithmetic of one private
base, ``_PermCombination``.  Each keeps only its coefficient ring, its
named constructor, its product and how a term prints; the two products
stay separate code, so the group algebra remains an independent model
for the degeneration check.

Every relation is checked as lhs - rhs == 0; a failing check carries the
nonzero difference as its witness.  The braid and X-commutation
families are the same in both presentations and are written once.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactla import Laurent, as_integer, vec_add, vec_iadd

__all__ = [
    "identity_perm",
    "compose",
    "inverse",
    "simple",
    "transposition",
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
# linear combinations of permutations: the arithmetic both models share
# ---------------------------------------------------------------------------

class _PermCombination:
    """Finite linear combination of permutations of fixed size ``n``.

    ``terms`` maps each permutation to its nonzero coefficient.  A
    subclass fixes the coefficient ring (``_coerce`` brings a coefficient
    into it, ``_scalars`` are the types lifted to multiples of the
    identity), the product of two elements, and how a term prints
    (``_term``, a format string over ``c`` and ``p``).
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {p: x for p, c in (terms or {}).items() if (x := self._coerce(c))}

    @classmethod
    def one(cls, n):
        return cls(n, {identity_perm(n): 1})

    @classmethod
    def zero(cls, n):
        return cls(n)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"mixed {type(self).__name__} sizes")

    def _lift(self, other):
        if isinstance(other, self._scalars):
            return type(self)(self.n, {identity_perm(self.n): other})
        return other

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        return type(self)(self.n, vec_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.n, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def scale(self, c):
        c = self._coerce(c)
        return type(self)(self.n, {p: c * x for p, x in self.terms.items()})

    def __eq__(self, other):
        other = self._lift(other)
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(self._term.format(c=c, p=p) for p, c in sorted(self.terms.items()))


# ---------------------------------------------------------------------------
# the group algebra of the symmetric group over Z
# ---------------------------------------------------------------------------

class GroupAlgebraElement(_PermCombination):
    """Finite Z-linear combination of permutations of fixed size.

    Coefficients are plain ints; any other coefficient raises TypeError.
    """

    __slots__ = ()
    _coerce = staticmethod(as_integer)
    _scalars = int
    _term = "{c}*{p}"

    @staticmethod
    def from_perm(p, coeff=1):
        return GroupAlgebraElement(len(p), {p: coeff})

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        self._check(other)
        out = {}
        for p, c in self.terms.items():
            # r -> p r is injective, so the left translate has no collisions
            vec_iadd(out, {compose(p, r): d for r, d in other.terms.items()}, c)
        return GroupAlgebraElement(self.n, out)


def jucys_murphy(n, k):
    """X_1 = 0 and X_k = sum of the transpositions (j k) for j < k."""
    if not 1 <= k <= n:
        raise ValueError(f"X_{k} undefined for n={n}")
    terms = {}
    for j in range(1, k):
        terms[transposition(n, j, k)] = 1
    return GroupAlgebraElement(n, terms)


# ---------------------------------------------------------------------------
# the finite Hecke algebra over Z[q, q^-1] on the T_w basis
# ---------------------------------------------------------------------------

_ONE = Laurent.const(1)
_Q = Laurent.q()
_Q_MINUS_ONE = _Q - 1


def _as_laurent(c):
    """c as a Laurent coefficient; raises TypeError unless c is a
    Laurent or an int."""
    return c if isinstance(c, Laurent) else Laurent.const(c)


class HeckeElement(_PermCombination):
    """Finite Z[q, q^-1]-linear combination of basis elements T_w.

    Coefficients are :class:`Laurent` polynomials; an int is lifted to a
    constant, any other coefficient raises TypeError.
    """

    __slots__ = ()
    _coerce = staticmethod(_as_laurent)
    _scalars = (int, Laurent)
    _term = "({c})*T{p}"

    @staticmethod
    def T(p, coeff=_ONE):
        return HeckeElement(len(p), {p: coeff})

    def _gen_left(self, i):
        """Left multiplication by T_i on the basis:
        T_i T_w = T_{s_i w} when the length goes up, otherwise
        q T_{s_i w} + (q - 1) T_w.  s_i w swaps the values i-1 and i
        (0-based) of w, so the length goes up exactly when i-1 comes
        before i in w."""
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

        for w, c in self.terms.items():
            sw = compose(si, w)
            if w.index(i - 1) < w.index(i):
                bump(sw, c)
            else:
                bump(sw, _Q * c)
                bump(w, _Q_MINUS_ONE * c)
        return HeckeElement(n, out)

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        self._check(other)
        out = {}
        for u, c in self.terms.items():
            part = other.scale(c)
            for i in reversed(reduced_word(u)):
                part = part._gen_left(i)
            vec_iadd(out, part.terms)
        return HeckeElement(self.n, out)


def t_inverse(n, i):
    """T_i^{-1} = q^{-1} T_i - (1 - q^{-1}), from the quadratic relation."""
    qinv = Laurent.q(-1)
    return HeckeElement(n, {simple(n, i): qinv}) - (_ONE - qinv)


def evaluation_X(n):
    """The commuting evaluation elements [X_1, ..., X_n] with X_1 = 1 and
    X_{i+1} = q^{-1} T_i X_i T_i."""
    qinv = Laurent.q(-1)
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
        out.append((tinv * out[-1] * tinv).scale(_Q))
    return out


# ---------------------------------------------------------------------------
# relation reports
# ---------------------------------------------------------------------------

class RelationCheck(NamedTuple):
    """One relation instance; ``witness`` is the repr of the nonzero
    difference lhs - rhs when the relation fails, None when it holds."""

    family: str
    n: int
    indices: tuple
    passed: bool
    witness: str | None = None


def _relation(family, n, indices, *sides):
    """Check the identities sides[0] = sides[1], sides[2] = sides[3], ...
    in order; the witness is the first nonzero difference."""
    for lhs, rhs in zip(sides[::2], sides[1::2]):
        diff = lhs - rhs
        if diff:
            return RelationCheck(family, n, indices, False, repr(diff))
    return RelationCheck(family, n, indices, True)


def _braid_relations(n, T):
    """The braid relations of the generators T[1] .. T[n-1], distant
    pairs first; both presentations share them."""
    checks = []
    for i in range(1, n):
        for j in range(i + 2, n):
            checks.append(_relation("distant_braid", n, (i, j), T[i] * T[j], T[j] * T[i]))
    for i in range(1, n - 1):
        checks.append(_relation(
            "braid", n, (i, i + 1),
            T[i] * T[i + 1] * T[i], T[i + 1] * T[i] * T[i + 1]))
    return checks


def _x_relations(n, T, X):
    """X[1] .. X[n] commute with each other, and X[i] with every T[j]
    except T[i-1] and T[i]; both presentations share these relations."""
    checks = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            checks.append(_relation("X_commute", n, (i, j), X[i] * X[j], X[j] * X[i]))
    for i in range(1, n + 1):
        for j in range(1, n):
            if i - j in (0, 1):
                continue
            checks.append(_relation("X_T_commute", n, (i, j), X[i] * T[j], T[j] * X[i]))
    return checks


def verify_degenerate(n):
    """All degenerate presentation relations with T_i = s_i and X_k the
    Jucys-Murphy elements, as exact group-algebra identities."""
    if n < 2:
        raise ValueError("need n >= 2")
    T = {i: GroupAlgebraElement.from_perm(simple(n, i)) for i in range(1, n)}
    X = {k: jucys_murphy(n, k) for k in range(1, n + 1)}
    one = GroupAlgebraElement.one(n)
    checks = [_relation("involution", n, (i,), T[i] * T[i], one) for i in range(1, n)]
    checks += _braid_relations(n, T)
    checks += _x_relations(n, T, X)
    for i in range(1, n):
        checks.append(_relation(
            "crossing", n, (i,),
            X[i + 1] * T[i], T[i] * X[i] + one))
    return checks


def verify_nondegenerate(n):
    """All nondegenerate presentation relations over Z[q, q^-1] in the
    evaluation representation, as exact identities in the T_w basis."""
    if n < 2:
        raise ValueError("need n >= 2")
    T = {i: HeckeElement.T(simple(n, i)) for i in range(1, n)}
    X = dict(enumerate(evaluation_X(n), start=1))
    Xinv = dict(enumerate(evaluation_X_inverses(n), start=1))
    one = HeckeElement.one(n)
    checks = [_relation("quadratic", n, (i,),
                        (T[i] + one) * (T[i] - one.scale(_Q)), HeckeElement.zero(n))
              for i in range(1, n)]
    checks += _braid_relations(n, T)
    for i in range(1, n + 1):
        checks.append(_relation(
            "laurent", n, (i,),
            X[i] * Xinv[i], one, Xinv[i] * X[i], one))
    checks += _x_relations(n, T, X)
    for i in range(1, n):
        checks.append(_relation(
            "crossing", n, (i,),
            T[i] * X[i] * T[i], X[i + 1].scale(_Q)))
    return checks


def xbar(n):
    """The bridge elements Xbar_i = (1 - X_i)/(1 - q) over Z[q, q^-1].

    Every coefficient of 1 - X_i is divided exactly by 1 - q; the
    division raises InexactDivisionError when it is not exact, so a returned
    Xbar_i is a proof that it is regular at q = 1.
    """
    one = HeckeElement.one(n)
    return [
        HeckeElement(n, {p: c.div_by_one_minus_q() for p, c in (one - x).terms.items()})
        for x in evaluation_X(n)
    ]


def specialize_at_one(h):
    """Evaluate every coefficient at q = 1, landing in the group algebra
    over Z."""
    return GroupAlgebraElement(h.n, {p: c.at_one() for p, c in h.terms.items()})


def degeneration_check(n):
    """The bridge identities tying the two presentations together.

    Over Z[q, q^-1]: T_i + T_i Xbar_i T_i = q Xbar_{i+1} exactly, where
    Xbar_i = (1 - X_i)/(1 - q) exists because 1 - q divides every
    coefficient of 1 - X_i (``xbar`` raises InexactDivisionError otherwise).
    At q = 1 the Xbar_i specialize to the Jucys-Murphy elements, and the
    degenerate crossing relation 1 + T_i Xbar_i = Xbar_{i+1} T_i holds
    in the group algebra.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    xb = xbar(n)
    T = {i: HeckeElement.T(simple(n, i)) for i in range(1, n)}
    checks = []
    for i in range(1, n):
        checks.append(_relation(
            "bridge", n, (i,),
            T[i] + T[i] * xb[i - 1] * T[i], xb[i].scale(_Q)))
    for i in range(1, n + 1):
        checks.append(_relation(
            "xbar_at_one", n, (i,),
            specialize_at_one(xb[i - 1]), jucys_murphy(n, i)))
    one = GroupAlgebraElement.one(n)
    for i in range(1, n):
        ti = GroupAlgebraElement.from_perm(simple(n, i))
        jm_i, jm_next = jucys_murphy(n, i), jucys_murphy(n, i + 1)
        checks.append(_relation(
            "crossing_at_one", n, (i,),
            one + ti * jm_i, jm_next * ti))
    return checks

"""Exact scalars and sparse linear algebra over Q, Z[q, q^-1] and Q(q).

Scalars are ``int``, ``fractions.Fraction`` (exact rationals),
:class:`Laurent` (Laurent polynomials in one indeterminate ``q`` with
integer coefficients) or :class:`RatFunc` (reduced fractions of
polynomials in ``q`` with rational coefficients, denominator monic).
Vectors are dicts ``key -> scalar`` and matrices are sparse maps
``(row, col) -> scalar``, zeros absent from both.

``vec_iadd`` is the one accumulator: every sparse combination of the
library (sl2 label vectors, group-algebra and Hecke terms, Heisenberg
monomials, random kernel combinations) is summed into a dict through it.
``SparseMat.from_columns`` is the one builder of a matrix from sparse
columns keyed by labels.  The profiled hot loops keep the add-and-drop-
zero rule inline, because a call per entry would cost time there:
``SparseMat.__matmul__``, ``SparseMat.apply``, ``_integer_rows`` and
``_echelon`` here, ``adelman._system``, ``hecke.HeckeElement._gen_left``,
and ``heisenberg._fold`` and ``_rewrite``.  ``enright._formal_matrices``
also writes its matrices by hand: it is the independent class-level
oracle that the module matrices are compared against.

A value is a ``Fraction`` only when it is not integral.  Back
substitution runs in integers: ``nullspace`` never builds a ``Fraction``,
and ``solve`` returns one only for a non-integral coordinate.  Every
integral structure constant (identity matrices, the sl2 actions, the
Casimir, the closed-form coefficients) is a plain ``int``, and
``scalar_str`` renders both kinds the same way.

``Laurent`` is the coefficient ring of the Hecke algebra: every
structure constant there lies in Z[q, q^-1], so its arithmetic needs no
gcd.  Its one division, by 1 - q, is exact or raises ArithmeticError.
``RatFunc`` normalises by a polynomial gcd on every operation and no
library module uses it; it stays as the independent Q(q) oracle the
tests check ``Laurent`` against.

``nullspace``, ``solve``, ``solve_each`` and ``generalized_kernel``
all run one sparse integer echelon routine on matrices with ``int`` or
``Fraction`` entries (anything else raises ``TypeError``); ``Fraction``
entries arrive when a solution of ``solve`` enters a later system.  Each row becomes a ``{col: int}`` dict scaled by
the lcm of its denominators (a row of ints is taken as it is); each
right-hand side of ``solve_each`` is one extra column, so systems that
share a matrix share one elimination.  Rows are bucketed by leading
column, columns are taken in increasing order, and the shortest row of
a bucket is the pivot that clears that column from the others.
Every new row is divided by the gcd of its entries, so intermediate
values stay small integers.  Back substitution stays in integers too:
it keeps integer numerators over one common denominator, scaled by
p / gcd(s, p) whenever a pivot p does not divide the sum s it must
take.  A kernel vector then only loses its content and sign; a
solution is divided by the denominator once, at the end.
``_back_substitute`` also serves the band maps of ``enright``, whose
rows are an echelon form as they stand, with no elimination.

Which row serves as pivot cannot change a result.  Column c holds a
pivot exactly when it is not in the span of the columns before it (the
column rank profile), a property of the matrix and not of the row
order.  Given the pivot columns, the kernel vector with one free
coordinate 1 and the others 0 is unique, and so is the solution with
every free coordinate 0.  Kernel vectors are finally scaled to integer
entries with gcd 1 and positive defining free coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

__all__ = [
    "Laurent",
    "as_integer",
    "RatFunc",
    "SparseMat",
    "nullspace",
    "solve",
    "solve_each",
    "generalized_kernel",
    "vec_iadd",
    "vec_add",
    "vec_sub",
    "vec_scale",
    "normalize_integer_vector",
    "scalar_str",
]


# ---------------------------------------------------------------------------
# polynomials in q over Q, as tuples of Fractions (low degree first)
# ---------------------------------------------------------------------------

def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _pscale(c, a):
    if c == 0:
        return ()
    return _ptrim(c * x for x in a)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(rem) >= len(b):
        c = rem[-1] / lead
        k = len(rem) - len(b)
        quo[k] = c
        for i, y in enumerate(b):
            rem[k + i] -= c * y
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
    return _ptrim(quo), _ptrim(rem)


def _pgcd(a, b):
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    if a:
        a = _pscale(1 / a[-1], a)  # monic
    return a


def _peval(a, value):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * value + c
    return acc


def _pstr(a, low=0):
    """a[i] is the coefficient of q^(low + i)."""
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a, low):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("q" if c == 1 else ("-q" if c == -1 else f"{c}*q"))
        else:
            parts.append(
                f"q^{i}" if c == 1 else (f"-q^{i}" if c == -1 else f"{c}*q^{i}")
            )
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


class RatFunc:
    """A rational function in q over Q, kept fully reduced.

    The denominator is monic and nonzero; numerator and denominator are
    coprime.  Equality is therefore plain structural equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=(Fraction(1),)):
        num = _ptrim(Fraction(x) for x in num)
        den = _ptrim(Fraction(x) for x in den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            g = _pgcd(num, den)
            if len(g) > 1:
                num, _ = _pdivmod(num, g)
                den, _ = _pdivmod(den, g)
            lead = den[-1]
            if lead != 1:
                num = _pscale(1 / lead, num)
                den = _pscale(1 / lead, den)
        else:
            den = (Fraction(1),)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c):
        return RatFunc((Fraction(c),))

    @staticmethod
    def q(power=1):
        if power >= 0:
            return RatFunc((0,) * power + (1,))
        return RatFunc((1,), (0,) * (-power) + (1,))

    @staticmethod
    def _lift(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc.const(x)
        return NotImplemented

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = RatFunc._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(_pneg(self.num), self.den)

    def __sub__(self, other):
        other = RatFunc._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = RatFunc._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return RatFunc._lift(other) / self

    def __pow__(self, k):
        if k < 0:
            return (RatFunc.const(1) / self) ** (-k)
        out = RatFunc.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        return RatFunc.const(1) / self

    # -- predicates ---------------------------------------------------
    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = RatFunc._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def at(self, value):
        """Evaluate at q = value; the denominator must not vanish there."""
        d = _peval(self.den, Fraction(value))
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={value}")
        return _peval(self.num, Fraction(value)) / d

    def __repr__(self):
        if self.den == (Fraction(1),):
            return _pstr(self.num)
        return f"({_pstr(self.num)})/({_pstr(self.den)})"


# ---------------------------------------------------------------------------
# Laurent polynomials in q over Z
# ---------------------------------------------------------------------------

def as_integer(x):
    """x as an int; raises TypeError unless x is an int or an integral Fraction."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise TypeError(f"expected an integer, not {x!r}")


def scalar_str(x):
    """Exact scalar (int or Fraction) as a string: decimal for integers,
    num/den otherwise."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _laurent(low, coeffs):
    """The Laurent polynomial sum coeffs[k] q^(low + k) from a list of
    ints, trimming zeros at both ends."""
    lo, hi = 0, len(coeffs)
    while lo < hi and not coeffs[lo]:
        lo += 1
    while hi > lo and not coeffs[hi - 1]:
        hi -= 1
    out = object.__new__(Laurent)
    out.low = low + lo if lo < hi else 0
    out.coeffs = tuple(coeffs[lo:hi])
    return out


class Laurent:
    """A Laurent polynomial in q with integer coefficients.

    ``coeffs[k]`` is the coefficient of ``q^(low + k)``.  Both ends of
    ``coeffs`` are nonzero and zero has ``low == 0``, so equality is plain
    structural equality.  Instances are immutable.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, coeffs=(), low=0):
        made = _laurent(low, [as_integer(x) for x in coeffs])
        self.low, self.coeffs = made.low, made.coeffs

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c):
        return _laurent(0, [as_integer(c)])

    @staticmethod
    def q(power=1):
        return _laurent(power, [1])

    @staticmethod
    def _lift(x):
        if isinstance(x, Laurent):
            return x
        if isinstance(x, (int, Fraction)):
            return Laurent.const(x)
        return NotImplemented

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = Laurent._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        lo = min(self.low, other.low)
        hi = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        out = [0] * (hi - lo)
        for k, x in enumerate(self.coeffs, self.low - lo):
            out[k] = x
        for k, x in enumerate(other.coeffs, other.low - lo):
            out[k] += x
        return _laurent(lo, out)

    __radd__ = __add__

    def __neg__(self):
        return _laurent(self.low, [-x for x in self.coeffs])

    def __sub__(self, other):
        other = Laurent._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = Laurent._lift(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _laurent(0, [])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        # Z has no zero divisors, so both ends of the product are nonzero
        return _laurent(self.low + other.low, out)

    __rmul__ = __mul__

    def div_by_one_minus_q(self):
        """The exact quotient self / (1 - q).

        Raises ArithmeticError when 1 - q does not divide self, that is
        when self does not vanish at q = 1.  The quotient's coefficients
        are the running sums of self's.
        """
        sums, acc = [], 0
        for x in self.coeffs:
            acc += x
            sums.append(acc)
        if acc:
            raise ArithmeticError(f"1 - q does not divide {self!r}")
        return _laurent(self.low, sums[:-1])

    # -- predicates ---------------------------------------------------
    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Laurent):
            return self.low == other.low and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.low == 0 and self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        if self.low == 0 and len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)  # as the int
        return hash((self.low, self.coeffs))

    def at(self, value):
        """Evaluate at q = value as an exact Fraction; raises
        ZeroDivisionError at q = 0 when a negative power is present."""
        v = Fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc * v**self.low if self.low else acc

    def __repr__(self):
        return _pstr(self.coeffs, self.low)


# ---------------------------------------------------------------------------
# sparse vectors: plain dicts index -> scalar, zeros absent
# ---------------------------------------------------------------------------

def vec_iadd(out, v, c=1):
    """Add c * v into the sparse vector out in place and return out.

    Zeros are never stored: a key whose sum vanishes is deleted, and a
    key absent from out takes c * x as it is, so no coefficient pays for
    0 + x.  This is the one accumulator of sparse combinations.
    """
    for k, x in (v.items() if c == 1 else ((k, c * x) for k, x in v.items())):
        old = out.get(k)
        if old is not None:
            x = old + x
        if x:
            out[k] = x
        elif old is not None:
            del out[k]
    return out


def vec_add(u, v):
    return vec_iadd(dict(u), v)


def vec_sub(u, v):
    return vec_iadd(dict(u), v, -1)


def vec_scale(c, u):
    if not c:
        return {}
    return {k: c * x for k, x in u.items()}


def _scaled_to_int(u):
    """A dict of ints and Fractions scaled by the lcm of its denominators
    to a dict of ints, building no ``Fraction``; a dict of ints is
    returned as it is.  Raises TypeError on any other entry."""
    for x in u.values():
        if type(x) is not int:
            break
    else:
        return u
    for x in u.values():
        if not isinstance(x, (int, Fraction)):
            raise TypeError(
                f"exact arithmetic needs int or Fraction entries, not {type(x).__name__}")
    den = lcm(*(x.denominator for x in u.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in u.items()}


def normalize_integer_vector(u):
    """Scale a rational vector to integer entries with gcd 1.

    The sign is fixed by making the highest-indexed nonzero coordinate
    positive; for kernel vectors produced by back substitution that is
    the defining free coordinate.  Keys must be sortable.  Entries are
    ints or Fractions (anything else raises TypeError), scaled as by
    ``_scaled_to_int``, so a vector of ints (as ``nullspace`` builds)
    only loses its content and sign.
    """
    if not u:
        return {}
    ints = _scaled_to_int(u)
    g = gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    return {k: x // g for k, x in ints.items()}


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------

def _sparse_mat(rows, cols, entries):
    """A SparseMat on entries that are in range and nonzero by
    construction, taken as they are: the results of ``@``, ``+`` and
    ``scale`` skip the constructor's per-entry checks."""
    out = object.__new__(SparseMat)
    out.rows, out.cols, out.entries = rows, cols, entries
    return out


class SparseMat:
    """Sparse matrix with exact scalar entries, zeros never stored.

    The constructor checks every entry's position (``IndexError`` out of
    range) and drops zeros."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), val in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) out of range {rows}x{cols}")
                if val:
                    self.entries[r, c] = val

    @staticmethod
    def identity(n):
        return SparseMat(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def from_columns(index, columns):
        """The len(index) x len(columns) matrix whose column j is the
        sparse vector columns[j], the entry at key k going to row
        index[k]; index is a dict, or a range for integer keys.  A key
        outside index raises."""
        return SparseMat(len(index), len(columns), {
            (index[k], j): x for j, col in enumerate(columns) for k, x in col.items()})

    @staticmethod
    def from_rows(rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        ent = {}
        for i, row in enumerate(rows_list):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, x in enumerate(row):
                if x:
                    ent[i, j] = x
        return SparseMat(rows, cols, ent)

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in addition")
        return _sparse_mat(self.rows, self.cols, vec_add(self.entries, other.entries))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not c:
            return _sparse_mat(self.rows, self.cols, {})
        return _sparse_mat(self.rows, self.cols, {k: c * x for k, x in self.entries.items()})

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        by_row = {}
        for (i, j), x in other.entries.items():
            by_row.setdefault(i, []).append((j, x))
        ent = {}
        for (i, k), x in self.entries.items():
            for j, y in by_row.get(k, ()):
                key = (i, j)
                z = ent.get(key, 0) + x * y
                if z:
                    ent[key] = z
                else:
                    ent.pop(key, None)
        return _sparse_mat(self.rows, other.cols, ent)

    def apply(self, vec):
        """Matrix times sparse column vector (dict col -> scalar)."""
        out = {}
        for (i, j), x in self.entries.items():
            c = vec.get(j)
            if c:
                out[i] = out.get(i, 0) + x * c
        return {i: y for i, y in out.items() if y}

    def __repr__(self):
        return f"SparseMat({self.rows}x{self.cols}, {len(self.entries)} entries)"


# ---------------------------------------------------------------------------
# elimination: one sparse integer echelon routine
# ---------------------------------------------------------------------------

def _primitive(row):
    """Divide an integer row by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _integer_rows(m, rhss=()):
    """Nonzero rows of [m | rhss] as primitive {col: int} dicts.

    Each row is scaled by ``_scaled_to_int``; the entries of the k-th
    right-hand side become the extra column m.cols + k.  Raises TypeError
    on an entry that is neither int nor Fraction.
    """
    rows = {}
    for (i, j), x in m.entries.items():
        rows.setdefault(i, {})[j] = x
    for col, rhs in enumerate(rhss, m.cols):
        for i, x in rhs.items():
            if x:
                rows.setdefault(i, {})[col] = x
    return [_primitive(_scaled_to_int(row)) for row in rows.values()]


def _echelon(rows):
    """Sparse fraction-free row echelon form of primitive integer rows.

    Rows are bucketed by leading column and the columns are taken in
    increasing order.  The shortest row of a bucket becomes its pivot;
    every other row r is replaced by the primitive part of a*r - b*pivot,
    where a and b are the pivot's and r's leading entries divided by their
    gcd, and re-bucketed by its new leading column.  Returns the echelon
    rows as (pivot column, row) pairs in increasing pivot column.
    """
    buckets = {}
    for row in rows:
        buckets.setdefault(min(row), []).append(row)
    heap = list(buckets)
    heapify(heap)
    echelon = []
    while heap:
        c = heappop(heap)
        bucket = buckets.pop(c)
        pivot = min(bucket, key=len)
        echelon.append((c, pivot))
        p = pivot[c]
        for row in bucket:
            if row is pivot:
                continue
            g = gcd(p, row[c])
            a, b = p // g, row[c] // g
            new = {j: a * x for j, x in row.items()}
            for j, x in pivot.items():
                y = new.get(j, 0) - b * x
                if y:
                    new[j] = y
                else:
                    del new[j]
            if new:
                new = _primitive(new)
                lead = min(new)
                if lead in buckets:
                    buckets[lead].append(new)
                else:
                    buckets[lead] = [new]
                    heappush(heap, lead)
    return echelon


def _back_substitute(echelon, x, rhs):
    """Integer back substitution through (pivot column, row) pairs,
    taken from the end of the list: the last pivot first for echelon
    rows, the first row first for a band map listed in reverse.

    x holds integer numerators over a common denominator d > 0, starting
    from d = 1; column rhs of a row (absent for a kernel) is its
    right-hand side.  Each pivot column pc with row entry p takes the
    value s / p, where s is the row's right-hand side minus the row's
    sum over x, scaled by d.  When p does not divide s, x and d are
    first multiplied by p / gcd(s, p), which makes the new numerator an
    integer.  Returns (x, d); x's keys are the initial ones followed by
    the pivots whose values are nonzero, in the order they were taken.
    """
    d = 1
    for pc, row in reversed(echelon):
        s = row.get(rhs, 0) * d
        for j, a in row.items():
            if j in x:
                s -= a * x[j]
        if s:
            p = row[pc]
            g = gcd(s, p)
            if p < 0:
                g = -g
            if g != p:
                f = p // g
                x = {j: f * v for j, v in x.items()}
                d *= f
            x[pc] = s // g
    return x, d


def nullspace(m):
    """Basis of ker(m), one sparse vector per free column.

    Each basis vector has ``int`` entries with gcd 1 and its defining
    free coordinate positive; no ``Fraction`` is built on the way.  The
    empty list means the map is injective.
    Raises TypeError unless every entry is an int or a Fraction.
    """
    echelon = _echelon(_integer_rows(m))
    pivots = {c for c, _ in echelon}
    basis = []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        x, _ = _back_substitute(echelon, {fc: 1}, m.cols)
        basis.append(normalize_integer_vector(x))
    return basis


def solve(m, b):
    """Some x with m @ x = b, or None when b is outside the image.

    b is a sparse vector over row indices; raises ValueError when an
    index of b lies outside the row range, and TypeError unless every
    entry of m and b is an int or a Fraction.  The solution has every
    free coordinate 0; a coordinate is an ``int`` when it is integral and
    a ``Fraction`` only otherwise (see ``_back_substitute``).
    """
    return solve_each(m, [b])[0]


def solve_each(m, bs):
    """[solve(m, b) for b in bs], from one elimination of [m | b1 ... bk].

    An echelon row leading in a b column says 0 = a nonzero combination
    of b's, so every b it touches is outside the image.  Each other b is
    back substituted through the rows leading in m, whose pivots are m's
    own; with free coordinates 0, each answer is what ``solve`` gives.
    """
    for b in bs:
        for i in b:
            if not (0 <= i < m.rows):
                raise ValueError(f"right-hand side index {i} out of range for {m.rows} rows")
    echelon = _echelon(_integer_rows(m, bs))
    inconsistent = set()
    while echelon and echelon[-1][0] >= m.cols:
        inconsistent.update(echelon.pop()[1])
    out = []
    for col, b in enumerate(bs, m.cols):
        if col in inconsistent:
            out.append(None)
            continue
        x, d = _back_substitute(echelon, {}, col)
        out.append({j: v // d if v % d == 0 else Fraction(v, d) for j, v in x.items()})
    return out


def generalized_kernel(m):
    """The two-step kernel of a square matrix m: (kernel, excess).

    ``kernel`` is a basis of ker(m) and ``excess`` extends it to a basis
    of ker(m @ m).  Every excess vector v satisfies m v != 0 and
    m (m v) = 0, which is checked before returning.
    """
    if m.rows != m.cols:
        raise ValueError("generalized kernel needs a square matrix")
    kernel = nullspace(m)
    big = nullspace(m @ m)
    # extend `kernel` to a basis of the larger space, keeping the order of
    # `big`: the excess vectors are the pivot columns of [kernel | big]
    # that lie in `big`
    columns = kernel + big
    stacked = SparseMat.from_columns(range(m.cols), columns)
    excess = [columns[c] for c, _ in _echelon(_integer_rows(stacked)) if c >= len(kernel)]
    for v in excess:
        image = m.apply(v)
        if not image:
            raise AssertionError("excess vector lies in the plain kernel")
        if m.apply(image):
            raise AssertionError("excess vector survives the square")
    return kernel, excess

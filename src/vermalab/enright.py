"""Index sets, highest weight vectors, projective generators, and audits.

Everything here concerns the tensor product Ln (x) Verma(0) and its
decomposition into projective covers T_r and Verma modules V_s.  The
two computational pillars are

- the closed-form coefficient list ``p_coefficients`` for the highest
  weight vector of weight s, certified by substitution into the rows of
  e on the weight-s slice,
- the kernel line u = f^(s+1) u_s of the shifted Casimir M, certified
  the same way, and the solution of M x = u, the second step of its
  Jordan block, which produce the projective generator together with
  its five-term coefficient recurrence and the positivity shift.

A weight slice of Ln (x) V0 is the diagonal of the v_i (x) w_k with
n - 2i - 2k = mu, and every slice vector here -- a highest weight
vector, a kernel line, a generator -- is keyed by the slice index i
alone, as the paper writes its coefficients p_i and q_i; k = (n-mu)/2 - i
is derived only where a report prints it.  The slices and the closed-form
maps of e and f on them come from ``sl2mod``, the module layer below;
the Casimir map of a slice is written here, in closed form from the
coproduct, with no tensor module built, as a list of ``{column: int}``
rows like e's.  Both are band maps: an entry (r, c) has c <= r + 1, and
the superdiagonal m[r, r+1] is n-r for e and 4(n-r) for C - c, nonzero
on every slice.  So the rows fix a kernel vector from its first
coordinate: ker e and ker M are at most lines, each spanned by any
nonzero vector the rows kill.  ``_slice_solve`` reads the one solution
of M x = u by forward substitution through ``exactla.back_substitute``,
the device behind the two-term alpha and five-term beta recurrences: no
square M^2 is formed and no elimination runs.  Every walk down by f is
a ``sl2mod.f_tower``.  A projective generator's kernel line is the
highest weight vector u_s pushed down s + 1 weights, and the record
keeps that tower f^j u_s beside the highest weight record, so callers
need no second walk: ``sl2mod.build_Tr`` realizes T_r from it.  The
Casimir audit of ``casimir_blocks`` solves nothing either.  It
substitutes the tops of the f-towers that realize T_r, the highest
weight vectors and the shifted generators, into the rows of C - c_t
once each, and checks once per slice edge that C commutes with f, which
is injective; so every block below a top is certified.  Below the first
edge that fails, and for a top that fails, it substitutes the tower
vectors as they come.  The records can be handed in, so a caller that
already built them builds no generator twice.

All checks are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from typing import NamedTuple

from .exactla import (
    back_substitute,
    normalize_integer_vector,
    vec_add,
    vec_iadd,
    vec_scale,
    vec_sub,
)
from .sl2mod import (
    UsageError,
    apply_op,
    apply_rows,
    casimir_on_vector,
    commutes_with_f,
    e_weight_matrix,
    f_tower,
    tensor_weight_basis,
)

__all__ = [
    "IndexSets",
    "HwvRecord",
    "ProjGenRecord",
    "index_sets",
    "p_coefficients",
    "highest_weight_vector",
    "alpha_recursion_check",
    "projective_generator",
    "beta_recursion_residuals",
    "decomposition_audit",
    "casimir_blocks",
    "pseudoadjoint_check",
    "casimir_weight_matrix",
]


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

class IndexSets(NamedTuple):
    n: int
    I: tuple
    Iprime: tuple
    Idoubleprime: tuple
    Itripleprime: tuple


def _mirror(r, lam):
    """The index whose weight lam + mirror is -(lam + r) - 2, the
    reflection of the weight lam + r about -1."""
    return -(lam + r) - 2 - lam


def index_sets(n, lam=0):
    """Partition of the weights of Ln controlling the decomposition of
    Ln (x) Verma(lam).

    I' holds the projective indices r (lam + r >= 0 and the mirror index
    lies in I), I'' their mirrors, and I''' the leftover pure-Verma
    indices.  The three sets are asserted to be a disjoint partition of I.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    I = list(range(-n, n + 1, 2))
    iset = set(I)
    iprime = [r for r in I if lam + r >= 0 and _mirror(r, lam) in iset]
    idouble = sorted(_mirror(r, lam) for r in iprime)
    paired = set(iprime) | set(idouble)
    itriple = [t for t in I if t not in paired]
    if len(iprime) + len(idouble) + len(itriple) != len(I):
        raise AssertionError(f"index sets fail to partition I for n={n}, lam={lam}")
    return IndexSets(n, tuple(I), tuple(iprime), tuple(idouble), tuple(itriple))


# ---------------------------------------------------------------------------
# Casimir slices, the slice solve and the certificate
# ---------------------------------------------------------------------------

def casimir_weight_matrix(n, mu, c=0):
    """Rows of (Casimir - c) on the full weight-mu slice of Ln (x) V0,
    from Delta(Omega) = Omega(x)1 + 1(x)Omega + 2h(x)h + 4e(x)f + 4f(x)e
    with Omega = n(n+2) on Ln and 0 on V0.  Column (i, k), at index i,
    holds n(n+2) - 4(n-2i)k - c on the diagonal, 4(n-i+1) at (i-1, k+1)
    and -4(i+1)k(k-1) at (i+1, k-1).  Returns the rows, row r a
    ``{column: int}`` dict without zeros."""
    basis = tensor_weight_basis(n, mu)
    rows = [{} for _ in basis]
    for i, k in basis:
        if i > 0:
            rows[i - 1][i] = 4 * (n - i + 1)
        diagonal = n * (n + 2) - 4 * (n - 2 * i) * k - c
        if diagonal:
            rows[i][i] = diagonal
        if i < n and k > 1:
            rows[i + 1][i] = -4 * (i + 1) * k * (k - 1)
    return rows


def _slice_solve(rows, b, n, mu):
    """The solution of m x = lam b for the square slice map m with these
    rows: [x] for some lam != 0, or [] when there is none.

    Row r of m has no entry beyond column r + 1, and the closed form of
    ``casimir_weight_matrix`` never leaves m[r, r+1] zero.  The first
    d - 1 rows of a slice of dimension d are then an echelon form, so
    ``exactla.back_substitute``, given them last first with b as the extra
    column d, fixes x one coordinate at a time from x_0 = 0.  The rows
    below only have to agree.  When m has a kernel vector k, the solutions
    of the first rows are x + t k, and whether the rows below agree does
    not depend on t.  x is checked by m x = lam b (AssertionError naming n
    and mu) and comes back with integer entries, gcd 1 and its last
    nonzero entry positive.
    """
    cols = len(rows)
    echelon = [(r + 1, {**rows[r], cols: b[r]} if r in b else rows[r])
               for r in reversed(range(cols - 1))]
    x, lam = back_substitute(echelon, {}, cols)
    residual = vec_sub(apply_rows(rows, x), vec_scale(lam, b))
    if any(r < cols - 1 for r in residual):
        raise AssertionError(
            f"slice solution does not satisfy the slice map at n={n}, mu={mu}")
    return [] if residual else [normalize_integer_vector(x)]


def _certificate_residual(rows, vec):
    """None when vec != 0 and M vec = 0 for the slice map M with these
    rows.  Otherwise the residual that fails: vec itself when it is zero
    (an empty dict), M vec when it is not."""
    if not vec:
        return {}
    return apply_rows(rows, vec) or None


# ---------------------------------------------------------------------------
# highest weight vectors
# ---------------------------------------------------------------------------

def p_coefficients(n, r):
    """Closed-form coefficient list for the highest weight vector of
    weight -r-2, as positive integers p_0 .. p_{(n+r)/2}.

    p_i = 4^{(n+r)/2-i} (n+r+2)/(n+r-2i+2)
          prod_{j<i} (n+r-2j)^2  prod_{nu=i}^{(n+r-2)/2} (n-nu)

    with the empty-product convention for i = 0.
    """
    if (n + r) % 2 != 0:
        raise ValueError(f"n+r must be even, got n={n}, r={r}")
    half = (n + r) // 2
    if half < 0:
        raise ValueError(f"(n+r)/2 must be nonnegative, got {half}")
    out = []
    for i in range(half + 1):
        num = 4 ** (half - i) * (n + r + 2)
        for j in range(i):
            num *= (n + r - 2 * j) ** 2
        for nu in range(i, half):  # nu runs to (n+r-2)/2 inclusive
            num *= n - nu
        den = n + r - 2 * i + 2
        val, rem = divmod(num, den)
        if rem or val <= 0:
            raise AssertionError(
                f"p_{i} is not a positive integer for n={n}, r={r}: {num}/{den}")
        out.append(val)
    return out


class HwvRecord(NamedTuple):
    n: int
    s: int
    coefficients: dict  # slice index i -> positive int, gcd 1
    p_list: list        # closed-form values, proportional to the above


def highest_weight_vector(n, s):
    """The unique (up to scalar) vector of weight s killed by e.

    The closed form ``p_coefficients(n, -s-2)`` by slice index (v_0 (x) w_0
    at s = n), normalized to positive integers with gcd 1 and certified by
    substitution: u != 0 and e u = 0 on the rows of ``e_weight_matrix(n,
    s)``, whose nonzero superdiagonal n - r makes the e-kernel at most a
    line, so u spans it.
    """
    sets = index_sets(n, 0)
    allowed = set(sets.Iprime) | set(sets.Itripleprime)
    if s not in allowed:
        raise UsageError(f"no highest weight vector expected at weight {s} for n={n}")
    p_list = [1] if s == n else p_coefficients(n, -s - 2)
    coeffs = normalize_integer_vector(dict(enumerate(p_list)))
    if _certificate_residual(e_weight_matrix(n, s), coeffs) is not None:
        raise AssertionError(
            f"closed-form highest weight vector is zero or not killed by e at n={n}, s={s}")
    return HwvRecord(n=n, s=s, coefficients=coeffs, p_list=p_list)


def hwv_recursion_residuals(n, mu, coefficients):
    """Residuals a_{i+1} (n-i) - a_i (k+1) k along the weight-mu diagonal,
    k = (n-mu)/2 - (i+1) being the w-index of position i+1.

    ``coefficients`` maps the slice index i to scalars.  Zero residuals
    mean the vector satisfies the highest-weight coefficient recurrence.
    """
    out = []
    for i in range(max(coefficients, default=-1) + 1):
        k = (n - mu) // 2 - (i + 1)
        if k < 0:
            break
        out.append(coefficients.get(i + 1, 0) * (n - i) - coefficients.get(i, 0) * (k + 1) * k)
    return out


def alpha_recursion_check(record):
    """Exact residual list for a highest weight record, plus a seed check.

    The seed check compares the closed form's leading value against
    4^{(n+r)/2} prod_{nu=(n-r+2)/2}^{n} nu with r = -s-2; the record's
    own coefficients are gcd-normalized, so only the closed-form list is
    held to the seed.
    """
    residuals = hwv_recursion_residuals(record.n, record.s, record.coefficients)
    if record.s != record.n:
        n, r = record.n, -record.s - 2
        seed = 4 ** ((n + r) // 2)
        for nu in range((n - r + 2) // 2, n + 1):
            seed *= nu
        if record.p_list[0] != seed:
            raise AssertionError(
                f"closed-form seed mismatch at n={n}, s={record.s}: "
                f"{record.p_list[0]} != {seed}")
    return residuals


# ---------------------------------------------------------------------------
# projective generators
# ---------------------------------------------------------------------------

class ProjGenRecord(NamedTuple):
    # q_list, p_list and final are slice vectors in full: by slice index
    # i = 0 .. top = (n+s)/2, the k = 0 boundary i = top + 1 left at zero
    n: int
    s: int
    c: int
    q_list: list         # canonical pre-shift generator a
    p_list: list         # normalized kernel line u = f^{s+1} u_s
    m_shift: int
    final: list          # shifted generator q_i + m p_i, all positive
    omega_minus_c: list  # rows of the shifted Casimir, {column: int} dicts
    beta_residuals: list
    hwv: HwvRecord       # the highest weight record u_s comes from
    tower: list          # f^j u_s for j <= s + 1; tower[0] is hwv.coefficients


def projective_generator(n, s):
    """Canonical generator of the projective cover inside the tensor slice.

    On the weight-(-s-2) slice the shifted Casimir M = Casimir - s(s+2)
    has the kernel line u = f^(s+1) u_s, the highest weight vector pushed
    down s + 1 weights (``sl2mod.f_tower``) and scaled to integers with
    gcd 1, certified by substitution: u != 0 and M u = 0 on the rows of
    ``casimir_weight_matrix``, whose nonzero superdiagonal 4(n-r) makes
    ker M at most a line.  On top of it is a one-dimensional second-order
    kernel, the solutions of M x = lam u (one ``_slice_solve``).  The
    representative is fixed by: support in slice indices i <= top =
    (n+s)/2, the coefficient at top equal to u's, and the remaining
    freedom resolved by the smallest positive multiple giving integer
    entries with gcd 1.  The excess direction z is the line of ker M^2
    whose coordinate at top vanishes; u's coordinate there is p_top > 0,
    so z does not depend on the solution that came back.  Neither u nor
    the generator may reach the k = 0 boundary top + 1.  The shift
    m = max(0, 1 - q_i // p_i) leaves each q_i + m p_i >= p_i, so the
    check that every p_i > 0 covers the shifted generator too.
    """
    sets = index_sets(n, 0)
    if s not in sets.Iprime:
        raise UsageError(f"s={s} is not a projective index for n={n}")
    hwv = highest_weight_vector(n, s)
    c = s * (s + 2)
    mu = -s - 2
    rows = casimir_weight_matrix(n, mu, c)
    top = (n + s) // 2
    tower = list(islice(f_tower(n, [hwv.coefficients]), s + 2))
    u = normalize_integer_vector(tower[-1])
    p_list = [u.get(j, 0) for j in range(top + 1)]
    if any(p <= 0 for p in p_list):
        raise AssertionError("kernel line coefficients expected positive")
    if _certificate_residual(rows, u) is not None:
        raise AssertionError(
            f"f-power image is not killed by the shifted Casimir at n={n}, s={s}")
    excess = _slice_solve(rows, u, n, mu)
    if not excess:
        raise AssertionError(f"excess space at n={n}, s={s} has dimension 0")
    x = excess[0]
    z = normalize_integer_vector(vec_sub(vec_scale(x.get(top, 0), u), vec_scale(p_list[-1], x)))

    sigma = None
    for cand in range(1, 1001):
        if math.gcd(*vec_add(u, vec_scale(cand, z)).values()) == 1:
            sigma = cand
            break
    if sigma is None:
        raise AssertionError("no admissible generator multiple found")
    a = vec_add(u, vec_scale(sigma, z))
    if max(u) > top or max(a) > top:
        raise AssertionError(
            f"kernel line or generator support leaks onto the k=0 boundary at n={n}, s={s}")

    image = apply_rows(rows, a)
    if not image:
        raise AssertionError("candidate generator lies in the plain kernel")
    if apply_rows(rows, image):
        raise AssertionError("candidate generator not killed by the squared operator")

    q_list = [a.get(j, 0) for j in range(top + 1)]
    # 1 - q // p == 1 + ceil(-q / p) for p > 0
    m_shift = max([0] + [1 - q // p for q, p in zip(q_list, p_list)])
    final = [q + m_shift * p for q, p in zip(q_list, p_list)]

    record = ProjGenRecord(
        n=n, s=s, c=c, q_list=q_list, p_list=p_list, m_shift=m_shift, final=final,
        omega_minus_c=rows, beta_residuals=beta_recursion_residuals(n, s, final), hwv=hwv,
        tower=tower,
    )
    if any(record.beta_residuals):
        raise AssertionError(f"five-term recurrence fails at n={n}, s={s}")
    return record


def _beta_terms(n, i, k):
    """The five coefficient polynomials of the squared-Casimir recurrence
    at position (i, k), for the neighbours (i-2 .. i+2) on the diagonal."""
    t1 = (i - 1) * i * k * (k + 1) ** 2 * (k + 2)
    t2 = -(i * k * (k + 1) * (2 * i * (n + 2 - i) - (n + 2) - 2 * k * k))
    t3 = ((i * (n - i + 1) - k * (k - 1)) ** 2
          - i * k * (k + 1) * (n - i + 1)
          - (i + 1) * (k - 1) * k * (n - i))
    t4 = (n - i) * (n + 2 * i * (n - i) - 2 * (k - 1) ** 2)
    t5 = (n - i - 1) * (n - i)
    return t1, t2, t3, t4, t5


def beta_recursion_residuals(n, s, coefficients):
    """Residuals of the five-term recurrence on the weight-(-s-2) diagonal,
    one per slice position (i, k = (n+s+2)/2 - i).

    ``coefficients`` lists the scalars by slice index i; positions past
    its end count as zero.  A vector killed by the square of the shifted
    Casimir yields an all-zero list.
    """
    def beta(i):
        return coefficients[i] if 0 <= i < len(coefficients) else 0

    out = []
    for (i, k) in tensor_weight_basis(n, -s - 2):
        t1, t2, t3, t4, t5 = _beta_terms(n, i, k)
        out.append(beta(i - 2) * t1 + beta(i - 1) * t2 + beta(i) * t3
                   + beta(i + 1) * t4 + beta(i + 2) * t5)
    return out


# ---------------------------------------------------------------------------
# decomposition and Casimir audits
# ---------------------------------------------------------------------------

def _mult_T(r, mu):
    """Weight multiplicity of the projective cover T_r at mu."""
    if (mu - r) % 2 != 0 or mu > r:
        return 0
    return 2 if mu <= -r - 2 else 1


def _mult_V(s, mu):
    """Weight multiplicity of the Verma module V_s at mu."""
    return 1 if (mu - s) % 2 == 0 and mu <= s else 0


class AuditRow(NamedTuple):
    mu: int
    lhs: int
    rhs: int


def decomposition_audit(n, depth):
    """Per-weight dimension audit of Ln (x) V0 against its decomposition.

    For every weight mu whose slice is complete at the given depth, the
    tensor dimension must match the sum of the T_r and V_s multiplicities
    read off the index sets.
    """
    sets = index_sets(n, 0)
    rows = []
    for j in range(depth + 1):
        mu = n - 2 * j
        lhs = len(tensor_weight_basis(n, mu))
        rhs = sum(_mult_T(r, mu) for r in sets.Iprime)
        rhs += sum(_mult_V(s, mu) for s in sets.Itripleprime)
        rows.append(AuditRow(mu=mu, lhs=lhs, rhs=rhs))
    return rows


class CasimirBlock(NamedTuple):
    t: int
    c: int
    predicted_kernel: int
    predicted_excess: int
    kernel_residual: dict | None  # None when the kernel certificate holds
    excess_residual: dict | None  # None when it holds or no excess is predicted

    @property
    def kernel_dim(self):
        """The certified dimension of ker M: 1 when k_t certifies it, else 0."""
        return int(self.kernel_residual is None)

    @property
    def excess_dim(self):
        """The certified dimension of ker M^2 / ker M: the predicted one
        when x_t certifies it, else 0."""
        return self.predicted_excess if self.excess_residual is None else 0

    @property
    def matches(self):
        """Whether the kernel and excess dimensions are the predicted ones."""
        return (self.kernel_dim, self.excess_dim) == (self.predicted_kernel, self.predicted_excess)


class CasimirBlockReport(NamedTuple):
    n: int
    mu: int
    blocks: list
    no_stray_eigenvalues: bool

    @property
    def failed_checks(self):
        """The failing checks: "span" when the blocks leave room for another
        eigenvalue or a longer Jordan block, and "dimensions" when a block's
        kernel or excess dimension differs from its prediction."""
        return [name for name, passed in (
            ("span", self.no_stray_eigenvalues),
            ("dimensions", all(b.matches for b in self.blocks)),
        ) if not passed]

    @property
    def ok(self):
        return not self.failed_checks


def casimir_blocks(n, depth, records=None):
    """Generalized eigenstructure of the Casimir C on the full weight
    slices mu = n, n-2, ..., n-2*depth: one report per slice, in order.

    Each T_r and V_s present at mu predicts the eigenvalue c_t = t(t+2)
    with a one-dimensional kernel, and T_r also one excess vector where
    mu <= -r-2; the 1 + ex_t over the predicted excesses ex_t sum to the
    dimension audit's rhs.  No slice is solved.  Each prediction is
    certified in the rows of M = C - c_t on vectors of two f-towers
    (``sl2mod.f_tower``), the spans of f^k u and f^k a that realize T_r:

    - kernel: k_t = f^((t-mu)/2) u_t for the highest weight vector u_t,
      with k_t != 0 and M k_t = 0;
    - excess, where ex_t = 1: x_t = f^((-t-2-mu)/2) a_t for the shifted
      projective generator a_t (``final``), with y = M x_t != 0 and M y = 0.

    Only the tops, u_t at mu = t and a_t at mu = -t-2, are substituted
    (projective_generator checked the unshifted a, not a_t).  Below them
    the certificates follow from one check per edge mu -> mu-2: C_(mu-2) f
    = f C_mu on the unit vectors of slice mu (``sl2mod.commutes_with_f``,
    on C's columns at c = 0).  M_t = C - c_t by the diagonal of
    ``casimir_weight_matrix``'s closed form, so M_t f^j v = f^j M_t v; and
    f is injective, for (f v)_i = v_i + i v_(i-1) keeps v's lowest nonzero
    coordinate.  So M kills f^j u_t != 0 and M x_t = f^j M a_t != 0.
    Below the first edge that fails, and for a t whose top fails or that
    has no record, every block is substituted, its towers walked only
    then: each verdict and residual is the substitution's.

    So dim ker M^2 >= 1 + ex_t.  The c_t are pairwise distinct
    (t(t+2) = t'(t'+2) only for t' = -t-2, and I''' holds no mirror of
    I'), so the spaces ker (C - c_t)^2 are independent and their
    dimensions sum to at most the dimension of the slice.  When the
    1 + ex_t sum to that dimension and every certificate holds, each
    ker (C - c_t)^2 has dimension exactly 1 + ex_t, with ker M the line of
    k_t: no stray eigenvalue and no Jordan block longer than 2.  A failing
    certificate keeps its residual as the block's witness.

    records maps t to the record its towers start from, built when None:
    the projective generator of t in I' and the highest weight record of
    t in I'''.  A t with no record fails its blocks with empty residuals.
    """
    sets = index_sets(n, 0)
    tops = sorted(set(sets.Iprime) | set(sets.Itripleprime))
    if len({t * (t + 2) for t in tops}) != len(tops):
        raise AssertionError(f"two predicted indices at n={n} share a Casimir eigenvalue")
    if records is None:
        records = {t: (projective_generator if t in sets.Iprime else highest_weight_vector)(n, t)
                   for t in tops}
    towers = {}  # (t, 0) for k_t, (t, 1) for x_t: [its f-tower, the j of the tower's next vector]
    proven = {}  # the same keys: whether the certificate at the tower's top holds
    commuting, above = True, None  # every edge so far commutes with f; C's columns at mu + 2
    reports = []
    for j in range(depth + 1):
        mu = n - 2 * j
        if commuting:
            columns = [{} for _ in tensor_weight_basis(n, mu)]
            for r, row in enumerate(casimir_weight_matrix(n, mu)):
                for i, x in row.items():
                    columns[i][r] = x
            commuting, above = above is None or commutes_with_f(n, above, columns), columns
        if mu in records:
            towers[mu, 0] = [f_tower(n, records[mu].tower if mu in sets.Iprime
                                     else [records[mu].coefficients]), j]
        if -mu - 2 in records and -mu - 2 in sets.Iprime:
            towers[-mu - 2, 1] = [f_tower(n, [dict(enumerate(records[-mu - 2].final))]), j]
        preds = [(r, _mult_T(r, mu) - 1) for r in sets.Iprime if _mult_T(r, mu)]
        preds += [(s, 0) for s in sets.Itripleprime if _mult_V(s, mu)]
        blocks = []
        for t, ex in sorted(preds):
            c, rows, residuals = t * (t + 2), None, [None, None]
            for key in [(t, 0), (t, 1)][:1 + ex]:
                if commuting and proven.get(key):
                    continue
                rows = rows or casimir_weight_matrix(n, mu, c)
                tower = towers.get(key) or [repeat({}), j]  # no record: the zero vector
                vec, tower[1] = next(islice(tower[0], j - tower[1], None)), j + 1
                residuals[key[1]] = _certificate_residual(
                    rows, apply_rows(rows, vec) if key[1] else vec)
                proven.setdefault(key, residuals[key[1]] is None)
            blocks.append(CasimirBlock(t=t, c=c, predicted_kernel=1, predicted_excess=ex,
                                       kernel_residual=residuals[0], excess_residual=residuals[1]))
        spanned = sum(1 + ex for _, ex in preds) == len(tensor_weight_basis(n, mu))
        reports.append(CasimirBlockReport(
            n=n, mu=mu, blocks=blocks,
            no_stray_eigenvalues=spanned and all(b.matches for b in blocks)))
    return reports


# ---------------------------------------------------------------------------
# the functor-level identity at the representation level
# ---------------------------------------------------------------------------

_B_WORDS = (("efef", 1), ("fefe", 1), ("ef", 2), ("fe", 2))
_C_WORDS = (("effe", 1), ("feef", 1))


# every suffix of the six words, shorter first: 12 letters to apply to a
# vector where the words spell out 20
_SUFFIXES = sorted({word[i:] for word, _ in _B_WORDS + _C_WORDS for i in range(len(word))},
                   key=lambda word: (len(word), word))


def _b_and_c(module, vec):
    """[B vec, C vec], each suffix of their words applied to vec once."""
    images = {"": vec}
    for word in _SUFFIXES:  # the rightmost letter acts first
        images[word] = apply_op(module, word[0], images[word[1:]])
    out = []
    for words in (_B_WORDS, _C_WORDS):
        combo = {}
        for word, mult in words:
            vec_iadd(combo, images[word], mult)
        out.append(combo)
    return out


class PseudoadjointReport(NamedTuple):
    kind: str
    c: int
    margin: int
    labels_checked: int
    identity_zero: bool
    casimir_match: bool
    failures: list


def pseudoadjoint_check(module, c, margin=8):
    """Exact check of B^2 + C^2 + 2cC + c^2 = BC + CB + 2cB on the
    interior region, where B = (EF)^2 + (FE)^2 + 2EF + 2FE and
    C = EF^2E + FE^2F.

    Also cross-checks B - C against the Casimir operator, which is the
    identity the relation expands from.  The margin must cover the
    longest operator word (degree 8).
    """
    if not module.complete and module.depth < margin:
        raise UsageError(f"depth {module.depth} too small for margin {margin}")
    interior = module.interior(margin)
    images = {}  # label -> [B label, C label]: B and C are linear, so no label is pushed twice

    def b_and_c(vec):
        out = [{}, {}]
        for label, x in vec.items():
            if label not in images:
                images[label] = _b_and_c(module, {label: 1})
            for acc, image in zip(out, images[label]):
                vec_iadd(acc, image, x)
        return out

    failures = []
    for b in interior:
        v = {b: 1}
        Bv, Cv = b_and_c(v)
        BBv, CBv = b_and_c(Bv)
        BCv, CCv = b_and_c(Cv)
        lhs = vec_iadd(vec_iadd(vec_add(BBv, CCv), Cv, 2 * c), v, c * c)
        rhs = vec_iadd(vec_add(BCv, CBv), Bv, 2 * c)
        if lhs != rhs:
            failures.append(("identity", b))
        if vec_sub(Bv, Cv) != casimir_on_vector(module, v):
            failures.append(("casimir", b))
    kinds = {kind for kind, _ in failures}
    return PseudoadjointReport(
        kind=module.kind, c=c, margin=margin, labels_checked=len(interior),
        identity_zero="identity" not in kinds, casimir_match="casimir" not in kinds,
        failures=failures,
    )

"""Index sets, highest weight vectors, projective generators, and audits.

Everything here concerns the tensor product Ln (x) Verma(0) and its
decomposition into projective covers T_r and Verma modules V_s.  The
two computational pillars are

- the closed-form coefficient list ``p_coefficients`` for the highest
  weight vector of weight s, cross-checked against the kernel of e on
  the weight-s slice,
- the kernel line u of the shifted Casimir M on a weight slice and the
  solution of M x = u, the second step of its Jordan block, which
  produce the projective generator together with its five-term
  coefficient recurrence and the positivity shift.

The e and Casimir matrices of a weight slice are written in closed form
from the coproduct, with no tensor module built.  Every slice map
solved here is a band map: an entry (r, c) has c <= r + 1, and the
superdiagonal m[r, r+1] never vanishes (it is n-r for e and 4(n-r) for
M).  So ``_band_solve`` reads a kernel or a solution by forward
substitution, the device behind the two-term alpha and five-term beta
recurrences, no square M^2 is formed, and the elimination engine of
``exactla`` sees only maps that fail the band test.  f acts
on slice vectors in closed form (``_f_on_slice``), which is how the
f-power oracle of a projective generator pushes the highest weight
vector down, one weight at a time.  A projective generator keeps the
highest weight record it was checked against, so callers need no second
solve.

All checks are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exactla import (
    SparseMat,
    _back_substitute,
    generalized_kernel,
    normalize_integer_vector,
    nullspace,
    vec_add,
    vec_iadd,
    vec_scale,
    vec_sub,
)
from .sl2mod import apply_op, apply_word, build_tensor, casimir_on_vector

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
    "q_form_residuals",
    "decomposition_audit",
    "casimir_blocks",
    "pseudoadjoint_check",
    "decategorify",
    "tensor_weight_basis",
    "casimir_weight_matrix",
]


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

class IndexSets(NamedTuple):
    n: int
    lam: int
    I: tuple
    Iprime: tuple
    Idoubleprime: tuple
    Itripleprime: tuple


def index_sets(n, lam=0):
    """Partition of the weights of Ln controlling the decomposition of
    Ln (x) Verma(lam).

    I' holds the projective indices r (lam + r >= 0 and the mirror
    weight -(lam+r)-2-lam lies in I), I'' their mirrors, and I''' the
    leftover pure-Verma indices.  The three sets are asserted to be a
    disjoint partition of I.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    I = list(range(-n, n + 1, 2))
    iset = set(I)
    iprime = [r for r in I if lam + r >= 0 and -(lam + r) - 2 - lam in iset]
    idouble = sorted(-r - 2 * lam - 2 for r in iprime)
    itriple = [t for t in I if t not in set(iprime) and t not in set(idouble)]
    if len(iprime) + len(idouble) + len(itriple) != len(I):
        raise AssertionError(f"index sets fail to partition I for n={n}, lam={lam}")
    return IndexSets(n, lam, tuple(I), tuple(iprime), tuple(idouble), tuple(itriple))


# ---------------------------------------------------------------------------
# weight slices of the tensor module
# ---------------------------------------------------------------------------

def tensor_weight_basis(n, mu):
    """Pairs (i, k) with v_i (x) w_k of weight mu, ordered by i."""
    if (n - mu) % 2 != 0:
        return []
    out = []
    for i in range(n + 1):
        k = (n - mu) // 2 - i
        if k < 0:
            break
        out.append((i, k))
    return out


def casimir_weight_matrix(n, mu, c=0):
    """Matrix of (Casimir - c) on the full weight-mu slice of Ln (x) V0,
    from Delta(Omega) = Omega(x)1 + 1(x)Omega + 2h(x)h + 4e(x)f + 4f(x)e
    with Omega = n(n+2) on Ln and 0 on V0.  Column (i, k), at index i,
    holds n(n+2) - 4(n-2i)k - c on the diagonal, 4(n-i+1) at (i-1, k+1)
    and -4(i+1)k(k-1) at (i+1, k-1)."""
    basis = tensor_weight_basis(n, mu)
    entries = {}
    for i, k in basis:
        entries[i, i] = n * (n + 2) - 4 * (n - 2 * i) * k - c
        if i > 0:
            entries[i - 1, i] = 4 * (n - i + 1)
        if i < n and k > 1:
            entries[i + 1, i] = -4 * (i + 1) * k * (k - 1)
    return SparseMat(len(basis), len(basis), entries), basis


def _e_restriction_matrix(n, mu):
    """Matrix of e from the weight-mu slice to the weight-(mu+2) slice,
    sending (i, k), at index i in both, to (n-i+1)(i-1, k) - k(k-1)(i, k-1)."""
    basis = tensor_weight_basis(n, mu)
    entries = {}
    for i, k in basis:
        if i > 0:
            entries[i - 1, i] = n - i + 1
        if k > 1:
            entries[i, i] = -k * (k - 1)
    return SparseMat(len(tensor_weight_basis(n, mu + 2)), len(basis), entries), basis


def _f_on_slice(n, vec):
    """f on a slice vector keyed by i, into the slice one weight lower:
    (i, k), at index i in both, goes to (i+1)(i+1, k) + (i, k+1)."""
    out = {}
    for i, x in vec.items():
        out[i] = out.get(i, 0) + x
        if i < n:
            out[i + 1] = out.get(i + 1, 0) + (i + 1) * x
    return {i: x for i, x in out.items() if x}


def _band_solve(m, b, n, mu):
    """The band solution of m x = lam b: [x] for some lam != 0 (for
    m x = 0 when b is empty), [] when there is none, or None when m is
    off the band.

    m is on the band when its entries are ints, every entry (r, c) has
    c <= r + 1, and m[r, r+1] != 0 for r + 1 < m.cols.  Its first
    m.cols - 1 rows are then an echelon form, row r with its pivot r + 1
    as its last entry, so ``exactla._back_substitute``, given them last
    first with b as the extra column m.cols, fixes x one coordinate at a
    time: from x_0 = 1 for a kernel, from x_0 = 0 for a solve.  The rows
    below only have to agree.  So dim ker m <= 1, and when m has a kernel
    vector k, a solve is exact: the solutions of the first rows are
    x + t k, and whether the rows below agree does not depend on t.  x is
    checked by m x = lam b (AssertionError naming n and mu) and comes
    back with integer entries, gcd 1 and its last nonzero entry positive.
    """
    cols = m.cols
    rows = [{} for _ in range(m.rows)]
    for (r, c), a in m.entries.items():
        if c > r + 1 or type(a) is not int:
            return None
        rows[r][c] = a
    if not all(m[r, r + 1] for r in range(cols - 1)):
        return None
    for r, a in b.items():
        rows[r][cols] = a
    x, lam = _back_substitute([(r + 1, rows[r]) for r in reversed(range(cols - 1))],
                              {} if b else {0: 1}, cols)
    residual = vec_sub(m.apply(x), vec_scale(lam, b))
    if any(r < cols - 1 for r in residual):
        raise AssertionError(
            f"band solution does not satisfy the slice map at n={n}, mu={mu}")
    return [] if residual else [normalize_integer_vector(x)]


def _casimir_kernels(m, n, mu):
    """(kernel, excess) of a shifted Casimir slice map m, with the meaning
    of ``generalized_kernel``: kernel spans ker m, and excess extends it
    to a basis of ker m^2.  On the band, ker m is a line u or nothing, and
    m^2 y = 0 says m y = lam u, so the excess is the band solution of
    m x = lam u, and the square of m is never formed.  A map off the band
    goes to ``generalized_kernel``."""
    kernel = _band_solve(m, {}, n, mu)
    if kernel is None:
        return generalized_kernel(m)
    return kernel, _band_solve(m, kernel[0], n, mu) if kernel else []


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
    coefficients: dict  # (i, k) -> positive int, gcd 1
    p_list: list        # closed-form values, proportional to the above
    basis: list


def highest_weight_vector(n, s):
    """The unique (up to scalar) vector of weight s killed by e.

    Solved as the kernel of e restricted to the weight-s slice, by forward
    substitution along its band (``_band_solve``, with ``nullspace`` for a
    map that is not banded), which is asserted to be one-dimensional,
    normalized to positive integers with gcd 1, and checked against the
    closed form when one exists.
    """
    sets = index_sets(n, 0)
    allowed = set(sets.Iprime) | set(sets.Itripleprime)
    if s not in allowed:
        raise ValueError(f"no highest weight vector expected at weight {s} for n={n}")
    mat, basis = _e_restriction_matrix(n, s)
    ker = _band_solve(mat, {}, n, s)
    if ker is None:
        ker = nullspace(mat)
    if len(ker) != 1:
        raise AssertionError(
            f"e-kernel at weight {s} has dimension {len(ker)}, expected 1 (n={n})")
    vec = ker[0]
    coeffs = {basis[j]: c for j, c in vec.items()}
    if any(c <= 0 for c in coeffs.values()):
        raise AssertionError(f"highest weight coefficients not positive at n={n}, s={s}")

    if s == n:
        p_list = [1]
    else:
        p_list = p_coefficients(n, -s - 2)
        support = [b for b in basis if b in coeffs]
        if len(support) != len(p_list):
            raise AssertionError(
                f"support size {len(support)} does not match closed form {len(p_list)}")
        for j in range(len(p_list)):
            a = coeffs.get(basis[j], 0)
            if a * p_list[0] != coeffs[basis[0]] * p_list[j]:
                raise AssertionError(
                    f"oracle kernel not proportional to closed form at n={n}, s={s}")
    return HwvRecord(n=n, s=s, coefficients=coeffs, p_list=p_list, basis=basis)


def hwv_recursion_residuals(n, coefficients):
    """Residuals a_{i+1,k} (n-i) - a_{i,k+1} (k+1) k along a weight diagonal.

    ``coefficients`` maps (i, k) to scalars, all on a single diagonal
    n - 2i - 2k = const.  Zero residuals mean the vector satisfies the
    highest-weight coefficient recurrence.
    """
    if not coefficients:
        return []
    diag = {i: (k, coefficients[(i, k)]) for (i, k) in coefficients}
    imax = max(diag)
    sample_i, (sample_k, _) = next(iter(diag.items()))
    level = n - 2 * sample_i - 2 * sample_k
    out = []
    for i in range(0, imax + 1):
        k = (n - level) // 2 - (i + 1)  # w-index of position i+1
        if k < 0:
            continue
        a_next = diag.get(i + 1, (None, 0))[1]
        a_cur = diag.get(i, (None, 0))[1]
        out.append(a_next * (n - i) - a_cur * (k + 1) * k)
    return out


def alpha_recursion_check(record):
    """Exact residual list for a highest weight record, plus a seed check.

    The seed check compares the closed form's leading value against
    4^{(n+r)/2} prod_{nu=(n-r+2)/2}^{n} nu with r = -s-2; the record's
    own coefficients are gcd-normalized, so only the closed-form list is
    held to the seed.
    """
    residuals = hwv_recursion_residuals(record.n, record.coefficients)
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
    n: int
    s: int
    c: int
    basis: list          # weight-slice pairs (i, k), i ascending
    q_list: list         # canonical generator coefficients, support j <= (n+s)/2
    p_list: list         # normalized coefficients of f^{s+1} u_s (the kernel line)
    m_shift: int
    final: list          # q_j + m p_j, all positive
    a_vector: dict       # canonical pre-shift generator, keyed (i, k)
    kernel_vector: dict  # normalized u_{-s-2}, keyed (i, k)
    final_vector: dict   # shifted generator, keyed (i, k)
    omega_minus_c: SparseMat
    beta_residuals: list
    q_residuals: list
    hwv: HwvRecord       # the highest weight record u_s was checked against


def projective_generator(n, s):
    """Canonical generator of the projective cover inside the tensor slice.

    On the weight-(-s-2) slice the shifted Casimir (Casimir - s(s+2)) has
    a one-dimensional kernel (the image of the highest weight vector
    under f^{s+1}) and a one-dimensional second-order kernel on top of
    it, the solutions of M x = lam u for the kernel vector u; both come
    from ``_casimir_kernels``.  The representative is fixed by: support
    in positions j <= (n+s)/2, the coefficient at ((n+s)/2, 1) equal to
    the kernel vector's, and the remaining freedom resolved by the
    smallest positive multiple giving integer entries with gcd 1.  The
    excess direction z is the line of ker M^2 whose ((n+s)/2, 1)
    coordinate vanishes; the kernel vector's coordinate there is the
    closed-form p_top > 0, so z does not depend on the excess vector that
    came back.
    """
    sets = index_sets(n, 0)
    if s not in sets.Iprime:
        raise ValueError(f"s={s} is not a projective index for n={n}")
    hwv = highest_weight_vector(n, s)
    c = s * (s + 2)
    mu = -s - 2
    mat, basis = casimir_weight_matrix(n, mu, c)
    kernel, excess = _casimir_kernels(mat, n, mu)
    if len(kernel) != 1:
        raise AssertionError(f"kernel of shifted Casimir at weight {mu} is {len(kernel)}-dimensional")
    if len(excess) != 1:
        raise AssertionError(f"excess space at n={n}, s={s} has dimension {len(excess)}")

    u = kernel[0]
    # cross-check against the f-power oracle, keyed by i on each slice
    u_oracle = {i: c for (i, _), c in hwv.coefficients.items()}
    for _ in range(s + 1):
        u_oracle = _f_on_slice(n, u_oracle)
    if normalize_integer_vector(u_oracle) != u:
        raise AssertionError("f-power image disagrees with the Casimir kernel line")

    pin = basis.index(((n + s) // 2, 1))
    b0, b1 = kernel + excess
    z = normalize_integer_vector(
        vec_sub(vec_scale(b1.get(pin, 0), b0), vec_scale(b0.get(pin, 0), b1)))

    sigma = None
    for cand in range(1, 1001):
        if math.gcd(*vec_add(u, vec_scale(cand, z)).values()) == 1:
            sigma = cand
            break
    if sigma is None:
        raise RuntimeError("no admissible generator multiple found")
    a = vec_add(u, vec_scale(sigma, z))

    image = mat.apply(a)
    if not image:
        raise AssertionError("candidate generator lies in the plain kernel")
    if mat.apply(image):
        raise AssertionError("candidate generator not killed by the squared operator")

    top = (n + s) // 2
    last = basis.index((top + 1, 0))
    if a.get(last):
        raise AssertionError("generator support leaks onto the k=0 boundary")

    q_list = [a.get(j, 0) for j in range(top + 1)]
    p_list = [u.get(j, 0) for j in range(top + 1)]
    if any(p <= 0 for p in p_list):
        raise AssertionError("kernel line coefficients expected positive")

    # 1 - q // p == 1 + ceil(-q / p) for p > 0
    m_shift = max([0] + [1 - q // p for q, p in zip(q_list, p_list)])
    final = [q + m_shift * p for q, p in zip(q_list, p_list)]
    if any(x <= 0 for x in final):
        raise AssertionError("shifted coefficients are not all positive")

    def keyed(vec):
        return {basis[j]: x for j, x in vec.items()}

    final_vec = vec_add(a, vec_scale(m_shift, u))
    record = ProjGenRecord(
        n=n, s=s, c=c, basis=basis,
        q_list=q_list, p_list=p_list, m_shift=m_shift, final=final,
        a_vector=keyed(a), kernel_vector=keyed(u), final_vector=keyed(final_vec),
        omega_minus_c=mat,
        beta_residuals=beta_recursion_residuals(n, s, keyed(final_vec)),
        q_residuals=q_form_residuals(n, s, final),
        hwv=hwv,
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
    """Residuals of the five-term recurrence on the weight-(-s-2) diagonal.

    ``coefficients`` maps (i, k) with n - 2i - 2k = -s-2 to scalars;
    missing positions count as zero.  A vector killed by the square of
    the shifted Casimir yields an all-zero list.
    """
    def beta(i, k):
        if i < 0 or i > n or k < 0:
            return 0
        return coefficients.get((i, k), 0)

    out = []
    for (i, k) in tensor_weight_basis(n, -s - 2):
        t1, t2, t3, t4, t5 = _beta_terms(n, i, k)
        out.append(
            beta(i - 2, k + 2) * t1
            + beta(i - 1, k + 1) * t2
            + beta(i, k) * t3
            + beta(i + 1, k - 1) * t4
            + beta(i + 2, k - 2) * t5
        )
    return out


def q_form_residuals(n, s, q_list):
    """The same recurrence read through the single-index coefficients
    q_i with k = (n - 2i + s + 2)/2; reported alongside the two-index
    form but not independently asserted."""
    def q(i):
        if 0 <= i < len(q_list):
            return q_list[i]
        return 0

    out = []
    for i in range((n + s) // 2 + 2):
        k = (n - 2 * i + s + 2) // 2
        if k < 0:
            continue
        t1, t2, t3, t4, t5 = _beta_terms(n, i, k)
        out.append(q(i - 2) * t1 + q(i - 1) * t2 + q(i) * t3 + q(i + 1) * t4 + q(i + 2) * t5)
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
    kernel_dim: int
    excess_dim: int

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


def casimir_blocks(n, mu):
    """Generalized eigenstructure of the Casimir C on a full weight slice.

    Each T_r and V_s present at mu predicts the eigenvalue c_t = t(t+2)
    with a one-dimensional kernel, and T_r also one excess vector where
    mu <= -r-2.  With M = C - c_t, the block's kernel dimension
    dim ker M and excess dimension dim ker M^2 - dim ker M are the
    lengths of the kernel and excess of ``_casimir_kernels``; on the band
    dim ker M <= 1, and the excess dimension is [u in im M] for the
    kernel vector u.  The c_t are pairwise distinct (t(t+2) = t'(t'+2)
    only for t' = -t-2, and I''' holds no mirror of I'), so the spaces
    ker (C - c_t)^2 are independent.  Their dimensions sum to the
    dimension of the slice exactly when they fill it, that is exactly
    when the product of the commuting, pairwise coprime (C - c_t)^2 is
    zero: no stray eigenvalue and no Jordan block longer than 2.
    """
    sets = index_sets(n, 0)
    dim = len(tensor_weight_basis(n, mu))
    preds = [(r, int(mu <= -r - 2)) for r in sets.Iprime if _mult_T(r, mu)]
    preds += [(s, 0) for s in sets.Itripleprime if _mult_V(s, mu)]
    if len({t * (t + 2) for t, _ in preds}) != len(preds):
        raise AssertionError(f"two predicted indices at n={n}, mu={mu} share a Casimir eigenvalue")
    blocks = []
    for t, ex in sorted(preds):
        c = t * (t + 2)
        shifted, _ = casimir_weight_matrix(n, mu, c)
        kernel, excess = _casimir_kernels(shifted, n, mu)
        blocks.append(CasimirBlock(t=t, c=c, predicted_kernel=1, predicted_excess=ex,
                                   kernel_dim=len(kernel), excess_dim=len(excess)))
    return CasimirBlockReport(
        n=n, mu=mu, blocks=blocks,
        no_stray_eigenvalues=sum(b.kernel_dim + b.excess_dim for b in blocks) == dim,
    )


# ---------------------------------------------------------------------------
# the functor-level identity at the representation level
# ---------------------------------------------------------------------------

_B_WORDS = (("efef", 1), ("fefe", 1), ("ef", 2), ("fe", 2))
_C_WORDS = (("effe", 1), ("feef", 1))


def _apply_combo(module, words, vec):
    out = {}
    for word, mult in words:
        vec_iadd(out, apply_word(module, word, vec), mult)
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
        raise ValueError(f"depth {module.depth} too small for margin {margin}")
    interior = module.interior(margin)
    failures = []
    identity_zero = True
    casimir_match = True
    for b in interior:
        v = {b: 1}
        Bv = _apply_combo(module, _B_WORDS, v)
        Cv = _apply_combo(module, _C_WORDS, v)
        lhs = _apply_combo(module, _B_WORDS, Bv)
        lhs = vec_add(lhs, _apply_combo(module, _C_WORDS, Cv))
        lhs = vec_add(lhs, vec_scale(2 * c, Cv))
        lhs = vec_add(lhs, vec_scale(c * c, v))
        rhs = _apply_combo(module, _B_WORDS, Cv)
        rhs = vec_add(rhs, _apply_combo(module, _C_WORDS, Bv))
        rhs = vec_add(rhs, vec_scale(2 * c, Bv))
        if lhs != rhs:
            identity_zero = False
            failures.append(("identity", b))
        if vec_sub(Bv, Cv) != casimir_on_vector(module, v):
            casimir_match = False
            failures.append(("casimir", b))
    return PseudoadjointReport(
        kind=module.kind, c=c, margin=margin, labels_checked=len(interior),
        identity_zero=identity_zero, casimir_match=casimir_match, failures=failures,
    )


# ---------------------------------------------------------------------------
# split Grothendieck decategorification
# ---------------------------------------------------------------------------

class DecategorifyReport(NamedTuple):
    n: int
    depth: int
    bijective: bool
    f_intertwines: bool
    e_intertwines: bool
    hwv_classes: dict    # s -> bool, class of U_s maps to a highest weight vector
    generator_classes: dict  # r -> bool, class of the shifted generator works
    nonnegative_f: bool

    @property
    def ok(self):
        return (
            self.bijective and self.f_intertwines and self.e_intertwines
            and all(self.hwv_classes.values())
            and all(self.generator_classes.values())
            and self.nonnegative_f
        )


def _formal_matrices(n, depth):
    """Class-level matrices of [F] and [E] on the boxtimes basis,
    derived from the direct-sum expansion of the functors on classes:
    F sends the class (i, k) to (i+1) copies of (i+1, k) plus (i, k+1),
    and E sends it to (n-i+1) copies of (i-1, k) minus k(k-1) copies of
    (i, k-1)."""
    basis = [(i, k) for k in range(depth + 1) for i in range(n + 1)]
    basis_ext = [(i, k) for k in range(depth + 2) for i in range(n + 1)]
    pos = {b: j for j, b in enumerate(basis)}
    pos_ext = {b: j for j, b in enumerate(basis_ext)}
    f_ent = {}
    e_ent = {}
    for j, (i, k) in enumerate(basis):
        if i < n:
            f_ent[pos_ext[(i + 1, k)], j] = i + 1
        f_ent[pos_ext[(i, k + 1)], j] = 1
        if i > 0:
            e_ent[pos[(i - 1, k)], j] = n - i + 1
        if k >= 2:
            e_ent[pos[(i, k - 1)], j] = -k * (k - 1)
    F = SparseMat(len(basis_ext), len(basis), f_ent)
    E = SparseMat(len(basis), len(basis), e_ent)
    return basis, basis_ext, F, E


def decategorify(n, depth):
    """The class-to-vector map of the split Grothendieck group.

    Classes of the boxtimes objects correspond to tensor basis vectors
    one-to-one; the formal [F] and [E] matrices (so also [-E]) must
    coincide with the module action matrices, the class of U_s must land
    on a highest weight vector, and the class of the shifted projective
    generator on a vector with the two-step Casimir property.
    """
    mod = build_tensor(n, depth)
    basis, basis_ext, F, E = _formal_matrices(n, depth)
    bijective = (
        [(b[1], b[2]) for b in mod.basis] == basis
        and [(b[1], b[2]) for b in mod.basis_ext] == basis_ext
    )
    act_f = mod.act_matrix("f")
    f_ok = F == act_f
    e_ok = E == mod.act_matrix("e")

    sets = index_sets(n, 0)
    gens = {r: projective_generator(n, r) for r in sets.Iprime}
    hwv_ok = {}
    for s in sorted(set(sets.Iprime) | {n}):
        rec = gens[s].hwv if s in gens else highest_weight_vector(n, s)
        classes = {(j, (n - s) // 2 - j): p for j, p in enumerate(rec.p_list)}
        if any(m < 0 for m in classes.values()):
            hwv_ok[s] = False
            continue
        image = {("vw", i, k): m for (i, k), m in classes.items()}
        is_hwv = not apply_op(mod, "e", image)
        ratio_ok = all(
            classes[(j, (n - s) // 2 - j)] * rec.coefficients[rec.basis[0]]
            == rec.coefficients.get((j, (n - s) // 2 - j), 0) * classes[(0, (n - s) // 2)]
            for j in range(len(rec.p_list))
        )
        hwv_ok[s] = is_hwv and ratio_ok

    gen_ok = {}
    for r, rec in gens.items():
        image = {("vw", i, k): x for (i, k), x in rec.final_vector.items()}
        if any(x <= 0 for x in rec.final):
            gen_ok[r] = False
            continue
        shifted = vec_sub(casimir_on_vector(mod, image), vec_scale(rec.c, image))
        twice = vec_sub(casimir_on_vector(mod, shifted), vec_scale(rec.c, shifted))
        gen_ok[r] = bool(shifted) and not twice

    nonneg = all(x > 0 and x.denominator == 1 for x in act_f.entries.values())
    return DecategorifyReport(
        n=n, depth=depth, bijective=bijective,
        f_intertwines=f_ok, e_intertwines=e_ok,
        hwv_classes=hwv_ok, generator_classes=gen_ok, nonnegative_f=nonneg,
    )

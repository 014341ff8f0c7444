"""Reference routines that only the tests call; no verb of the library
needs them, so they stay out of ``src/``.

- ``from_rows`` and ``entry``: a SparseMat from dense rows, and one
  entry of it, zero where none is stored;
- ``rank`` and ``slice_matrix``: the elimination engine's view of a
  matrix and of a weight slice map given as rows;
- ``apply_word``: an e/f/h word applied letter by letter, and
  ``per_vector_pseudoadjoint_check``: the pseudoadjoint check that pushes
  every vector through the words of B and C, with no image kept;
- ``slice_kernel`` and ``solved_casimir_kernels``: the kernel of a band
  slice map by forward substitution, and the (kernel, excess) pair of a
  shifted Casimir slice, its kernel line and the solution of M x = u;
- ``solved_highest_weight_vector`` and ``solved_projective_generator``:
  the two sl2 records with their kernel lines solved, against which the
  closed forms that ``enright`` certifies are held;
- ``solved_casimir_blocks``: the Casimir audit of one weight slice by
  slice solves, against which ``enright.casimir_blocks`` and its
  certificates are held;
- ``substituted_casimir_blocks``: the Casimir audit that substitutes
  every f-tower vector, against which ``enright.casimir_blocks``, which
  substitutes only at the tower tops, is held field by field;
- ``casimir`` and ``verify_category_I``: the Casimir matrix of a
  truncated module and the membership criteria of Enright's category;
- ``decategorify``: the split Grothendieck class map of Ln (x) V0, with
  hand-written class-level matrices of [F] and [E] as the independent
  source the module matrices are compared against;
- ``FockPoly`` and ``fock_action``: the Fock representation of the
  Heisenberg algebra, b multiplying and a lowering;
- ``fuzz_words`` and ``fuzz_through_normal_form``: the words of the
  confluence fuzz, and the fuzz as three memoised ``normal_form`` calls
  per trial, with no verdict kept between trials;
- ``bucketed_rewrite``: the exchange rewriters on whole words, filed by
  inversion count, against which ``heisenberg._rewrite`` is held;
- ``inversions``: the length of a permutation;
- ``embed_morphism`` and ``zero_equivalent``: plain matrices as morphisms
  of matrix objects, and the zero test of the quotient category.
"""

import math
import random
from bisect import bisect_left
from itertools import islice
from typing import NamedTuple

from vermalab import enright
from vermalab.adelman import TripleMorphism, embed, homotopic_to_zero, identity_of
from vermalab.enright import (
    HwvRecord,
    ProjGenRecord,
    PseudoadjointReport,
    highest_weight_vector,
    index_sets,
    projective_generator,
)
from vermalab.exactla import (
    SparseMat,
    _echelon,
    _integer_rows,
    back_substitute,
    normalize_integer_vector,
    nullspace,
    vec_add,
    vec_iadd,
    vec_scale,
    vec_sub,
)
from vermalab.heisenberg import HElem, normal_form, word_inversions
from vermalab.sl2mod import (
    apply_op,
    apply_rows,
    build_tensor,
    casimir_on_vector,
    e_weight_matrix,
    f_tower,
    tensor_weight_basis,
)


def from_rows(rows_list):
    """The SparseMat of a list of equally long dense rows."""
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


def entry(m, r, c):
    """The (r, c) entry of a SparseMat, 0 where none is stored."""
    return m.entries.get((r, c), 0)


def rank(m):
    """Rank of a SparseMat with int or Fraction entries: the number of
    rows left by the library's echelon routine.  Raises TypeError on any
    other entry."""
    return len(_echelon(_integer_rows(m)))


def slice_matrix(rows, cols):
    """The SparseMat of a weight slice map given as ``{column: int}`` rows
    with cols columns, for the elimination engine and ``@``."""
    return SparseMat(len(rows), cols, {
        (r, c): x for r, row in enumerate(rows) for c, x in row.items()})


def slice_kernel(rows, cols):
    """ker m for the band slice map m with these rows and cols columns:
    [x] or [].  Row r has its last entry m[r, r+1] != 0, so the first
    cols - 1 rows, given last first to ``back_substitute``, fix x from
    x_0 = 1, and m has a kernel exactly when the rows below agree."""
    x, _ = back_substitute([(r + 1, rows[r]) for r in reversed(range(cols - 1))], {0: 1}, cols)
    residual = apply_rows(rows, x)
    assert all(r >= cols - 1 for r in residual)
    return [] if residual else [normalize_integer_vector(x)]


def solved_casimir_kernels(rows, n, mu):
    """(kernel, excess) of the rows of a shifted Casimir slice map m, with
    the meaning of ``exactla.generalized_kernel``: kernel spans ker m, and
    excess extends it to a basis of ker m^2.  ker m is a line u or
    nothing, and m^2 y = 0 says m y = lam u, so the excess is the solution
    of m x = lam u that ``enright._slice_solve`` gives."""
    kernel = slice_kernel(rows, len(rows))
    return kernel, enright._slice_solve(rows, kernel[0], n, mu) if kernel else []


def solved_highest_weight_vector(n, s):
    """``enright.highest_weight_vector(n, s)`` with its vector solved as
    the kernel of e on the weight-s slice: one-dimensional, positive, and
    proportional to the closed form, whose list the record keeps."""
    [u] = slice_kernel(e_weight_matrix(n, s), len(tensor_weight_basis(n, s)))
    p_list = [1] if s == n else enright.p_coefficients(n, -s - 2)
    assert all(x > 0 for x in u.values()) and sorted(u) == list(range(len(p_list)))
    assert all(u[j] * p_list[0] == u[0] * p for j, p in enumerate(p_list))
    return HwvRecord(n, s, u, p_list)


def solved_projective_generator(n, s):
    """``enright.projective_generator(n, s)`` with its kernel line u and
    its excess solved on the Casimir slice (``solved_casimir_kernels``),
    u held against f^(s+1) u_s, and the representative fixed as the
    library fixes it: a = u + sigma z for the line z of ker M^2 that
    vanishes at top and the least sigma > 0 that makes gcd(a) = 1."""
    hwv = solved_highest_weight_vector(n, s)
    c, mu, top = s * (s + 2), -s - 2, (n + s) // 2
    rows = enright.casimir_weight_matrix(n, mu, c)
    [u], [x] = solved_casimir_kernels(rows, n, mu)
    tower = list(islice(f_tower(n, [hwv.coefficients]), s + 2))
    assert normalize_integer_vector(tower[-1]) == u
    z = normalize_integer_vector(vec_sub(vec_scale(x.get(top, 0), u), vec_scale(u[top], x)))
    a = next(a for sigma in range(1, 1001)
             if math.gcd(*(a := vec_add(u, vec_scale(sigma, z))).values()) == 1)
    assert max(u) <= top and max(a) <= top
    p_list, q_list = ([v.get(j, 0) for j in range(top + 1)] for v in (u, a))
    m_shift = max([0] + [1 - q // p for q, p in zip(q_list, p_list)])
    final = [q + m_shift * p for q, p in zip(q_list, p_list)]
    return ProjGenRecord(n, s, c, q_list, p_list, m_shift, final, rows,
                         enright.beta_recursion_residuals(n, s, final), hwv, tower)


class SolvedSlice(NamedTuple):
    blocks: list  # (t, kernel dimension, excess dimension) by t
    spanned: bool  # the dimensions of the ker (C - c_t)^2 sum to the slice's


def solved_casimir_blocks(n, mu):
    """The Casimir audit of the weight-mu slice by slice solves, with no
    f-tower: for each predicted t, dim ker M and dim ker M^2 - dim ker M
    for M = C - t(t+2) read off the kernel line and the solution of
    M x = u (``solved_casimir_kernels``), and whether these dimensions sum
    to the dimension of the slice."""
    sets = index_sets(n, 0)
    preds = [r for r in sets.Iprime if enright._mult_T(r, mu)]
    preds += [s for s in sets.Itripleprime if enright._mult_V(s, mu)]
    blocks = []
    for t in sorted(preds):
        kernel, excess = solved_casimir_kernels(
            enright.casimir_weight_matrix(n, mu, t * (t + 2)), n, mu)
        blocks.append((t, len(kernel), len(excess)))
    total = sum(kernel + excess for _, kernel, excess in blocks)
    return SolvedSlice(blocks, total == len(tensor_weight_basis(n, mu)))


def substituted_casimir_blocks(n, depth, records=None):
    """``enright.casimir_blocks`` by substitution alone: the f-towers of
    the highest weight vectors and of the shifted generators carried down
    the slices one weight at a time, and every predicted block certified
    by substituting them into the rows of C - c_t, k_t != 0 with
    M k_t = 0 and y = M x_t != 0 with M y = 0.  A t with no record fails
    its blocks with empty residuals.  The library certifies each block at
    the top of its tower and at each edge mu -> mu - 2 that C commutes
    with f, and is held to these reports field by field."""
    sets = enright.index_sets(n, 0)
    tops = sorted(set(sets.Iprime) | set(sets.Itripleprime))
    if len({t * (t + 2) for t in tops}) != len(tops):
        raise AssertionError(f"two predicted indices at n={n} share a Casimir eigenvalue")
    if records is None:
        records = {t: (enright.projective_generator if t in sets.Iprime
                       else enright.highest_weight_vector)(n, t) for t in tops}
    kernels, excesses = {}, {}  # the towers of k_t and x_t, next() one weight down
    reports = []
    for j in range(depth + 1):
        mu = n - 2 * j
        if mu in records:
            kernels[mu] = f_tower(n, records[mu].tower if mu in sets.Iprime
                                  else [records[mu].coefficients])
        if -mu - 2 in records and -mu - 2 in sets.Iprime:
            excesses[-mu - 2] = f_tower(n, [dict(enumerate(records[-mu - 2].final))])
        kernel = {t: next(tower) for t, tower in kernels.items()}
        excess = {t: next(tower) for t, tower in excesses.items()}
        preds = [(r, enright._mult_T(r, mu) - 1) for r in sets.Iprime if enright._mult_T(r, mu)]
        preds += [(s, 0) for s in sets.Itripleprime if enright._mult_V(s, mu)]
        blocks = []
        for t, ex in sorted(preds):
            c = t * (t + 2)
            rows = enright.casimir_weight_matrix(n, mu, c)
            blocks.append(enright.CasimirBlock(
                t=t, c=c, predicted_kernel=1, predicted_excess=ex,
                kernel_residual=enright._certificate_residual(rows, kernel.get(t, {})),
                excess_residual=(enright._certificate_residual(
                    rows, apply_rows(rows, excess.get(t, {}))) if ex else None)))
        spanned = sum(1 + ex for _, ex in preds) == len(tensor_weight_basis(n, mu))
        reports.append(enright.CasimirBlockReport(
            n=n, mu=mu, blocks=blocks,
            no_stray_eigenvalues=spanned and all(b.matches for b in blocks)))
    return reports


# ---------------------------------------------------------------------------
# truncated modules: words, the pseudoadjoint check, the Casimir matrix and
# category membership
# ---------------------------------------------------------------------------

def apply_word(module, word, vec):
    """Apply a word in {'e','f','h'} with the rightmost letter acting first."""
    for op in reversed(word):
        vec = apply_op(module, op, vec)
    return vec


def per_vector_pseudoadjoint_check(module, c, margin=8):
    """``enright.pseudoadjoint_check`` with no image kept: for every
    interior label, B v, C v and then B and C of both are each pushed
    through the words by ``enright._b_and_c``."""
    if not module.complete and module.depth < margin:
        raise ValueError(f"depth {module.depth} too small for margin {margin}")
    interior = module.interior(margin)
    failures = []
    identity_zero = True
    casimir_match = True
    for b in interior:
        v = {b: 1}
        Bv, Cv = enright._b_and_c(module, v)
        BBv, CBv = enright._b_and_c(module, Bv)
        BCv, CCv = enright._b_and_c(module, Cv)
        lhs = vec_add(BBv, CCv)
        lhs = vec_add(lhs, vec_scale(2 * c, Cv))
        lhs = vec_add(lhs, vec_scale(c * c, v))
        rhs = vec_add(BCv, CBv)
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


def casimir(m):
    """Matrix of the Casimir operator h^2 + 2h + 4fe on the slice.

    Columns for labels outside the interior region with margin 2 may be
    truncated; everything inside is exact.
    """
    return SparseMat.from_columns(m.index, [
        {lbl: c for lbl, c in casimir_on_vector(m, {b: 1}).items() if lbl in m.index}
        for b in m.basis])


class CategoryIReport(NamedTuple):
    weights_diagonal: bool
    f_injective: bool
    e_locally_nilpotent: bool
    f_failures: list

    @property
    def in_category(self):
        return self.weights_diagonal and self.f_injective and self.e_locally_nilpotent


def verify_category_I(m):
    """Check the membership criteria for Enright's category on the slice.

    h, which acts by the declared weights, must agree with the
    commutator ef - fe on the interior region (the labels whose images
    under e and f stay inside the slice); f must be injective there
    (full column rank on every weight space); and e must be locally
    nilpotent (it raises weight, so a computable power kills each basis
    vector).
    """
    interior = m.interior(1)
    weights_ok = all(
        m.act_label("h", b)
        == vec_sub(apply_word(m, "ef", {b: 1}), apply_word(m, "fe", {b: 1}))
        for b in interior
    )

    f_failures = []
    by_weight = {}
    for b in interior:
        by_weight.setdefault(m.weight(b), []).append(b)
    for mu, labels in sorted(by_weight.items(), reverse=True):
        f_block = SparseMat.from_columns(m.index_ext, [m.act_label("f", b) for b in labels])
        if nullspace(f_block):
            f_failures.append(mu)
    f_ok = not f_failures

    top = max(m.weight(b) for b in m.basis)
    e_ok = True
    for b in m.basis:
        steps = (top - m.weight(b)) // 2 + 1
        vec = {b: 1}
        for _ in range(steps):
            vec = apply_op(m, "e", vec)
            if not vec:
                break
        if vec:
            e_ok = False
            break

    return CategoryIReport(
        weights_diagonal=weights_ok,
        f_injective=f_ok,
        e_locally_nilpotent=e_ok,
        f_failures=f_failures,
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


def formal_matrices(n, depth):
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
    basis, basis_ext, F, E = formal_matrices(n, depth)
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
        if any(m < 0 for m in rec.p_list):
            hwv_ok[s] = False
            continue
        image = {("vw", i, (n - s) // 2 - i): m for i, m in enumerate(rec.p_list)}
        is_hwv = not apply_op(mod, "e", image)
        ratio_ok = all(p * rec.coefficients[0] == rec.coefficients.get(i, 0) * rec.p_list[0]
                       for i, p in enumerate(rec.p_list))
        hwv_ok[s] = is_hwv and ratio_ok

    gen_ok = {}
    for r, rec in gens.items():
        image = {("vw", i, (n + r + 2) // 2 - i): x for i, x in enumerate(rec.final)}
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
# confluence fuzz, one trial at a time through normal_form
# ---------------------------------------------------------------------------

def fuzz_words(trials, seed):
    """The word of each trial of ``confluence_fuzz(trials, seed)``."""
    words = []
    for t in range(trials):
        rng = random.Random((seed * 1_000_003 + t) & 0xFFFFFFFF)
        length = rng.randint(0, 8)
        words.append(tuple((rng.choice("ab"), rng.randint(1, 6)) for _ in range(length)))
    return words


def fuzz_through_normal_form(trials, seed):
    """(mismatches, negative-coefficient words) of ``confluence_fuzz``,
    every trial normalised afresh by three ``normal_form`` calls."""
    mismatches, negatives = [], []
    for word in fuzz_words(trials, seed):
        series = normal_form(word)
        left = normal_form(word, "leftmost")
        right = normal_form(word, "rightmost")
        if not series == left == right:
            mismatches.append(word)
        if any(c < 0 for c in series.terms.values()):
            negatives.append(word)
    return mismatches, negatives


# ---------------------------------------------------------------------------
# exchange rewriting on whole words, one inversion count at a time
# ---------------------------------------------------------------------------

def bucketed_rewrite(word, strategy):
    """Normal form of a word by "leftmost" or "rightmost" exchange steps
    on whole words.

    Letters are signed ints, a_n as n and b_m as -m, so an adjacent
    a-before-b pair is w[p] > 0 > w[p + 1].  Words are filed in buckets by
    their number of (a, b) inversions, and a bucket is rewritten once
    every word above it is done, each distinct word once with its summed
    coefficient.  The swap removes exactly the exchanged inversion; the
    contraction also removes the inversions of a b_1 with the a's in
    front of it and of an a_1 with the b's behind it, since
    b_0 = a_0 = 1 leave the word.  A word filed under the wrong count
    raises AssertionError.
    """
    def misfiled(w, count):
        return AssertionError(f"{w} filed under {count} inversions")

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
                raise misfiled(w, count)
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
                raise misfiled(w, count)
            key = head + (m, n) + tail
            swapped[key] = swapped.get(key, 0) + c
            target = buckets[count - lost]
            key = head + contracted + tail
            target[key] = target.get(key, 0) + c
    out = {}
    for w, c in buckets[0].items():
        s = sorted(w)
        k = bisect_left(s, 0)
        if k and max(w[:k]) > 0:
            raise misfiled(w, 0)
        key = tuple(-v for v in reversed(s[:k])), tuple(s[k:])
        out[key] = out.get(key, 0) + c
    return HElem(out)


# ---------------------------------------------------------------------------
# Hecke and Adelman helpers that only the tests use
# ---------------------------------------------------------------------------

def inversions(p):
    """The number of inversions of the permutation p, its length."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def embed_morphism(mat):
    """The embedding on morphisms; plain matrices become middle maps."""
    return TripleMorphism(
        embed(mat.cols), embed(mat.rows),
        SparseMat(0, 0), mat, SparseMat(0, 0),
    )


def zero_equivalent(obj):
    """An object is zero in the quotient category iff its identity is
    null-homotopic."""
    return homotopic_to_zero(identity_of(obj)) is not None

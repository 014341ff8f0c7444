"""Abelianization of the additive category of rational matrix objects.

Objects are double arrows A' -> A -> A'' of finite-dimensional rational
spaces (dimensions plus two composable matrices, with no exactness
assumed).  Morphisms are commuting triples, considered up to the
homotopy relation b' s1 + s2 a = alpha - beta, which only constrains the
middle components.  Kernels and cokernels are built from block
matrices; since the printed block shapes admit more than one
dimension-consistent reading, the choice is resolved behaviourally: the
candidate constructions are run against a universal-property oracle on
random instances, and ``freeze_interpretation`` writes the unique
survivor to the checked-in fixture whose schema this module owns.

Every linear condition on matrix unknowns (homotopies, morphism spaces,
factorizations) is assembled by one builder, ``_system``, from the
identity vec(L X R) = (L ⊗ Rᵀ) vec(X).  vec is row-major throughout:
entry (r, c) of an unknown with ``cols`` columns is variable
``offset + r*cols + c``, and entry (i, j) of an equation's residual is
one row in the same order.

Checks that share a coefficient matrix share one elimination, and a
factorization is checked by the homotopy witness its own solve returns.
A zero target (f.x2 - g.x2 of a homotopy, u.x2 of a factorization) is
answered by the zero solution before any system is built, as the
elimination would answer it; only the nonzero targets of a batch enter
its system, and every answer, zero or not, is checked by substitution.

``universal_property_trials`` certifies before it solves.  The extended
readings give in closed form the null-homotopy of the composite through
the candidate and the factor of each test u killed by t, built from t, u
and the witness of t o u ~ 0 (u o t ~ 0), which is t's own for the
identity; a test v through the candidate is its own factor.  A witness
counts only when its shapes fit, it is a morphism and its equation holds
by substitution; any other check is solved as before, so every verdict
is the solver's.  The homotopies t ~ 0 and t o u ~ 0 that the witnesses
start from are solved, and so are all checks of ``resolve_interpretation``,
which picks the reading and so must not lean on one, and of
``congruence_checks``, which exercise the homotopy solver itself.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

from . import fixtures
from .exactla import SparseMat, nullspace, solve_each, vec_iadd

__all__ = [
    "DoubleArrow",
    "TripleMorphism",
    "Homotopy",
    "is_morphism",
    "compose",
    "identity_of",
    "zero_morphism",
    "homotopic",
    "homotopic_to_zero",
    "kernel",
    "cokernel",
    "embed",
    "random_object",
    "random_morphism",
    "factors_through_kernel",
    "factors_through_cokernel",
    "resolve_interpretation",
    "freeze_interpretation",
    "KERNEL_INTERPRETATIONS",
    "COKERNEL_INTERPRETATIONS",
]


class _Arrows(NamedTuple):
    dims: tuple
    m1: SparseMat  # d1 -> d2
    m2: SparseMat  # d2 -> d3


class DoubleArrow(_Arrows):
    """A' -> A -> A'': dimensions (d1, d2, d3) and the two matrices."""

    __slots__ = ()

    def __new__(cls, dims, m1, m2):
        d1, d2, d3 = dims
        if (m1.rows, m1.cols) != (d2, d1):
            raise ValueError("first arrow has wrong shape")
        if (m2.rows, m2.cols) != (d3, d2):
            raise ValueError("second arrow has wrong shape")
        return super().__new__(cls, dims, m1, m2)


class TripleMorphism(NamedTuple):
    source: DoubleArrow
    target: DoubleArrow
    x1: SparseMat
    x2: SparseMat
    x3: SparseMat


class Homotopy(NamedTuple):
    s1: SparseMat  # mid(source) -> first(target)
    s2: SparseMat  # last(source) -> mid(target)


def is_morphism(t):
    """Exact check that both squares commute."""
    src, tgt = t.source, t.target
    return (t.x2 @ src.m1 == tgt.m1 @ t.x1) and (t.x3 @ src.m2 == tgt.m2 @ t.x2)


def compose(f, g):
    """f after g."""
    if g.target != f.source:
        raise ValueError("composition mismatch")
    return TripleMorphism(g.source, f.target, f.x1 @ g.x1, f.x2 @ g.x2, f.x3 @ g.x3)


def identity_of(obj):
    d1, d2, d3 = obj.dims
    return TripleMorphism(obj, obj, SparseMat.identity(d1),
                          SparseMat.identity(d2), SparseMat.identity(d3))


def zero_morphism(src, tgt):
    return TripleMorphism(
        src, tgt,
        SparseMat(tgt.dims[0], src.dims[0]),
        SparseMat(tgt.dims[1], src.dims[1]),
        SparseMat(tgt.dims[2], src.dims[2]),
    )


# ---------------------------------------------------------------------------
# the homotopy relation
# ---------------------------------------------------------------------------

def _offsets(shapes):
    """Offset of the first variable of each unknown, then the total."""
    offsets = [0]
    for r, c in shapes:
        offsets.append(offsets[-1] + r * c)
    return offsets


def _unpack(shapes, vec):
    """The list of unknown matrices X_k of the given shapes in a solution
    vector, read in one pass: each nonzero variable is placed in the
    unknown whose range of offsets holds it."""
    mats = [SparseMat(r, c) for r, c in shapes]
    if vec:
        offsets = _offsets(shapes)
        for var, x in vec.items():
            if x:
                k = bisect_right(offsets, var) - 1
                mat = mats[k]
                mat.entries[divmod(var - offsets[k], mat.cols)] = x
    return mats


def _system(shapes, equations):
    """The linear system for unknown matrices X_k of the given shapes.

    Each equation is (terms, targets): the sum of L @ X_k @ R over its
    terms (L, k, R) must equal targets[i] in system i ([] for zero in
    all).  L or R may be None for an identity, which costs no
    multiplication; the residual's shape is read from the first term.
    Returns (matrix, rhss); ``_unpack(shapes, x)`` turns a solution x
    into the list of X_k.
    """
    offsets = _offsets(shapes)
    ent, rhss, row0 = {}, [], 0
    for terms, targets in equations:
        L, k, R = terms[0]
        height = shapes[k][0] if L is None else L.rows
        width = shapes[k][1] if R is None else R.cols
        for L, k, R in terms:
            (xrows, xcols), off = shapes[k], offsets[k]
            if L is None:
                cells = ((i * width + j, off + i * xcols + q, y)
                         for (q, j), y in R.entries.items() for i in range(xrows))
            elif R is None:
                cells = ((i * width + j, off + p * xcols + j, x)
                         for (i, p), x in L.entries.items() for j in range(xcols))
            else:
                cells = ((i * width + j, off + p * xcols + q, x * y)
                         for (i, p), x in L.entries.items()
                         for (q, j), y in R.entries.items())
            for r, c, x in cells:
                key = (row0 + r, c)
                old = ent.get(key)
                ent[key] = x if old is None else old + x
        for k, target in enumerate(targets):
            if k == len(rhss):
                rhss.append({})
            for (i, j), x in target.entries.items():
                rhss[k][row0 + i * width + j] = x
        row0 += height * width
    return SparseMat(row0, offsets[-1], ent), rhss


def _solve_targets(shapes, equations, terms, targets):
    """For each target, the unknowns X_k (as ``_unpack`` lists them) that
    satisfy the equations and sum(terms) = target, or None.

    A zero target is answered by the zero solution, before any system is
    built: with every free coordinate 0, that is what ``solve_each``
    returns for a zero right-hand side.  Only the nonzero targets enter
    one ``_system`` and one ``solve_each``, which answers each of them
    as if alone, so a batch of zero targets builds no system at all.
    The callers check every answer, the zero ones included.
    """
    nonzero = [t for t in targets if not t.is_zero()]
    solved = iter(solve_each(*_system(shapes, equations + [(terms, nonzero)]))
                  if nonzero else ())
    answers = []
    for target in targets:
        sol = {} if target.is_zero() else next(solved)
        answers.append(None if sol is None else _unpack(shapes, sol))
    return answers


def _squares(src, tgt):
    """Shapes of a triple (x1, x2, x3): src -> tgt as unknowns 0, 1, 2,
    and the equations x2 m1 - m1' x1 = 0 and x3 m2 - m2' x2 = 0."""
    shapes = [(b, a) for a, b in zip(src.dims, tgt.dims)]
    return shapes, [
        ([(None, 1, src.m1), (tgt.m1.scale(-1), 0, None)], []),
        ([(None, 2, src.m2), (tgt.m2.scale(-1), 1, None)], []),
    ]


def _homotopy_terms(src, tgt, k):
    """Shapes of a homotopy (s1, s2) between triples src -> tgt as
    unknowns k, k + 1, and the terms of b' s1 + s2 a."""
    return ([(tgt.dims[0], src.dims[1]), (tgt.dims[1], src.dims[2])],
            [(tgt.m1, k, None), (None, k + 1, src.m2)])


def _homotopies(pairs):
    """[homotopic(f, g) for f, g in pairs], from one elimination: every
    f must share the first f's objects, and every g their shapes."""
    src, tgt = pairs[0][0].source, pairs[0][0].target
    if any((f.source, f.target, g.source.dims, g.target.dims)
           != (src, tgt, src.dims, tgt.dims) for f, g in pairs):
        raise ValueError("homotopy requires equal shapes and one pair of objects")
    diffs = [f.x2 - g.x2 for f, g in pairs]
    shapes, terms = _homotopy_terms(src, tgt, 0)
    witnesses = []
    for sol, diff in zip(_solve_targets(shapes, [], terms, diffs), diffs):
        if sol is not None:
            s1, s2 = sol
            if tgt.m1 @ s1 + s2 @ src.m2 != diff:
                raise AssertionError("homotopy witness failed re-verification")
            sol = Homotopy(s1, s2)
        witnesses.append(sol)
    return witnesses


def homotopic(f, g):
    """A witness (s1, s2) with b' s1 + s2 a = f.x2 - g.x2, or None.

    Only the middle components enter the relation.  The witness is
    re-verified by substitution before being returned.
    """
    return _homotopies([(f, g)])[0]


def homotopic_to_zero(f):
    return homotopic(f, zero_morphism(f.source, f.target))


# ---------------------------------------------------------------------------
# block constructions for kernel and cokernel
# ---------------------------------------------------------------------------

def _block(rows_of_blocks):
    """Block matrix: the blocks of a row share their row count, and the
    block columns share their column counts."""
    widths = [blk.cols for blk in rows_of_blocks[0]]
    ent = {}
    r0 = 0
    for row in rows_of_blocks:
        if [blk.cols for blk in row] != widths or any(blk.rows != row[0].rows for blk in row):
            raise ValueError("block shape mismatch")
        c0 = 0
        for blk in row:
            for (r, c), x in blk.entries.items():
                ent[r0 + r, c0 + c] = x
            c0 += blk.cols
        r0 += row[0].rows
    return SparseMat(r0, sum(widths), ent)


def _kernel_extended(t):
    """Kernel object A'+B' -> A+B' -> B+A'' with blocks
    phi = (a' 0; alpha' 1), psi = (alpha -b'; a 0), included into the
    source by coordinate projections."""
    src, tgt = t.source, t.target
    dA1, dA, dA2 = src.dims
    dB1, dB, _ = tgt.dims
    phi = _block([
        [src.m1, SparseMat(dA, dB1)],
        [t.x1, SparseMat.identity(dB1)],
    ])
    psi = _block([
        [t.x2, tgt.m1.scale(-1)],
        [src.m2, SparseMat(dA2, dB1)],
    ])
    ker = DoubleArrow((dA1 + dB1, dA + dB1, dB + dA2), phi, psi)
    inc = TripleMorphism(
        ker, src,
        _block([[SparseMat.identity(dA1), SparseMat(dA1, dB1)]]),
        _block([[SparseMat.identity(dA), SparseMat(dA, dB1)]]),
        _block([[SparseMat(dA2, dB), SparseMat.identity(dA2)]]),
    )
    return ker, inc


def _kernel_middle_a(t):
    """Literal reading keeping the middle object A: A'+B' -> A -> B+A''."""
    src, tgt = t.source, t.target
    dA1, dA, dA2 = src.dims
    dB1, dB, _ = tgt.dims
    phi = _block([[src.m1, SparseMat(dA, dB1)]])
    psi = _block([[t.x2], [src.m2]])
    ker = DoubleArrow((dA1 + dB1, dA, dB + dA2), phi, psi)
    inc = TripleMorphism(
        ker, src,
        _block([[SparseMat.identity(dA1), SparseMat(dA1, dB1)]]),
        SparseMat.identity(dA),
        _block([[SparseMat(dA2, dB), SparseMat.identity(dA2)]]),
    )
    return ker, inc


def _cokernel_extended(t):
    """Cokernel object B'+A -> B+A'' -> B''+A'' with blocks
    gamma = (b' alpha; 0 -a), rho = (b alpha''; 0 -1), the target
    mapping in by coordinate inclusions."""
    src, tgt = t.source, t.target
    _, dA, dA2 = src.dims
    dB1, dB, dB2 = tgt.dims
    gamma = _block([
        [tgt.m1, t.x2],
        [SparseMat(dA2, dB1), src.m2.scale(-1)],
    ])
    rho = _block([
        [tgt.m2, t.x3],
        [SparseMat(dA2, dB), SparseMat.identity(dA2).scale(-1)],
    ])
    cok = DoubleArrow((dB1 + dA, dB + dA2, dB2 + dA2), gamma, rho)
    proj = TripleMorphism(
        tgt, cok,
        _block([[SparseMat.identity(dB1)], [SparseMat(dA, dB1)]]),
        _block([[SparseMat.identity(dB)], [SparseMat(dA2, dB)]]),
        _block([[SparseMat.identity(dB2)], [SparseMat(dA2, dB2)]]),
    )
    return cok, proj


def _cokernel_middle_b(t):
    """Literal dual reading keeping the middle object B."""
    src, tgt = t.source, t.target
    _, dA, dA2 = src.dims
    dB1, dB, dB2 = tgt.dims
    gamma = _block([[tgt.m1, t.x2]])
    rho = _block([[tgt.m2], [SparseMat(dA2, dB)]])
    cok = DoubleArrow((dB1 + dA, dB, dB2 + dA2), gamma, rho)
    proj = TripleMorphism(
        tgt, cok,
        _block([[SparseMat.identity(dB1)], [SparseMat(dA, dB1)]]),
        SparseMat.identity(dB),
        _block([[SparseMat.identity(dB2)], [SparseMat(dA2, dB2)]]),
    )
    return cok, proj


KERNEL_INTERPRETATIONS = {
    "extended-middle": _kernel_extended,
    "literal-middle": _kernel_middle_a,
}
COKERNEL_INTERPRETATIONS = {
    "extended-middle": _cokernel_extended,
    "literal-middle": _cokernel_middle_b,
}

@lru_cache(maxsize=1)
def frozen_interpretation():
    """The (kernel, cokernel) block readings selected by the resolution
    procedure, read from the checked-in fixture once; ``cache_clear()``
    makes the next call read it again.

    Raises FixtureError when the fixture cannot be read or does not name
    one known reading under each of "kernel" and "cokernel".
    """
    doc = fixtures.load_json(fixtures.ADELMAN_FIXTURE)
    choice = (doc.get("kernel"), doc.get("cokernel")) if isinstance(doc, dict) else None
    # list membership: a malformed value may be unhashable
    if (choice is None or choice[0] not in list(KERNEL_INTERPRETATIONS)
            or choice[1] not in list(COKERNEL_INTERPRETATIONS)):
        raise fixtures.FixtureError(
            f"{fixtures.ADELMAN_FIXTURE} must name a known kernel and cokernel "
            f"reading, got {choice}")
    return choice


def kernel(t):
    """Kernel candidate (object, inclusion) for a morphism.

    The verification is behavioural and lives with the callers: the
    composite through the inclusion must be null-homotopic and every
    test morphism killed by t must factor through the candidate.
    """
    if not is_morphism(t):
        raise ValueError("kernel of a non-morphism")
    return KERNEL_INTERPRETATIONS[frozen_interpretation()[0]](t)


def cokernel(t):
    if not is_morphism(t):
        raise ValueError("cokernel of a non-morphism")
    return COKERNEL_INTERPRETATIONS[frozen_interpretation()[1]](t)


def embed(dim):
    """The full embedding of a matrix object: 0 -> Q^dim -> 0."""
    return DoubleArrow((0, dim, 0), SparseMat(dim, 0), SparseMat(0, dim))


# ---------------------------------------------------------------------------
# random instances and the universal-property oracle
# ---------------------------------------------------------------------------

def _random_matrix(rng, rows, cols):
    ent = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.45:
                ent[i, j] = rng.choice((-2, -1, 1, 2))
    return SparseMat(rows, cols, ent)


def random_object(rng, max_dim=3):
    """Random double arrow; mixes generic sparse arrows with embedded
    objects and identity-like arrows so morphism spaces stay rich."""
    style = rng.randrange(6)
    if style == 0:
        return embed(rng.randint(1, max_dim))
    dims = [rng.randint(0, max_dim) for _ in range(3)]
    if style == 1:
        dims[0] = 0
    if style == 2:
        dims[2] = 0
    m1 = _random_matrix(rng, dims[1], dims[0])
    m2 = _random_matrix(rng, dims[2], dims[1])
    if style == 3 and dims[0] == dims[1]:
        m1 = SparseMat.identity(dims[1])
    if style == 4 and dims[1] == dims[2]:
        m2 = SparseMat.identity(dims[1])
    return DoubleArrow(tuple(dims), m1, m2)


def _random_combination(rng, basis):
    """Random integer combination of a basis, one rng.randint(-2, 2) per
    basis vector in basis order."""
    combo = {}
    for vec in basis:
        vec_iadd(combo, vec, rng.randint(-2, 2))
    return combo


def random_morphism(rng, src, tgt, count):
    """count random integer combinations of one basis of the morphism
    space, drawn one after another."""
    shapes, equations = _squares(src, tgt)
    mat, _ = _system(shapes, equations)
    basis = nullspace(mat)
    return [TripleMorphism(src, tgt, *_unpack(shapes, _random_combination(rng, basis)))
            for _ in range(count)]


def _factors_up_to_homotopy(us, through, side):
    """For each u (all sharing source and target), a v with
    through o v ~ u (side='kernel') or v o through ~ u (side='cokernel'),
    or None, from one joint elimination.

    v ranges over genuine morphisms (its commuting squares are part of
    the system), and the homotopy only constrains middle components:
    composite middle + b' s1 + s2 a = u.x2 in Hom(u.source, u.target).
    Each v is checked by is_morphism and by substituting its own (s1, s2).
    """
    src, tgt = us[0].source, us[0].target
    if any((u.source, u.target) != (src, tgt) for u in us):
        raise ValueError("factorization batch requires one pair of objects")
    if side == "kernel":
        vsrc, vtgt = src, through.source
        composite = (through.x2, 1, None)   # through.x2 @ v.x2
    else:
        vsrc, vtgt = through.target, tgt
        composite = (None, 1, through.x2)   # v.x2 @ through.x2
    shapes, squares = _squares(vsrc, vtgt)
    h_shapes, h_terms = _homotopy_terms(src, tgt, 3)
    answers = _solve_targets(shapes + h_shapes, squares, [composite] + h_terms,
                             [u.x2 for u in us])
    factors = []
    for u, sol in zip(us, answers):
        if sol is not None:
            x1, x2, x3, s1, s2 = sol
            sol = TripleMorphism(vsrc, vtgt, x1, x2, x3)
            if not is_morphism(sol):
                raise AssertionError("factorization solver produced a non-morphism")
            middle = through.x2 @ x2 if side == "kernel" else x2 @ through.x2
            if tgt.m1 @ s1 + s2 @ src.m2 != u.x2 - middle:
                raise AssertionError("factorization solver witness fails homotopy check")
        factors.append(sol)
    return factors


def factors_through_kernel(u, inclusion):
    """A morphism v with inclusion o v ~ u, or None."""
    return _factors_up_to_homotopy([u], inclusion, "kernel")[0]


def factors_through_cokernel(u, projection):
    """A morphism v with v o projection ~ u, or None."""
    return _factors_up_to_homotopy([u], projection, "cokernel")[0]


def random_null_homotopic(rng, src, tgt):
    """Random morphism homotopic to zero, with its witness.

    Solves jointly for (x1, x3, s1, s2) with middle x2 := b' s1 + s2 a
    subject to both commuting squares, and returns a random integer
    combination of the solution space basis as (morphism, Homotopy).
    """
    bp, a = tgt.m1, src.m2
    shapes = [(tgt.dims[0], src.dims[0]), (tgt.dims[2], src.dims[2]),
              (tgt.dims[0], src.dims[1]), (tgt.dims[1], src.dims[2])]  # x1, x3, s1, s2
    mat, _ = _system(shapes, [
        # x2 m1 - m1' x1 = 0
        ([(bp, 2, src.m1), (None, 3, a @ src.m1), (tgt.m1.scale(-1), 0, None)], []),
        # x3 m2 - m2' x2 = 0
        ([(None, 1, src.m2), ((tgt.m2 @ bp).scale(-1), 2, None), (tgt.m2.scale(-1), 3, a)], []),
    ])
    x1, x3, s1, s2 = _unpack(shapes, _random_combination(rng, nullspace(mat)))
    x2 = bp @ s1 + s2 @ a
    d = TripleMorphism(src, tgt, x1, x2, x3)
    if not is_morphism(d):
        raise AssertionError("null-homotopic construction is not a morphism")
    return d, Homotopy(s1, s2)


RELATIONS = ("reflexive", "symmetric", "transitive", "composition")


class CongruenceReport(NamedTuple):
    trials: int
    failures: list  # {"trial" (from 1), "relation", "dims" of X and Y}

    def passed(self, relation):
        return self.trials - sum(f["relation"] == relation for f in self.failures)

    @property
    def ok(self):
        return not self.failures


def congruence_checks(seed, trials, max_dim=4):
    """Homotopy is reflexive, symmetric, transitive, and stable under
    pre/post-composition, exercised on seeded random instances.  Each
    relation that fails in a trial is recorded with the dimensions of X
    and Y."""
    rng = random.Random(seed)
    rep = CongruenceReport(trials, [])
    for trial in range(1, trials + 1):
        X = random_object(rng, max_dim)
        Y = random_object(rng, max_dim)
        [f] = random_morphism(rng, X, Y, 1)
        d1, _ = random_null_homotopic(rng, X, Y)
        d2, _ = random_null_homotopic(rng, X, Y)
        g = TripleMorphism(X, Y, f.x1 + d1.x1, f.x2 + d1.x2, f.x3 + d1.x3)
        h = TripleMorphism(X, Y, g.x1 + d2.x1, g.x2 + d2.x2, g.x3 + d2.x3)
        ff, fg, gf, gh, fh = (w is not None for w in _homotopies(
            [(f, f), (f, g), (g, f), (g, h), (f, h)]))
        V = random_object(rng, max_dim)
        Z = random_object(rng, max_dim)
        [u] = random_morphism(rng, V, X, 1)
        [w] = random_morphism(rng, Y, Z, 1)
        composition = (homotopic(compose(f, u), compose(g, u)) is not None
                       and homotopic(compose(w, f), compose(w, g)) is not None)
        for relation, held in zip(RELATIONS, (ff, fg and gf, fg and gh and fh, composition)):
            if not held:
                rep.failures.append({"trial": trial, "relation": relation,
                                     "dims": {"X": X.dims, "Y": Y.dims}})
    return rep


class UniversalPropertyReport(NamedTuple):
    trials: int
    passed: int  # sides that passed, out of 2 * trials
    failures: list  # {"trial" (from 1), "side", "stage", "dims" of X, Y, W}

    @property
    def ok(self):
        return not self.failures


# The kernel side and the cokernel side as (side, end, after, hom,
# readings): end(t) is the end of t the candidate attaches to, after(f, g)
# composes g with f on that side (f o g for kernels, g o f for
# cokernels), and hom(rng, W, obj, count) draws count random morphisms
# W -> obj for kernels and obj -> W for cokernels.  The lambdas look the
# module functions up at call time, so a wrapper installed on the module
# attribute (as a tracer does) sees every call.
_SIDES = (
    ("kernel", lambda t: t.source, lambda f, g: compose(f, g),
     lambda rng, W, obj, count: random_morphism(rng, W, obj, count),
     KERNEL_INTERPRETATIONS),
    ("cokernel", lambda t: t.target, lambda f, g: compose(g, f),
     lambda rng, W, obj, count: random_morphism(rng, obj, W, count),
     COKERNEL_INTERPRETATIONS),
)


def _all_factor(groups, through, side):
    """Whether every test factors through ``through``, one elimination per
    group of tests that share their objects, stopping at a failure."""
    return all(v is not None for group in groups if group
               for v in _factors_up_to_homotopy(group, through, side))


def _null_witness(t, side):
    """The homotopy ([0 | 1], [1 | 0]) of t o inclusion ~ 0 into the
    extended kernel, or ([0; 1], [0; 1]) of projection o t ~ 0."""
    (_, dA, dA2), (dB1, dB, _) = t.source.dims, t.target.dims
    if side == "kernel":
        return Homotopy(_block([[SparseMat(dB1, dA), SparseMat.identity(dB1)]]),
                        _block([[SparseMat.identity(dB), SparseMat(dB, dA2)]]))
    return Homotopy(_block([[SparseMat(dB1, dA)], [SparseMat.identity(dA)]]),
                    _block([[SparseMat(dB, dA2)], [SparseMat.identity(dA2)]]))


def _factor_witness(t, u, s, side):
    """Components (x1, x2, x3) of the v with inclusion o v = u into the
    extended kernel, or v o projection = u out of the extended cokernel."""
    if side == "kernel":
        return (_block([[u.x1], [s.s1 @ u.source.m1 - t.x1 @ u.x1]]),
                _block([[u.x2], [s.s1]]), _block([[s.s2], [u.x3]]))
    return (_block([[u.x1, s.s1]]), _block([[u.x2, s.s2]]),
            _block([[u.x3, u.x3 @ t.x3 - u.target.m2 @ s.s2]]))


def _is_null_witness(f, w):
    """Whether w has the shapes of a homotopy of f and b' s1 + s2 a = f.x2."""
    src, tgt = f.source, f.target
    return (w is not None
            and (w.s1.rows, w.s1.cols, w.s2.rows, w.s2.cols)
            == (tgt.dims[0], src.dims[1], tgt.dims[1], src.dims[2])
            and tgt.m1 @ w.s1 + w.s2 @ src.m2 == f.x2)


def _is_factor(u, xs, through, side):
    """Whether xs are the components of a morphism v with through o v = u
    (side 'kernel') or v o through = u (side 'cokernel') exactly."""
    vsrc, vtgt = (u.source, through.source) if side == "kernel" else (through.target, u.target)
    if xs is None or [(x.rows, x.cols) for x in xs] != [
            (b, a) for a, b in zip(vsrc.dims, vtgt.dims)]:
        return False
    v = TripleMorphism(vsrc, vtgt, *xs)
    middle = through.x2 @ v.x2 if side == "kernel" else v.x2 @ through.x2
    return is_morphism(v) and middle == u.x2


def universal_property_trials(seed, trials, max_dim=4):
    """Both halves of the kernel and cokernel universal properties for
    the frozen block readings on seeded random instances: the composite
    through the candidate is null-homotopic, and every test morphism
    killed by t factors.  Each failing side of a trial is recorded with
    the stage that failed and the dimensions of X, Y and W.  Each check
    is tried on its closed-form witness first (see the module docstring);
    only the checks whose witness does not verify are solved for."""
    rng = random.Random(seed)
    passed, failures = 0, []
    for trial in range(1, trials + 1):
        X = random_object(rng, max_dim)
        Y = random_object(rng, max_dim)
        [t] = random_morphism(rng, X, Y, 1)
        W = random_object(rng, max_dim)
        t_witness = homotopic_to_zero(t)
        for (side, end, after, hom, _), build in zip(_SIDES, (kernel, cokernel)):
            obj, arrow = build(t)
            stage = "composite not null-homotopic"
            composite = after(t, arrow)
            if (_is_null_witness(composite, _null_witness(t, side))
                    or homotopic_to_zero(composite) is not None):
                [u] = hom(rng, W, end(t), 1)
                [v] = hom(rng, W, obj, 1)
                s = homotopic_to_zero(after(t, u))
                tests = [(u, _factor_witness(t, u, s, side))] if s is not None else []
                tests.append((after(arrow, v), v[2:]))
                identity = []
                if t_witness is not None:  # everything must factor
                    one = identity_of(end(t))
                    identity.append((one, _factor_witness(t, one, t_witness, side)))
                ok = _all_factor([[f for f, xs in group if not _is_factor(f, xs, arrow, side)]
                                  for group in (identity, tests)], arrow, side)
                stage = None if ok else "test morphism does not factor"
            passed += stage is None
            if stage:
                failures.append({"trial": trial, "side": side, "stage": stage,
                                 "dims": {"X": X.dims, "Y": Y.dims, "W": W.dims}})
    return UniversalPropertyReport(trials, passed, failures)


# ---------------------------------------------------------------------------
# behavioural disambiguation of the block shapes
# ---------------------------------------------------------------------------

class InterpretationReport(NamedTuple):
    kernel_choice: str
    cokernel_choice: str
    kernel_scores: dict
    cokernel_scores: dict
    trials: int
    seed: int


def resolve_interpretation(seed):
    """Run every candidate block reading against the universal-property
    oracle on seeded random instances and select the unique survivor.

    A kernel candidate fails a trial when its inclusion composite is not
    null-homotopic, or when a test morphism killed by t does not factor
    through it; dually for cokernels.  Test morphisms include random
    morphisms filtered by the kill condition, morphisms constructed
    through the competing candidates, and the identity whenever t itself
    is null-homotopic.  Objects have dimensions at most 3.  Trials
    continue past the first 24 until a single candidate per side
    survives, up to 400, so the selection is deterministic per seed and
    stable across seeds.
    """
    rng = random.Random(seed)
    scores = [{name: 0 for name in readings} for *_, readings in _SIDES]

    def undecided():
        return any(sum(1 for v in side.values() if v == 0) > 1 for side in scores)

    tests_per_candidate = 4
    trials = 0
    while trials < 400 and (trials < 24 or undecided()):
        trials += 1
        X = random_object(rng, 3)
        Y = random_object(rng, 3)
        [t] = random_morphism(rng, X, Y, 1)
        W = random_object(rng, 3)
        r2 = random.Random(rng.getrandbits(32))
        t_null = homotopic_to_zero(t) is not None
        for (side, end, after, hom, readings), side_scores in zip(_SIDES, scores):
            candidates = {name: f(t) for name, f in readings.items()}
            identity = [identity_of(end(t))] if t_null else []  # everything must factor
            drawn = hom(r2, W, end(t), 2)
            for obj, arrow in candidates.values():
                drawn += [after(arrow, g) for g in hom(r2, W, obj, tests_per_candidate)]
            composites = [after(t, u) for u in drawn]
            zero = zero_morphism(composites[0].source, composites[0].target)
            killed = _homotopies([(f, zero) for f in composites])
            tests = [u for u, w in zip(drawn, killed) if w is not None]
            for name, (_, arrow) in candidates.items():
                ok = (homotopic_to_zero(after(t, arrow)) is not None
                      and _all_factor([identity, tests], arrow, side))
                side_scores[name] += 0 if ok else 1

    kernel_scores, cokernel_scores = scores
    kernel_pass = [n for n, bad in kernel_scores.items() if bad == 0]
    cokernel_pass = [n for n, bad in cokernel_scores.items() if bad == 0]
    if len(kernel_pass) != 1 or len(cokernel_pass) != 1:
        raise AssertionError(
            f"interpretation resolution not unique after {trials} trials: "
            f"kernels {kernel_scores}, cokernels {cokernel_scores}")
    return InterpretationReport(
        kernel_choice=kernel_pass[0],
        cokernel_choice=cokernel_pass[0],
        kernel_scores=kernel_scores,
        cokernel_scores=cokernel_scores,
        trials=trials,
        seed=seed,
    )


def freeze_interpretation(seed):
    """Resolve the readings at seed, seed + 1 and seed + 2, write the choice
    they agree on to the fixture, and return the report for ``seed``."""
    reports = [resolve_interpretation(s) for s in (seed, seed + 1, seed + 2)]
    choices = {(r.kernel_choice, r.cokernel_choice) for r in reports}
    if len(choices) != 1:
        raise AssertionError(f"interpretation unstable across seeds: {choices}")
    fixtures.save_json(fixtures.ADELMAN_FIXTURE, {
        "kernel": reports[0].kernel_choice,
        "cokernel": reports[0].cokernel_choice,
        "seeds": [r.seed for r in reports],
        "trials": [r.trials for r in reports],
    })
    frozen_interpretation.cache_clear()
    return reports[0]

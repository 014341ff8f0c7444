from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import rank

from vermalab.exactla import (
    Laurent,
    RatFunc,
    SparseMat,
    generalized_kernel,
    normalize_integer_vector,
    nullspace,
    solve,
    solve_each,
    vec_add,
    vec_iadd,
    vec_sub,
)


def mat(rows):
    return SparseMat.from_rows(rows)


class TestNullspace:
    def test_rank_one_matrix(self):
        assert nullspace(mat([[1, 2], [2, 4]])) == [{0: -2, 1: 1}]

    def test_identity_is_injective(self):
        assert nullspace(SparseMat.identity(3)) == []

    def test_weight_zero_e_matrix(self):
        # e on the weight-0 slice of L4 (x) V0, basis v0w2, v1w1, v2w0:
        # rows index v0w1 and v1w0 in the weight-2 slice
        m = mat([[-2, 4, 0], [0, 0, 3]])
        ker = nullspace(m)
        assert ker == [{0: 2, 1: 1}]
        # spans the closed-form direction (16, 8, 0)
        assert ker[0][0] * 8 == ker[0][1] * 16

    def test_zero_matrix_full_kernel(self):
        ker = nullspace(SparseMat(2, 3))
        assert ker == [{0: 1}, {1: 1}, {2: 1}]

    def test_empty_dimensions(self):
        assert nullspace(SparseMat(0, 0)) == []
        assert nullspace(SparseMat(0, 2)) == [{0: 1}, {1: 1}]
        assert nullspace(SparseMat(2, 0)) == []

    def test_normalization_gcd_one(self):
        ker = nullspace(mat([[2, 4]]))
        assert ker == [{0: -2, 1: 1}]

    def test_fractional_entries(self):
        ker = nullspace(mat([[Fraction(1, 2), Fraction(1, 3)]]))
        assert ker == [{0: -2, 1: 3}]


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    data = draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return mat(data)


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_nullspace_vectors_are_killed(m):
    ker = nullspace(m)
    for v in ker:
        assert m.apply(v) == {}
    assert len(ker) + rank(m) == m.cols


@given(small_matrix())
@settings(max_examples=100, deadline=None)
def test_solve_roundtrip(m):
    ker = nullspace(m)
    # image membership: m @ x = m @ e_0 has the solution structure
    b = m.apply({0: Fraction(1)}) if m.cols else {}
    x = solve(m, b)
    assert x is not None
    assert m.apply(x) == b
    del ker


class TestSolve:
    def test_identity(self):
        b = {0: Fraction(1), 1: Fraction(2)}
        assert solve(SparseMat.identity(2), b) == b

    def test_consistent_dependent_system(self):
        m = mat([[1, 2], [2, 4]])
        x = solve(m, {0: Fraction(1), 1: Fraction(2)})
        assert x is not None and m.apply(x) == {0: Fraction(1), 1: Fraction(2)}

    def test_inconsistent_system(self):
        assert solve(mat([[1, 2], [2, 4]]), {0: Fraction(1), 1: Fraction(1)}) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(mat([[1]]), {5: Fraction(1)})


class TestGeneralizedKernel:
    def test_jordan_block(self):
        kernel, excess = generalized_kernel(mat([[0, 1], [0, 0]]))
        assert kernel == [{0: 1}] and excess == [{1: 1}]

    def test_diagonal_no_excess(self):
        kernel, excess = generalized_kernel(mat([[0, 0], [0, 5]]))
        assert kernel == [{0: 1}] and excess == []

    def test_casimir_weight_slice(self):
        # (Casimir - 0) on weight -2 of L2 (x) V0: columns as derived
        m = mat([[-8, 8, 0], [-8, 8, 4], [0, 0, 8]])
        kernel, excess = generalized_kernel(m)
        assert kernel == [{0: 1, 1: 1}]
        assert len(excess) == 1
        v = excess[0]
        assert m.apply(v) != {}
        assert (m @ m).apply(v) == {}

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            generalized_kernel(SparseMat(2, 3))


class TestAccumulator:
    def test_adds_in_place_and_drops_zeros(self):
        out = {0: 1, 1: 2}
        assert vec_iadd(out, {0: -1, 1: 1, 2: 5}, 1) is out
        assert out == {1: 3, 2: 5}
        assert vec_iadd(out, {1: 1, 3: 2}, -3) == {2: 5, 3: -6}
        assert vec_iadd(out, {2: 7}, 0) == {2: 5, 3: -6}

    def test_absent_key_takes_the_term_itself(self):
        # no 0 + x: the stored coefficient is the very object added
        x = Laurent([1, 2], low=-1)
        out = vec_iadd({}, {"k": x})
        assert out["k"] is x
        assert vec_iadd(out, {"k": -x}) == {}

    def test_add_and_sub_leave_inputs_alone(self):
        u, v = {0: 1, 1: 2}, {1: 2, 2: 3}
        assert vec_add(u, v) == {0: 1, 1: 4, 2: 3}
        assert vec_sub(u, v) == {0: 1, 2: -3}
        assert u == {0: 1, 1: 2} and v == {1: 2, 2: 3}


class TestFromColumns:
    def test_columns_go_to_indexed_rows(self):
        m = SparseMat.from_columns({"a": 0, "b": 1, "c": 2}, [{"c": 4, "a": 1}, {}, {"b": -2}])
        assert (m.rows, m.cols) == (3, 3)
        assert m.entries == {(2, 0): 4, (0, 0): 1, (1, 2): -2}

    def test_range_index_and_zero_entries(self):
        m = SparseMat.from_columns(range(2), [{1: 3, 0: 0}])
        assert (m.rows, m.cols, m.entries) == (2, 1, {(1, 0): 3})

    def test_key_outside_the_index_raises(self):
        with pytest.raises(KeyError):
            SparseMat.from_columns({"a": 0}, [{"b": 1}])


def test_identity_and_from_rows_keep_int_entries():
    for m in (SparseMat.identity(3), mat([[1, 0], [-2, 5]])):
        assert m.entries and all(type(x) is int for x in m.entries.values())


class TestRatFunc:
    def test_reduction_idempotent(self):
        q = RatFunc.q()
        x = (q + 1) * (q - 1) / (q * q - 1)
        assert x == 1

    def test_mul_inverse(self):
        q = RatFunc.q()
        x = (q**3 - 2) / (q + 5)
        assert x * (1 / x) == 1

    def test_monic_denominator(self):
        x = RatFunc((1,), (2, 4))  # 1 / (2 + 4q)
        assert x.den[-1] == 1

    def test_evaluation(self):
        q = RatFunc.q()
        x = (q * q - 1) / (q - 1)  # reduces to q + 1
        assert x.at(1) == 2

    def test_pole_detection(self):
        q = RatFunc.q()
        with pytest.raises(ZeroDivisionError):
            (RatFunc.const(1) / (q - 1)).at(1)

    def test_negative_powers(self):
        q = RatFunc.q()
        assert RatFunc.q(-2) * q * q == 1


class TestLaurent:
    def test_canonical_form(self):
        x = Laurent((0, 3, 0, -2, 0), low=-2)
        assert (x.low, x.coeffs) == (-1, (3, 0, -2))
        assert repr(x) == "3*q^-1-2*q"
        assert Laurent((0, 0), low=5) == Laurent() == 0
        assert Laurent((0, 0), low=5).low == 0

    def test_integer_constants(self):
        assert Laurent.const(Fraction(4)) == 4 == Laurent.const(4)
        assert hash(Laurent.const(4)) == hash(4) and hash(Laurent()) == hash(0)
        assert Laurent.q(2) != 0 and Laurent.const(1) != Fraction(1, 2)
        with pytest.raises(TypeError):
            Laurent.const(Fraction(1, 2))
        with pytest.raises(TypeError):
            Laurent.q() + Fraction(1, 2)
        with pytest.raises(TypeError):
            Laurent.q() * RatFunc.q()

    def test_evaluation(self):
        x = Laurent.q(-2) - 3 * Laurent.q()
        assert x.at(Fraction(1, 2)) == Fraction(4) - Fraction(3, 2)
        assert type(x.at(1)) is Fraction and x.at(1) == -2
        with pytest.raises(ZeroDivisionError):
            x.at(0)

    def test_division_by_one_minus_q(self):
        q = Laurent.q()
        p = q * q - Laurent.q(-1)
        assert p.div_by_one_minus_q() == -(q + 1 + Laurent.q(-1))
        assert Laurent().div_by_one_minus_q() == 0
        with pytest.raises(ArithmeticError):
            (q + 1).div_by_one_minus_q()


def ratfunc_of(p):
    """The independent Q(q) image of a Laurent polynomial."""
    if p.low >= 0:
        return RatFunc((0,) * p.low + p.coeffs)
    return RatFunc(p.coeffs, (0,) * -p.low + (1,))


laurents = st.builds(Laurent, st.lists(st.integers(-5, 5), max_size=6), st.integers(-4, 4))


@given(laurents, laurents)
@settings(max_examples=200, deadline=None)
def test_laurent_ring_operations_match_ratfunc(a, b):
    assert ratfunc_of(a + b) == ratfunc_of(a) + ratfunc_of(b)
    assert ratfunc_of(a - b) == ratfunc_of(a) - ratfunc_of(b)
    assert ratfunc_of(a * b) == ratfunc_of(a) * ratfunc_of(b)
    assert (a == b) == (ratfunc_of(a) == ratfunc_of(b))


@given(laurents, st.booleans())
@settings(max_examples=200, deadline=None)
def test_division_by_one_minus_q_matches_ratfunc(p, make_divisible):
    if make_divisible:
        p = p * (1 - Laurent.q())
    quotient = ratfunc_of(p) / RatFunc((1, -1))
    # exact in Z[q, q^-1] iff the reduced denominator is a power of q
    if all(c == 0 for c in quotient.den[:-1]):
        assert ratfunc_of(p.div_by_one_minus_q()) == quotient
    else:
        assert not make_divisible
        with pytest.raises(ArithmeticError):
            p.div_by_one_minus_q()


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=100, deadline=None)
def test_ratfunc_field_laws(a, b, c, d):
    q = RatFunc.q()
    x = a + b * q
    y = c + d * q
    assert x * y == y * x
    assert (x + y) * q == x * q + y * q
    if y != 0 and x != 0:
        assert (x / y) * (y / x) == 1


def test_normalize_integer_vector():
    v = normalize_integer_vector({0: Fraction(-2, 3), 2: Fraction(4, 3)})
    assert v == {0: -1, 2: 2}
    assert normalize_integer_vector({}) == {}
    # ints: content and sign only, key order kept
    v = normalize_integer_vector({3: -6, 0: 4, 1: -2})
    assert list(v.items()) == [(3, 3), (0, -2), (1, 1)]
    assert all(type(x) is int for x in v.values())
    # integral Fractions and ints mixed come back as ints
    v = normalize_integer_vector({0: Fraction(4), 1: -6, 2: Fraction(2, 1)})
    assert list(v.items()) == [(0, 2), (1, -3), (2, 1)]
    assert all(type(x) is int for x in v.values())
    # the elimination rows share this scaling, and its TypeError
    with pytest.raises(TypeError):
        normalize_integer_vector({0: 1, 1: 0.5})


# ---------------------------------------------------------------------------
# independent oracles for the elimination engine
# ---------------------------------------------------------------------------

# every reduced p/q with 1 <= q <= 6 and |p/q| <= 4, the values that
# st.fractions(min_value=-4, max_value=4, max_denominator=6) can draw;
# sampling them from a list is about twice as fast to generate
_FRACTIONS = sorted({Fraction(p, q) for q in range(1, 7) for p in range(-4 * q, 4 * q + 1)})
_entry = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-6, 6),
    st.sampled_from(_FRACTIONS),
)


@st.composite
def sparse_system(draw):
    """A sparse rational matrix (at most 10 x 14) and a right-hand side.

    Half the time a last row is appended that combines two others.
    Independently, half the time the right-hand side is perturbed on the
    last row, which makes the system inconsistent whenever that row
    depends on the others.
    """
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 14))
    data = draw(st.lists(st.lists(_entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    if rows >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(rows)))[:2]
        c, d = draw(_entry), draw(_entry)
        data.append([c * x + d * y for x, y in zip(data[i], data[j])])
    m = mat(data)
    x = {j: draw(_entry) for j in range(cols)}
    b = m.apply({j: v for j, v in x.items() if v})
    if draw(st.booleans()):
        k = m.rows - 1
        b = vec_add(b, {k: draw(st.integers(1, 5))})
    return m, b


def _permuted(m, b, perm):
    """P·m and P·b, where row i of the result is row perm[i] of the input."""
    inv = {old: new for new, old in enumerate(perm)}
    pm = SparseMat(m.rows, m.cols, {(inv[i], j): x for (i, j), x in m.entries.items()})
    return pm, {inv[i]: x for i, x in b.items()}


def _items(vectors):
    return [list(v.items()) for v in vectors]


@given(sparse_system(), st.data())
@settings(max_examples=150, deadline=None)
def test_row_permutation_does_not_change_outputs(system, data):
    m, b = system
    perm = data.draw(st.permutations(range(m.rows)))
    pm, pb = _permuted(m, b, perm)
    assert _items(nullspace(pm)) == _items(nullspace(m))
    x, px = solve(m, b), solve(pm, pb)
    if x is None:
        assert px is None
    else:
        assert px is not None and list(px.items()) == list(x.items())
        assert m.apply(x) == b


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, m, b):
    def q(x):
        x = Fraction(x)
        return sympy.Rational(x.numerator, x.denominator)

    a = sympy.zeros(m.rows, m.cols)
    for (i, j), x in m.entries.items():
        a[i, j] = q(x)
    rhs = sympy.zeros(m.rows, 1)
    for i, x in b.items():
        rhs[i, 0] = q(x)
    return a, rhs


def _from_sympy(column):
    return {i: Fraction(int(x.p), int(x.q)) for i, x in enumerate(column) if x != 0}


@given(sparse_system())
@settings(max_examples=60, deadline=None)
def test_against_sympy(sympy, system):
    m, b = system
    a, rhs = _to_sympy(sympy, m, b)
    expected = [normalize_integer_vector(_from_sympy(v)) for v in a.nullspace()]
    assert nullspace(m) == expected
    try:
        sol, params = a.gauss_jordan_solve(rhs)
    except ValueError:  # sympy's verdict for an inconsistent system
        assert solve(m, b) is None
    else:
        particular = sol.subs({p: 0 for p in params})
        assert solve(m, b) == _from_sympy(particular)


def test_non_rational_entries_rejected():
    m = SparseMat(1, 2, {(0, 0): RatFunc.q(), (0, 1): Fraction(1)})
    for f in (nullspace, rank):
        with pytest.raises(TypeError):
            f(m)
    with pytest.raises(TypeError):
        solve(m, {0: Fraction(1)})
    with pytest.raises(TypeError):
        solve(mat([[1, 2]]), {0: 1.5})


def _gauss_jordan(m, b):
    """Reference solve: dense Fraction Gauss-Jordan elimination taking the
    columns left to right.  Returns the solution with every free
    coordinate 0 as (column, value) pairs of its nonzero values in
    decreasing pivot column, or None when the system is inconsistent."""
    a = [[Fraction(m[i, j]) for j in range(m.cols)] + [Fraction(b.get(i, 0))]
         for i in range(m.rows)]
    pivots, r = [], 0
    for c in range(m.cols):
        k = next((i for i in range(r, m.rows) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append((c, r))
        r += 1
    if any(a[i][m.cols] for i in range(r, m.rows)):
        return None
    return [(c, a[i][m.cols]) for c, i in reversed(pivots) if a[i][m.cols]]


@given(sparse_system())
@example(system=(mat([[2, 0], [0, 3]]), {0: 1, 1: 1}))
@example(system=(mat([[2, 0, 1], [0, 3, 0]]), {0: 1, 1: 6}))  # one int, one Fraction
@example(system=(mat([[2, 4, 1], [0, 3, 6]]), {0: 1, 1: 2}))
@example(system=(mat([[Fraction(1, 2), Fraction(1, 3)], [3, -1]]), {0: 1, 1: Fraction(2, 7)}))
@settings(max_examples=150, deadline=None)
def test_solve_matches_fraction_gauss_jordan(system):
    m, b = system
    expected = _gauss_jordan(m, b)
    x = solve(m, b)
    if expected is None:
        assert x is None
        return
    assert list(x.items()) == expected
    for v in x.values():
        # an int exactly when the value is integral
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction)


@st.composite
def shared_matrix_system(draw):
    """A sparse_system matrix with 1-4 right-hand sides, each one of: the
    drawn b; m applied to a vector that may have Fraction entries, so in
    the image; the drawn b plus a Fraction on one row, often outside the
    image; the empty b."""
    m, b = draw(sparse_system())

    def rhs():
        kind = draw(st.sampled_from(["drawn", "image", "perturbed", "empty"]))
        if kind == "image":
            return m.apply({j: x for j in range(m.cols) if (x := draw(_entry))})
        if kind == "perturbed":
            row = draw(st.integers(0, m.rows - 1))
            return vec_add(b, {row: draw(st.sampled_from(_FRACTIONS).filter(bool))})
        return b if kind == "drawn" else {}

    return m, [rhs() for _ in range(draw(st.integers(1, 4)))]


@given(shared_matrix_system())
@settings(max_examples=100, deadline=None)
def test_solve_each_matches_each_system_alone(system):
    m, bs = system
    xs = solve_each(m, bs)
    assert len(xs) == len(bs)
    for x, b in zip(xs, bs):
        expected = _gauss_jordan(m, b)
        if expected is None:
            assert x is None
            continue
        assert list(x.items()) == expected
        assert all(type(v) is (int if Fraction(v).denominator == 1 else Fraction)
                   for v in x.values())
        assert m.apply(x) == b


def test_solve_each_checks_every_index():
    m = mat([[1, 0], [0, 1]])
    assert solve_each(m, []) == []
    for bad in ({2: 1}, {-1: 1}):
        for bs in ([bad], [{0: 1}, bad], [bad, {}]):
            with pytest.raises(ValueError):
                solve_each(m, bs)


@given(sparse_system())
@settings(max_examples=150, deadline=None)
def test_nullspace_vectors_are_primitive_ints(system):
    m, _ = system
    for v in nullspace(m):
        assert v and all(type(x) is int for x in v.values())
        assert gcd(*v.values()) == 1
        assert v[max(v)] > 0
        assert m.apply(v) == {}


def test_constructor_still_checks_the_range():
    with pytest.raises(IndexError):
        SparseMat(2, 2, {(2, 0): 1})
    with pytest.raises(IndexError):
        SparseMat(2, 2, {(0, -1): 1})


@st.composite
def matrix_pair(draw):
    """Two matrices of shapes r x k and k x c, or of equal shape."""
    r, k, c = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    shapes = ((r, k), (r, k)) if draw(st.booleans()) else ((r, k), (k, c))

    def one(rows, cols):
        return SparseMat(rows, cols, {(i, j): draw(_entry)
                                      for i in range(rows) for j in range(cols)})
    return one(*shapes[0]), one(*shapes[1]), draw(_entry)


def _checked(m):
    """The same matrix rebuilt through the checked public constructor."""
    return SparseMat(m.rows, m.cols, m.entries)


@given(matrix_pair())
@settings(max_examples=200, deadline=None)
def test_unchecked_results_pass_the_checked_constructor(pair):
    a, b, c = pair
    results = [a.scale(c), b.scale(c), a.scale(0)]
    if a.cols == b.rows:
        results.append(a @ b)
    if (a.rows, a.cols) == (b.rows, b.cols):
        results += [a + b, a - b, a - a]
    for r in results:
        assert r == _checked(r) and r.entries == _checked(r).entries
        assert all(0 <= i < r.rows and 0 <= j < r.cols and x
                   for (i, j), x in r.entries.items())

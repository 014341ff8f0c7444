import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from oracles import embed_morphism, from_rows, rank, zero_equivalent

from vermalab import adelman as ad
from vermalab import fixtures
from vermalab.exactla import SparseMat, solve
from vermalab.fixtures import FixtureError, load_json


def embedded_pair():
    X = ad.embed(1)
    return X, ad.identity_of(X)


class TestMorphisms:
    def test_identity_commutes(self):
        X, idX = embedded_pair()
        assert ad.is_morphism(idX)

    def test_zero_commutes(self):
        rng = random.Random(1)
        X = ad.random_object(rng)
        Y = ad.random_object(rng)
        assert ad.is_morphism(ad.zero_morphism(X, Y))

    def test_any_middle_map_between_embedded(self):
        f = embed_morphism(from_rows([[1], [2]]))
        assert ad.is_morphism(f)

    def test_random_morphisms_commute(self):
        rng = random.Random(2)
        for _ in range(20):
            X = ad.random_object(rng)
            Y = ad.random_object(rng)
            [f] = ad.random_morphism(rng, X, Y, 1)
            assert ad.is_morphism(f)

    def test_a_batch_of_draws_is_the_draws_one_by_one(self):
        rng = random.Random(12)
        for _ in range(20):
            X = ad.random_object(rng)
            Y = ad.random_object(rng)
            one, batch = random.Random(), random.Random()
            one.setstate(rng.getstate())
            batch.setstate(rng.getstate())
            singles = [ad.random_morphism(one, X, Y, 1)[0] for _ in range(4)]
            assert ad.random_morphism(batch, X, Y, 4) == singles
            assert batch.getstate() == one.getstate()


class TestHomotopy:
    def test_reflexive_with_zero_witness(self):
        X, idX = embedded_pair()
        h = ad.homotopic(idX, idX)
        assert h is not None
        assert h.s1.is_zero() and h.s2.is_zero()

    def test_embedded_objects_rigid(self):
        # between embedded objects the relation degenerates to equality
        f = embed_morphism(from_rows([[2]]))
        g = embed_morphism(from_rows([[3]]))
        assert ad.homotopic(f, g) is None
        assert ad.homotopic(f, f) is not None

    def test_constructed_coboundary_pair(self):
        rng = random.Random(3)
        for _ in range(20):
            X = ad.random_object(rng)
            Y = ad.random_object(rng)
            [f] = ad.random_morphism(rng, X, Y, 1)
            d, witness = ad.random_null_homotopic(rng, X, Y)
            g = ad.TripleMorphism(X, Y, f.x1 + d.x1, f.x2 + d.x2, f.x3 + d.x3)
            assert ad.is_morphism(g)
            assert ad.homotopic(f, g) is not None
            del witness

    def test_congruence_properties(self):
        rep = ad.congruence_checks(seed=1729, trials=30, max_dim=3)
        assert rep.ok

    def test_shape_mismatch(self):
        f = embed_morphism(from_rows([[1]]))
        g = embed_morphism(from_rows([[1, 0], [0, 1]]))
        with pytest.raises(ValueError):
            ad.homotopic(f, g)


class TestKernelCokernel:
    def test_kernel_of_identity_vanishes(self):
        X, idX = embedded_pair()
        ker, _ = ad.kernel(idX)
        assert zero_equivalent(ker)

    def test_cokernel_of_identity_vanishes(self):
        X, idX = embedded_pair()
        cok, _ = ad.cokernel(idX)
        assert zero_equivalent(cok)

    def test_kernel_of_zero_is_object(self):
        rng = random.Random(11)
        for _ in range(5):
            X = ad.random_object(rng)
            z = ad.zero_morphism(X, X)
            ker, inc = ad.kernel(z)
            g = ad.factors_through_kernel(ad.identity_of(X), inc)
            assert g is not None
            assert ad.homotopic(ad.compose(inc, g), ad.identity_of(X)) is not None
            assert ad.homotopic(ad.compose(g, inc), ad.identity_of(ker)) is not None

    def test_cokernel_of_zero_is_object(self):
        rng = random.Random(12)
        for _ in range(5):
            X = ad.random_object(rng)
            z = ad.zero_morphism(X, X)
            cok, proj = ad.cokernel(z)
            g = ad.factors_through_cokernel(ad.identity_of(X), proj)
            assert g is not None
            assert ad.homotopic(ad.compose(g, proj), ad.identity_of(X)) is not None
            assert ad.homotopic(ad.compose(proj, g), ad.identity_of(cok)) is not None

    def test_rational_factorization_composes(self):
        # adelman works over Q: at this seed the factorization of a cokernel
        # projection through itself holds Fractions, which re-enter the
        # elimination when it is composed and compared
        rng = random.Random(3)
        X, Y = ad.random_object(rng), ad.random_object(rng)
        [f] = ad.random_morphism(rng, X, Y, 1)
        cok, proj = ad.cokernel(f)
        g = ad.factors_through_cokernel(proj, proj)
        assert any(type(x) is Fraction for x in g.x2.entries.values())
        assert ad.homotopic(ad.compose(g, proj), proj) is not None
        assert ad.homotopic(g, ad.identity_of(cok)) is not None
        ker, _ = ad.kernel(g)
        cok_g, _ = ad.cokernel(g)
        assert zero_equivalent(ker) and zero_equivalent(cok_g)
        assert ad.is_morphism(ad.random_morphism(rng, cok, cok, 1)[0])

    def test_kernel_of_embedded_mono_vanishes(self):
        t = embed_morphism(from_rows([[1]]))
        ker, _ = ad.kernel(t)
        assert zero_equivalent(ker)

    def test_cokernel_of_embedded_zero_map(self):
        t = embed_morphism(SparseMat(2, 1))  # 0 map Q -> Q^2
        cok, proj = ad.cokernel(t)
        # target embeds equivalently into the cokernel of a zero map
        idY = ad.identity_of(t.target)
        g = ad.factors_through_cokernel(idY, proj)
        assert g is not None

    def test_injectivity_detection_by_kernel(self):
        # kernel(embed(f)) is zero-equivalent iff f is injective
        inj = embed_morphism(from_rows([[1], [1]]))
        non = embed_morphism(from_rows([[1, 1]]))
        ker_i, _ = ad.kernel(inj)
        ker_n, _ = ad.kernel(non)
        assert zero_equivalent(ker_i)
        assert not zero_equivalent(ker_n)

    def test_surjectivity_detection_by_cokernel(self):
        sur = embed_morphism(from_rows([[1, 0]]))
        non = embed_morphism(from_rows([[1], [0]]))
        cok_s, _ = ad.cokernel(sur)
        cok_n, _ = ad.cokernel(non)
        assert zero_equivalent(cok_s)
        assert not zero_equivalent(cok_n)

    def test_rank_criteria_on_random_matrices(self):
        rng = random.Random(31)
        for _ in range(15):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            f = SparseMat(rows, cols,
                          {(i, j): Fraction(rng.randint(-2, 2))
                           for i in range(rows) for j in range(cols)})
            t = embed_morphism(f)
            ker, _ = ad.kernel(t)
            cok, _ = ad.cokernel(t)
            assert zero_equivalent(ker) == (rank(f) == cols)
            assert zero_equivalent(cok) == (rank(f) == rows)

    def test_rejects_non_morphism(self):
        X = ad.embed(1)
        Y = ad.DoubleArrow((1, 1, 1),
                           from_rows([[1]]), from_rows([[1]]))
        bad = ad.TripleMorphism(Y, Y, from_rows([[1]]),
                                from_rows([[2]]), from_rows([[1]]))
        if not ad.is_morphism(bad):
            with pytest.raises(ValueError):
                ad.kernel(bad)
        del X


class TestRecords:
    def test_double_arrows_check_their_shapes(self):
        one, wide = from_rows([[1]]), from_rows([[1, 0]])
        assert ad.DoubleArrow((1, 1, 1), one, one).dims == (1, 1, 1)
        with pytest.raises(ValueError, match="^first arrow has wrong shape$"):
            ad.DoubleArrow((1, 1, 1), wide, one)
        with pytest.raises(ValueError, match="^second arrow has wrong shape$"):
            ad.DoubleArrow((1, 1, 1), one, wide)

    def test_arrows_and_morphisms_are_frozen(self):
        X, idX = embedded_pair()
        for record, field in ((X, "dims"), (X, "m1"), (X, "m2"),
                              (idX, "source"), (idX, "target"), (idX, "x2")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)


class TestEmbedding:
    def test_functoriality_on_random_pairs(self):
        rng = random.Random(21)
        for _ in range(10):
            f = from_rows(
                [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            g = from_rows(
                [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            lhs = embed_morphism(f @ g)
            rhs = ad.compose(embed_morphism(f), embed_morphism(g))
            assert lhs == rhs

    def test_identity_preserved(self):
        assert embed_morphism(SparseMat.identity(2)) == ad.identity_of(ad.embed(2))

    def test_full_faithfulness_on_samples(self):
        # homotopy classes between embedded objects = plain matrices
        rng = random.Random(22)
        for _ in range(10):
            f = from_rows([[rng.randint(-2, 2) for _ in range(2)]
                                     for _ in range(2)])
            g = from_rows([[rng.randint(-2, 2) for _ in range(2)]
                                     for _ in range(2)])
            same = ad.homotopic(embed_morphism(f), embed_morphism(g)) is not None
            assert same == (f == g)


class TestInterpretation:
    def test_resolution_matches_fixture(self):
        frozen = load_json(fixtures.ADELMAN_FIXTURE)
        rep = ad.resolve_interpretation(seed=1729)
        assert rep.kernel_choice == frozen["kernel"]
        assert rep.cokernel_choice == frozen["cokernel"]

    def test_stable_across_seeds(self):
        choices = set()
        for seed in (5, 17, 23):
            rep = ad.resolve_interpretation(seed=seed)
            choices.add((rep.kernel_choice, rep.cokernel_choice))
        assert len(choices) == 1

    def test_literal_reading_fails_oracle(self):
        # the hand discriminator: embed(Q) -> (Q ->1 Q -> 0), middle 1
        X = ad.embed(1)
        Y = ad.DoubleArrow((1, 1, 0), from_rows([[1]]), SparseMat(0, 1))
        t = ad.TripleMorphism(X, Y, SparseMat(1, 0),
                              from_rows([[1]]), SparseMat(0, 0))
        u = ad.identity_of(X)
        assert ad.homotopic_to_zero(ad.compose(t, u)) is not None
        _, inc_lit = ad.KERNEL_INTERPRETATIONS["literal-middle"](t)
        _, inc_ext = ad.KERNEL_INTERPRETATIONS["extended-middle"](t)
        assert ad.factors_through_kernel(u, inc_lit) is None
        assert ad.factors_through_kernel(u, inc_ext) is not None

    @pytest.mark.parametrize("content", [
        None,
        "{not json",
        '["extended-middle", "extended-middle"]',
        '{"kernel": "extended-middle"}',
        '{"kernel": "extended-middle", "cokernel": "no-such-reading"}',
        '{"kernel": ["extended-middle"], "cokernel": "extended-middle"}',
    ], ids=["missing", "not-json", "not-an-object", "missing-key",
            "unknown-reading", "unhashable-reading"])
    def test_missing_or_malformed_fixture_raises(self, tmp_path, monkeypatch, content):
        path = tmp_path / "adelman_interpretation.json"
        if content is not None:
            path.write_text(content)
        monkeypatch.setattr(fixtures, "ADELMAN_FIXTURE", path)
        ad.frozen_interpretation.cache_clear()
        with pytest.raises(FixtureError):
            ad.frozen_interpretation()
        with pytest.raises(FixtureError):
            ad.kernel(ad.identity_of(ad.embed(1)))


def test_universal_property_battery():
    rep = ad.universal_property_trials(seed=1729, trials=30, max_dim=3)
    assert rep.ok


# seed -> (literal-middle kernel failures, literal-middle cokernel
# failures, sha256 prefix of 40 random draws); a change to a nullspace
# basis, a particular solution or the order of the draws moves them
PINNED_DRAWS = {
    1729: (1, 2, "417daa7a80faa74c"),
    7: (4, 1, "07cc0aceff4ae322"),
    42: (1, 1, "97de7b8c93a40c3a"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_DRAWS))
def test_random_draws_are_pinned(seed):
    literal_kernel, literal_cokernel, digest = PINNED_DRAWS[seed]
    rep = ad.resolve_interpretation(seed)
    assert rep.trials == 24
    assert rep.kernel_scores == {"extended-middle": 0, "literal-middle": literal_kernel}
    assert rep.cokernel_scores == {"extended-middle": 0, "literal-middle": literal_cokernel}
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(40):
        X = ad.random_object(rng, 4)
        Y = ad.random_object(rng, 4)
        [f] = ad.random_morphism(rng, X, Y, 1)
        d, w = ad.random_null_homotopic(rng, X, Y)
        for m in (f.x1, f.x2, f.x3, d.x1, d.x2, d.x3, w.s1, w.s2):
            h.update(repr((m.rows, m.cols,
                           sorted((k, str(v)) for k, v in m.entries.items()))).encode())
    assert h.hexdigest()[:16] == digest


def probed_system(shapes, residual, targets):
    """Oracle for the constraint builder: column k of the matrix is the
    residual at the k-th unit vector, each residual matrix flattened
    row-major after the previous one; targets (None for zero) flatten
    the same way into the right-hand side."""
    offsets = [0]
    for r, c in shapes:
        offsets.append(offsets[-1] + r * c)

    def unit(col):
        return [SparseMat(r, c, {divmod(col - off, c): 1} if off <= col < off + r * c else {})
                for (r, c), off in zip(shapes, offsets)]

    def flat(mats):
        out, base = {}, 0
        for m in mats:
            for (i, j), x in m.entries.items():
                out[base + i * m.cols + j] = x
            base += m.rows * m.cols
        return out, base

    zero = residual(*unit(-1))
    ent = {}
    for col in range(offsets[-1]):
        for row, x in flat(residual(*unit(col)))[0].items():
            ent[row, col] = x
    rhs, height = flat([z if t is None else t for z, t in zip(zero, targets)])
    return SparseMat(height, offsets[-1], ent), rhs


def triple_shapes(src, tgt):
    return [(b, a) for a, b in zip(src.dims, tgt.dims)]


def squares(src, tgt, x1, x2, x3):
    return [x2 @ src.m1 - tgt.m1 @ x1, x3 @ src.m2 - tgt.m2 @ x2]


def homotopy_system(src, tgt):
    """Shapes of a homotopy (s1, s2) between triples src -> tgt, and the
    residual b' s1 + s2 a."""
    shapes = [(tgt.dims[0], src.dims[1]), (tgt.dims[1], src.dims[2])]
    return shapes, lambda s1, s2: [tgt.m1 @ s1 + s2 @ src.m2]


def factor_system(us, through, side):
    """Shapes of (v1, v2, v3, s1, s2) for through o v ~ u (side 'kernel',
    v: W -> ker) or v o through ~ u (side 'cokernel', v: cok -> W), and
    the residual: both squares of v, then middle + b' s1 + s2 a."""
    src, tgt = us[0].source, us[0].target
    vsrc, vtgt = (src, through.source) if side == "kernel" else (through.target, tgt)

    def residual(v1, v2, v3, s1, s2):
        middle = through.x2 @ v2 if side == "kernel" else v2 @ through.x2
        return squares(vsrc, vtgt, v1, v2, v3) + [middle + tgt.m1 @ s1 + s2 @ src.m2]

    shapes = triple_shapes(vsrc, vtgt) + [(tgt.dims[0], src.dims[1]),
                                           (tgt.dims[1], src.dims[2])]
    return shapes, residual


def factor_tests(rng, f, W, side):
    """The arrow of f's kernel (side 'kernel') or cokernel, and two random
    morphisms W -> f.source or f.target -> W to factor through it."""
    if side == "kernel":
        return ad.kernel(f)[1], ad.random_morphism(rng, W, f.source, 2)
    return ad.cokernel(f)[1], ad.random_morphism(rng, f.target, W, 2)


def handed_over(targets_each):
    """The entries of targets_each (one list of targets per right-hand
    side, the solved-for target last) that reach the solver: a zero
    target is answered without one."""
    return [targets for targets in targets_each if not targets[-1].is_zero()]


def test_constraint_systems_match_unit_vector_oracle(monkeypatch):
    """Every system handed to the elimination engine equals the one read
    off the residual on unit vectors: homotopies, morphism spaces,
    null-homotopic morphisms and both factorizations, each right-hand
    side of a batch against its own target.  Zero targets are not handed
    over, and a batch of them hands over no system at all."""
    calls = []
    real_solve_each, real_nullspace = ad.solve_each, ad.nullspace

    def solve_each(m, bs):
        calls.append((m, bs))
        return real_solve_each(m, bs)

    def nullspace(m):
        calls.append((m, [{}]))
        return real_nullspace(m)

    monkeypatch.setattr(ad, "solve_each", solve_each)
    monkeypatch.setattr(ad, "nullspace", nullspace)

    def check_systems(fn, args, shapes, residual, targets_each):
        """Call fn, then compare the one system it hands over with the
        oracle, one right-hand side per entry of targets_each; with no
        entry, fn must hand over no system."""
        calls.clear()
        out = fn(*args)
        if not targets_each:
            assert calls == []
            return out
        [(m, bs)] = calls
        assert len(bs) == len(targets_each)
        for b, targets in zip(bs, targets_each):
            assert (m, b) == probed_system(shapes, residual, targets)
        return out

    rng = random.Random(4141)
    dims_seen, mixed_batches = set(), 0
    for _ in range(100):
        X, Y, W = (ad.random_object(rng) for _ in range(3))
        dims_seen.update(X.dims + Y.dims)

        [f] = check_systems(ad.random_morphism, (rng, X, Y, 1), triple_shapes(X, Y),
                            lambda *x: squares(X, Y, *x), [[None, None]])

        def null_residual(x1, x3, s1, s2):
            return squares(X, Y, x1, Y.m1 @ s1 + s2 @ X.m2, x3)

        shapes = [(Y.dims[0], X.dims[0]), (Y.dims[2], X.dims[2]),
                  (Y.dims[0], X.dims[1]), (Y.dims[1], X.dims[2])]
        d, _ = check_systems(ad.random_null_homotopic, (rng, X, Y), shapes,
                             null_residual, [[None, None]])

        g = ad.TripleMorphism(X, Y, f.x1 + d.x1, f.x2 + d.x2, f.x3 + d.x3)
        h_shapes, h_residual = homotopy_system(X, Y)
        check_systems(ad.homotopic, (f, g), h_shapes, h_residual,
                      handed_over([[f.x2 - g.x2]]))
        for pairs in ([(f, g), (g, f), (f, f)], [(f, f), (g, g)]):
            targets_each = [[a.x2 - b.x2] for a, b in pairs]
            batch = handed_over(targets_each)
            mixed_batches += 0 < len(batch) < len(targets_each)
            check_systems(ad._homotopies, (pairs,), h_shapes, h_residual, batch)

        for side, factor in (("kernel", ad.factors_through_kernel),
                             ("cokernel", ad.factors_through_cokernel)):
            through, us = factor_tests(rng, f, W, side)
            shapes, residual = factor_system(us, through, side)
            check_systems(factor, (us[0], through), shapes, residual,
                          handed_over([[None, None, us[0].x2]]))
            check_systems(ad._factors_up_to_homotopy, (us, through, side), shapes,
                          residual, handed_over([[None, None, u.x2] for u in us]))
            zero = ad.zero_morphism(us[0].source, us[0].target)
            check_systems(ad._factors_up_to_homotopy, ([zero, zero], through, side),
                          shapes, residual, [])
    assert 0 in dims_seen
    assert mixed_batches > 0


def unflatten(shapes, x):
    """The matrices of the given shapes whose row-major entries, one after
    another, are the vector x."""
    mats, base = [], 0
    for r, c in shapes:
        mats.append(SparseMat(r, c, {divmod(k - base, c): v for k, v in x.items()
                                     if base <= k < base + r * c}))
        base += r * c
    return mats


def solved_alone(shapes, residual, targets):
    """The unknowns of the probed system for one right-hand side, solved
    by itself through the full system, or None."""
    x = solve(*probed_system(shapes, residual, targets))
    return None if x is None else unflatten(shapes, x)


@pytest.mark.parametrize("seed", [1, 7, 42, 1729])
def test_zero_and_mixed_batches_answer_as_each_target_alone(seed):
    """A batch answers every target, zero or not, as the full system with
    that target alone does: a zero target by the zero solution, a
    nonzero one as if the zero ones were not in the batch."""
    rng = random.Random(seed)
    answered = {True: 0, False: 0}  # by whether the target is zero
    for _ in range(25):
        X, Y, W = (ad.random_object(rng) for _ in range(3))
        f, g = ad.random_morphism(rng, X, Y, 2)
        d, _ = ad.random_null_homotopic(rng, X, Y)
        fd = ad.TripleMorphism(X, Y, f.x1 + d.x1, f.x2 + d.x2, f.x3 + d.x3)
        h_shapes, h_residual = homotopy_system(X, Y)
        for pairs in ([(f, f), (g, g)], [(f, f), (f, fd), (g, f), (g, g), (fd, f)]):
            for (a, b), w in zip(pairs, ad._homotopies(pairs)):
                target = a.x2 - b.x2
                alone = solved_alone(h_shapes, h_residual, [target])
                assert (w is None) == (alone is None)
                if w is not None:
                    assert list(w) == alone
                    answered[target.is_zero()] += 1
        for side in ("kernel", "cokernel"):
            through, us = factor_tests(rng, f, W, side)
            zero = ad.zero_morphism(us[0].source, us[0].target)
            shapes, residual = factor_system(us, through, side)
            for batch in ([zero, zero], [zero, us[0], zero, us[1]]):
                for u, v in zip(batch, ad._factors_up_to_homotopy(batch, through, side)):
                    alone = solved_alone(shapes, residual, [None, None, u.x2])
                    assert (v is None) == (alone is None)
                    if v is not None:
                        assert [v.x1, v.x2, v.x3] == alone[:3]
                        answered[u.x2.is_zero()] += 1
    assert answered[True] > 0 and answered[False] > 0


def test_identities_are_plain_int():
    rng = random.Random(5)
    for _ in range(20):
        ident = ad.identity_of(ad.random_object(rng))
        assert all(type(x) is int
                   for m in (ident.x1, ident.x2, ident.x3) for x in m.entries.values())


# ---------------------------------------------------------------------------
# fault injection: each witness check fires on a corrupted solution
# ---------------------------------------------------------------------------

def unit_object():
    """Q -1-> Q -1-> Q: b' and a are identities, so a change to any
    homotopy coordinate changes b' s1 + s2 a."""
    one = SparseMat.identity(1)
    return ad.DoubleArrow((1, 1, 1), one, one)


def corrupt_solutions(monkeypatch, column):
    """Make adelman's solve_each add 1 to one coordinate of every
    solution it returns: the given column, counted from the end if
    negative."""
    real = ad.solve_each

    def corrupted(m, bs):
        col = column % m.cols
        return [x if x is None else {**x, col: x.get(col, 0) + 1} for x in real(m, bs)]

    monkeypatch.setattr(ad, "solve_each", corrupted)


def test_corrupted_homotopy_witness_is_caught(monkeypatch):
    # the identity of Q -1-> Q -1-> Q is null-homotopic by s1 = 1, s2 = 0,
    # a nonzero target that needs the solver
    X = unit_object()
    f, z = ad.identity_of(X), ad.zero_morphism(X, X)
    assert ad.homotopic(f, z) is not None
    corrupt_solutions(monkeypatch, -1)  # the last coordinate of s2
    with pytest.raises(AssertionError, match="failed re-verification"):
        ad.homotopic(f, z)


@pytest.mark.parametrize("side", ["kernel", "cokernel"])
def test_corrupted_factorization_witness_is_caught(monkeypatch, side):
    X = unit_object()
    build, factor = ((ad.kernel, ad.factors_through_kernel) if side == "kernel"
                     else (ad.cokernel, ad.factors_through_cokernel))
    _, arrow = build(ad.zero_morphism(X, X))
    u = ad.identity_of(X)
    assert factor(u, arrow) is not None
    corrupt_solutions(monkeypatch, -1)  # a homotopy coordinate: v stays a morphism
    with pytest.raises(AssertionError, match="witness fails homotopy check"):
        factor(u, arrow)
    corrupt_solutions(monkeypatch, 0)   # the first entry of v.x1
    with pytest.raises(AssertionError, match="produced a non-morphism"):
        factor(u, arrow)


def test_null_homotopic_construction_must_be_a_morphism(monkeypatch):
    # x1 = 1 with s1 = s2 = 0, hence x2 = 0: the first square fails
    X = unit_object()
    monkeypatch.setattr(ad, "_random_combination", lambda rng, basis: {0: 1})
    with pytest.raises(AssertionError, match="null-homotopic construction is not a morphism"):
        ad.random_null_homotopic(random.Random(1), X, X)


def test_resolution_without_a_unique_survivor_raises(monkeypatch):
    # with the literal kernel reading under both names, both fail a trial
    # by the 24th at seed 1729 and no kernel reading survives
    monkeypatch.setitem(ad.KERNEL_INTERPRETATIONS, "extended-middle", ad._kernel_middle_a)
    with pytest.raises(AssertionError, match="resolution not unique after 24 trials"):
        ad.resolve_interpretation(1729)


def test_unstable_freeze_writes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "adelman_interpretation.json"
    monkeypatch.setattr(fixtures, "ADELMAN_FIXTURE", path)
    saved = []
    monkeypatch.setattr(fixtures, "save_json", lambda *args: saved.append(args))
    real = ad.resolve_interpretation

    def resolve(seed):  # the middle seed disagrees on the kernel
        rep = real(seed)
        return rep._replace(kernel_choice="literal-middle") if seed == 1730 else rep

    monkeypatch.setattr(ad, "resolve_interpretation", resolve)
    with pytest.raises(AssertionError, match="interpretation unstable across seeds"):
        ad.freeze_interpretation(1729)
    assert saved == [] and not path.exists()


def test_a_batch_must_share_its_objects():
    X, Y = unit_object(), ad.embed(1)
    f, g = ad.identity_of(X), ad.identity_of(Y)
    with pytest.raises(ValueError):
        ad._homotopies([(f, f), (g, g)])
    _, inc = ad.kernel(ad.zero_morphism(X, X))
    with pytest.raises(ValueError):
        ad._factors_up_to_homotopy([f, ad.zero_morphism(Y, X)], inc, "kernel")


def test_failing_trials_name_their_witness(monkeypatch):
    # an inclusion that t does not kill fails the first stage whenever t
    # is not null-homotopic; the literal cokernel reading fails the second
    monkeypatch.setattr(ad, "kernel", lambda t: (t.source, ad.identity_of(t.source)))
    monkeypatch.setattr(ad, "cokernel", ad._cokernel_middle_b)
    rep = ad.universal_property_trials(seed=1729, trials=20)
    assert not rep.ok
    stages = {(f["side"], f["stage"]) for f in rep.failures}
    assert stages == {("kernel", "composite not null-homotopic"),
                      ("cokernel", "test morphism does not factor")}
    assert len(rep.failures) + rep.passed == 2 * 20
    trials = [f["trial"] for f in rep.failures]
    assert trials == sorted(trials) and 1 <= trials[0] and trials[-1] <= 20
    for f in rep.failures:
        assert set(f["dims"]) == {"X", "Y", "W"}
        assert all(len(d) == 3 for d in f["dims"].values())


# ---------------------------------------------------------------------------
# certified trials: the solve stays the oracle
# ---------------------------------------------------------------------------

CERTIFIED_TRIALS = 80


def count_calls(monkeypatch, calls, *names):
    """Count the calls made to each named adelman function in calls."""
    for name in names:
        def counted(*args, _real=getattr(ad, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(ad, name, counted)


def record_accepted(monkeypatch):
    """Make the trials' two witness checks list every witness they accept,
    as (check, its arguments)."""
    accepted = []
    for name in ("_is_null_witness", "_is_factor"):
        def recorded(*args, _real=getattr(ad, name), _name=name):
            ok = _real(*args)
            if ok:
                accepted.append((_name, args))
            return ok

        monkeypatch.setattr(ad, name, recorded)
    return accepted


def assert_the_solver_confirms(accepted):
    """Each accepted witness is what it claims: a null-homotopy of its f by
    the residual oracle, or a morphism v whose composite with the candidate
    the homotopy solver finds homotopic to u, and the solve agrees."""
    for name, args in accepted:
        if name == "_is_null_witness":
            f, w = args
            assert homotopy_system(f.source, f.target)[1](*w) == [f.x2]
            assert ad.homotopic_to_zero(f) is not None
        else:
            u, xs, through, side = args
            if side == "kernel":
                v = ad.TripleMorphism(u.source, through.source, *xs)
                composite = ad.compose(through, v)
            else:
                v = ad.TripleMorphism(through.target, u.target, *xs)
                composite = ad.compose(v, through)
            assert ad.is_morphism(v) and ad.homotopic(composite, u) is not None
            assert ad._factors_up_to_homotopy([u], through, side)[0] is not None


_SOLVE_ONLY = {}


def solve_only_report(seed):
    """The trials at seed with no witness counted: every check is solved."""
    if seed not in _SOLVE_ONLY:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_is_null_witness", lambda *args: False)
            mp.setattr(ad, "_is_factor", lambda *args: False)
            _SOLVE_ONLY[seed] = ad.universal_property_trials(seed, CERTIFIED_TRIALS)
    return _SOLVE_ONLY[seed]


@pytest.mark.parametrize("seed", [1729, 4242, 31337])
def test_certified_trials_equal_a_solve_only_run(seed, monkeypatch):
    accepted = record_accepted(monkeypatch)
    rep = ad.universal_property_trials(seed, CERTIFIED_TRIALS)
    assert rep == solve_only_report(seed)
    assert {name for name, _ in accepted} == {"_is_null_witness", "_is_factor"}
    assert_the_solver_confirms(accepted)


def test_fixture_readings_certify_every_factorization(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, "_factors_up_to_homotopy", "solve_each")
    assert ad.universal_property_trials(1729, 200).ok
    assert calls["_factors_up_to_homotopy"] == 0
    assert calls["solve_each"] == 208
    calls.clear()
    ad.resolve_interpretation(1729)
    assert calls["solve_each"] == 180
    calls.clear()
    ad.congruence_checks(1729, 50)
    assert calls["solve_each"] == 46


def _shifted(m):
    """m with 1 added to its first entry, or m itself when it has none."""
    return m + SparseMat(m.rows, m.cols, {(0, 0): 1}) if m.rows and m.cols else m


FAULTY_WITNESSES = {
    "negated s1": ("_null_witness", lambda w: ad.Homotopy(w.s1.scale(-1), w.s2),
                   "homotopic"),
    "perturbed v.x2": ("_factor_witness", lambda xs: (xs[0], _shifted(xs[1]), xs[2]),
                       "_factors_up_to_homotopy"),
    "wrongly shaped v": ("_factor_witness",
                         lambda xs: (SparseMat(xs[0].rows + 1, xs[0].cols), *xs[1:]),
                         "_factors_up_to_homotopy"),
    "no null-homotopy proposed": ("_null_witness", lambda w: None, "homotopic"),
    "no factor proposed": ("_factor_witness", lambda xs: None, "_factors_up_to_homotopy"),
}


@pytest.mark.parametrize("fault", sorted(FAULTY_WITNESSES))
def test_a_wrong_witness_falls_back_to_the_solve(fault, monkeypatch):
    builder, corrupt, solver = FAULTY_WITNESSES[fault]
    expected = solve_only_report(1729)
    calls = Counter()
    count_calls(monkeypatch, calls, solver)
    ad.universal_property_trials(1729, CERTIFIED_TRIALS)
    clean = calls[solver]
    monkeypatch.setattr(ad, builder, lambda *args, _real=getattr(ad, builder):
                        corrupt(_real(*args)))
    accepted = record_accepted(monkeypatch)
    calls.clear()
    assert ad.universal_property_trials(1729, CERTIFIED_TRIALS) == expected
    assert calls[solver] > clean
    assert_the_solver_confirms(accepted)

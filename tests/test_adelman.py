import hashlib
import random
from fractions import Fraction

import pytest
from oracles import rank

from vermalab import adelman as ad
from vermalab import fixtures
from vermalab.exactla import SparseMat
from vermalab.fixtures import FixtureError, load_adelman_fixture


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
        f = ad.embed_morphism(SparseMat.from_rows([[1], [2]]))
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
        f = ad.embed_morphism(SparseMat.from_rows([[2]]))
        g = ad.embed_morphism(SparseMat.from_rows([[3]]))
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
        f = ad.embed_morphism(SparseMat.from_rows([[1]]))
        g = ad.embed_morphism(SparseMat.from_rows([[1, 0], [0, 1]]))
        with pytest.raises(ValueError):
            ad.homotopic(f, g)


class TestKernelCokernel:
    def test_kernel_of_identity_vanishes(self):
        X, idX = embedded_pair()
        ker, _ = ad.kernel(idX)
        assert ad.zero_equivalent(ker)

    def test_cokernel_of_identity_vanishes(self):
        X, idX = embedded_pair()
        cok, _ = ad.cokernel(idX)
        assert ad.zero_equivalent(cok)

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

    def test_kernel_of_embedded_mono_vanishes(self):
        t = ad.embed_morphism(SparseMat.from_rows([[1]]))
        ker, _ = ad.kernel(t)
        assert ad.zero_equivalent(ker)

    def test_cokernel_of_embedded_zero_map(self):
        t = ad.embed_morphism(SparseMat(2, 1))  # 0 map Q -> Q^2
        cok, proj = ad.cokernel(t)
        # target embeds equivalently into the cokernel of a zero map
        idY = ad.identity_of(t.target)
        g = ad.factors_through_cokernel(idY, proj)
        assert g is not None

    def test_injectivity_detection_by_kernel(self):
        # kernel(embed(f)) is zero-equivalent iff f is injective
        inj = ad.embed_morphism(SparseMat.from_rows([[1], [1]]))
        non = ad.embed_morphism(SparseMat.from_rows([[1, 1]]))
        ker_i, _ = ad.kernel(inj)
        ker_n, _ = ad.kernel(non)
        assert ad.zero_equivalent(ker_i)
        assert not ad.zero_equivalent(ker_n)

    def test_surjectivity_detection_by_cokernel(self):
        sur = ad.embed_morphism(SparseMat.from_rows([[1, 0]]))
        non = ad.embed_morphism(SparseMat.from_rows([[1], [0]]))
        cok_s, _ = ad.cokernel(sur)
        cok_n, _ = ad.cokernel(non)
        assert ad.zero_equivalent(cok_s)
        assert not ad.zero_equivalent(cok_n)

    def test_rank_criteria_on_random_matrices(self):
        rng = random.Random(31)
        for _ in range(15):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            f = SparseMat(rows, cols,
                          {(i, j): Fraction(rng.randint(-2, 2))
                           for i in range(rows) for j in range(cols)})
            t = ad.embed_morphism(f)
            ker, _ = ad.kernel(t)
            cok, _ = ad.cokernel(t)
            assert ad.zero_equivalent(ker) == (rank(f) == cols)
            assert ad.zero_equivalent(cok) == (rank(f) == rows)

    def test_rejects_non_morphism(self):
        X = ad.embed(1)
        Y = ad.DoubleArrow((1, 1, 1),
                           SparseMat.from_rows([[1]]), SparseMat.from_rows([[1]]))
        bad = ad.TripleMorphism(Y, Y, SparseMat.from_rows([[1]]),
                                SparseMat.from_rows([[2]]), SparseMat.from_rows([[1]]))
        if not ad.is_morphism(bad):
            with pytest.raises(ValueError):
                ad.kernel(bad)
        del X


class TestRecords:
    def test_double_arrows_check_their_shapes(self):
        one, wide = SparseMat.from_rows([[1]]), SparseMat.from_rows([[1, 0]])
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
            f = SparseMat.from_rows(
                [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            g = SparseMat.from_rows(
                [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            lhs = ad.embed_morphism(f @ g)
            rhs = ad.compose(ad.embed_morphism(f), ad.embed_morphism(g))
            assert lhs == rhs

    def test_identity_preserved(self):
        assert ad.embed_morphism(SparseMat.identity(2)) == ad.identity_of(ad.embed(2))

    def test_full_faithfulness_on_samples(self):
        # homotopy classes between embedded objects = plain matrices
        rng = random.Random(22)
        for _ in range(10):
            f = SparseMat.from_rows([[rng.randint(-2, 2) for _ in range(2)]
                                     for _ in range(2)])
            g = SparseMat.from_rows([[rng.randint(-2, 2) for _ in range(2)]
                                     for _ in range(2)])
            same = ad.homotopic(ad.embed_morphism(f), ad.embed_morphism(g)) is not None
            assert same == (f == g)


class TestInterpretation:
    def test_resolution_matches_fixture(self):
        frozen = load_adelman_fixture()
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
        Y = ad.DoubleArrow((1, 1, 0), SparseMat.from_rows([[1]]), SparseMat(0, 1))
        t = ad.TripleMorphism(X, Y, SparseMat(1, 0),
                              SparseMat.from_rows([[1]]), SparseMat(0, 0))
        u = ad.identity_of(X)
        assert ad.homotopic_to_zero(ad.compose(t, u)) is not None
        _, inc_lit = ad.kernel(t, "literal-middle")
        _, inc_ext = ad.kernel(t, "extended-middle")
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
        monkeypatch.setattr(ad, "_frozen_choice", None)
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


def test_constraint_systems_match_unit_vector_oracle(monkeypatch):
    """Every system handed to the elimination engine equals the one read
    off the residual on unit vectors: homotopies, morphism spaces,
    null-homotopic morphisms and both factorizations, each right-hand
    side of a batch against its own target."""
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

    def check_first_system(fn, args, shapes, residual, targets_each):
        """Call fn, then compare its first system with the oracle, one
        right-hand side per entry of targets_each."""
        calls.clear()
        out = fn(*args)
        m, bs = calls[0]
        assert len(bs) == len(targets_each)
        for b, targets in zip(bs, targets_each):
            assert (m, b) == probed_system(shapes, residual, targets)
        return out

    rng = random.Random(4141)
    dims_seen = set()
    for _ in range(100):
        X, Y, W = (ad.random_object(rng) for _ in range(3))
        dims_seen.update(X.dims + Y.dims)

        [f] = check_first_system(ad.random_morphism, (rng, X, Y, 1), triple_shapes(X, Y),
                                 lambda *x: squares(X, Y, *x), [[None, None]])

        def null_residual(x1, x3, s1, s2):
            return squares(X, Y, x1, Y.m1 @ s1 + s2 @ X.m2, x3)

        shapes = [(Y.dims[0], X.dims[0]), (Y.dims[2], X.dims[2]),
                  (Y.dims[0], X.dims[1]), (Y.dims[1], X.dims[2])]
        d, _ = check_first_system(ad.random_null_homotopic, (rng, X, Y), shapes,
                                  null_residual, [[None, None]])

        g = ad.TripleMorphism(X, Y, f.x1 + d.x1, f.x2 + d.x2, f.x3 + d.x3)
        h_shapes = [(Y.dims[0], X.dims[1]), (Y.dims[1], X.dims[2])]

        def h_residual(s1, s2):
            return [Y.m1 @ s1 + s2 @ X.m2]

        check_first_system(ad.homotopic, (f, g), h_shapes, h_residual, [[f.x2 - g.x2]])
        pairs = [(f, g), (g, f), (f, f)]
        check_first_system(ad._homotopies, (pairs,), h_shapes, h_residual,
                           [[a.x2 - b.x2] for a, b in pairs])

        # through o v ~ u with v: W -> ker, and v o through ~ u with v: cok -> W
        for side in ("kernel", "cokernel"):
            if side == "kernel":
                ker, through = ad.kernel(f)
                us = ad.random_morphism(rng, W, X, 2)
                vsrc, vtgt = W, ker
                factor = ad.factors_through_kernel
            else:
                cok, through = ad.cokernel(f)
                us = ad.random_morphism(rng, Y, W, 2)
                vsrc, vtgt = cok, W
                factor = ad.factors_through_cokernel
            src, tgt = us[0].source, us[0].target

            def residual(v1, v2, v3, s1, s2):
                middle = through.x2 @ v2 if side == "kernel" else v2 @ through.x2
                return squares(vsrc, vtgt, v1, v2, v3) + [middle + tgt.m1 @ s1 + s2 @ src.m2]

            shapes = triple_shapes(vsrc, vtgt) + [(tgt.dims[0], src.dims[1]),
                                                   (tgt.dims[1], src.dims[2])]
            check_first_system(factor, (us[0], through), shapes, residual,
                               [[None, None, us[0].x2]])
            check_first_system(ad._factors_up_to_homotopy, (us, through, side), shapes,
                               residual, [[None, None, u.x2] for u in us])
    assert 0 in dims_seen


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
    f = ad.identity_of(unit_object())
    assert ad.homotopic(f, f) is not None
    corrupt_solutions(monkeypatch, -1)  # the last coordinate of s2
    with pytest.raises(AssertionError, match="failed re-verification"):
        ad.homotopic(f, f)


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

"""Truncated sl2-modules with exact action matrices.

Four module kinds are supported, all with exact e, f, h actions.  The
coefficients are ``int``, except T_r's cross coefficient, which is a
``Fraction`` where it is not integral:

- ``Ln``         the (n+1)-dimensional simple module, basis v_0..v_n
- ``Verma``      the highest weight module of weight lambda on w_k = x^k
- ``TensorLnV0`` the tensor product Ln (x) Verma(0) on v_i (x) w_k
- ``Tr``         the indecomposable projective cover, realized concretely
                 inside Ln (x) Verma(0) on the generator columns
                 {f^k a} u {f^k u}; its closed-form action is checked
                 on the spanning vectors, kept on their weight slices

A module stores a finite slice.  Depth counts f-steps from the top of
the relevant column, so e lowers depth, f raises it by at most one, and
h preserves it.  A module's weight and depth are functions of the
label, one each, supplied by its builder.  Identity checks are meaningful
only on the interior region: the labels whose images under every
operator word of length at most ``margin`` stay inside the slice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactla import SparseMat, nullspace, scalar_str, vec_iadd, vec_sub

__all__ = [
    "TruncatedModule",
    "TruncationError",
    "ConstructionError",
    "build_Ln",
    "build_verma",
    "build_tensor",
    "build_Tr",
    "casimir",
    "verify_category_I",
    "CategoryIReport",
    "apply_op",
    "apply_word",
    "module_to_json",
    "label_str",
]


class TruncationError(Exception):
    """An operation needed basis labels beyond the stored depth."""


class ConstructionError(Exception):
    """A built module's action disagrees with its realization."""


# Basis labels are plain tuples:
#   ("v", i)       basis vector v_i of Ln
#   ("w", k)       basis vector w_k = x^k of a Verma module
#   ("vw", i, k)   tensor basis vector v_i (x) w_k
#   ("a", k)       f^k applied to the projective generator a of Tr
#   ("u", k)       f^k applied to the highest weight generator u of Tr


def label_str(label):
    tag = label[0]
    if tag == "v":
        return f"v{label[1]}"
    if tag == "w":
        return f"w{label[1]}"
    if tag == "vw":
        return f"v{label[1]}*w{label[2]}"
    if tag in ("a", "u"):
        return f"{tag}{label[1]}"
    raise ValueError(f"unknown label {label!r}")


class TruncatedModule:
    """A finite slice of an sl2-module with exact e, f, h actions.

    ``basis`` lists the labels of depth <= depth; ``basis_ext`` extends
    one level deeper so the rectangular matrix of f is exact.  ``weight``
    and ``depth_of`` map a label to its weight and its depth.  ``complete``
    marks modules without truncation (only Ln), where every identity
    holds on the whole basis.
    """

    def __init__(self, kind, params, depth, basis, basis_ext, weight, depth_of,
                 act, complete=False):
        self.kind = kind
        self.params = dict(params)
        self.depth = depth
        self.basis = list(basis)
        self.basis_ext = list(basis_ext)
        self.weight = weight
        self.depth_of = depth_of
        self._act = act
        self.complete = complete
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.index_ext = {b: i for i, b in enumerate(self.basis_ext)}

    # -- label-level exact action --------------------------------------
    def act_label(self, op, label):
        """Exact action of op in {'e','f','h'} on one basis label.

        The result is a dict label -> coefficient in the untruncated module;
        raises TruncationError when the action is not known that deep.
        """
        if op == "h":
            mu = self.weight(label)
            return {label: mu} if mu else {}
        return self._act(op, label)

    # -- matrices -------------------------------------------------------
    def act_matrix(self, op):
        """Matrix of op on the slice: square for e and h, and for f a
        rectangular map from the slice into the one-deeper slice.

        Components falling outside the codomain slice are dropped; they
        can only occur outside the interior region.
        """
        rows = self.index_ext if op == "f" else self.index
        return SparseMat.from_columns(rows, [
            {lbl: c for lbl, c in self.act_label(op, b).items() if lbl in rows}
            for b in self.basis])

    # -- slices ---------------------------------------------------------
    def interior(self, margin):
        """Labels whose images under any e/f-word of length <= margin stay
        inside the slice."""
        if self.complete:
            return list(self.basis)
        return [b for b in self.basis if self.depth_of(b) + margin <= self.depth]

    def __repr__(self):
        return f"TruncatedModule({self.kind}, {self.params}, depth={self.depth}, dim={len(self.basis)})"


# ---------------------------------------------------------------------------
# vector-level application
# ---------------------------------------------------------------------------

def apply_op(module, op, vec):
    """Apply e, f or h to a dict label -> coefficient, exactly."""
    out = {}
    for label, c in vec.items():
        if c:
            vec_iadd(out, module.act_label(op, label), c)
    return out


def apply_word(module, word, vec):
    """Apply a word in {'e','f','h'} with the rightmost letter acting first."""
    for op in reversed(word):
        vec = apply_op(module, op, vec)
    return vec


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_Ln(n):
    """The (n+1)-dimensional simple module with highest weight n.

    f v_i = (i+1) v_{i+1},  e v_i = (n-i+1) v_{i-1},  h v_i = (n-2i) v_i.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    basis = [("v", i) for i in range(n + 1)]

    def act(op, label):
        i = label[1]
        if op == "e":
            return {("v", i - 1): n - i + 1} if i >= 1 else {}
        if op == "f":
            return {("v", i + 1): i + 1} if i < n else {}
        raise ValueError(op)

    return TruncatedModule("Ln", {"n": n}, n, basis, basis,
                           lambda lbl: n - 2 * lbl[1], lambda lbl: lbl[1],
                           act, complete=True)


def build_verma(lam, depth):
    """Verma module of highest weight lam on w_k = x^k, truncated at depth.

    f w_k = w_{k+1},  e w_k = k (lam - k + 1) w_{k-1},  h w_k = (lam - 2k) w_k.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    basis = [("w", k) for k in range(depth + 1)]
    basis_ext = [("w", k) for k in range(depth + 2)]

    def act(op, label):
        k = label[1]
        if op == "e":
            c = k * (lam - k + 1)
            return {("w", k - 1): c} if k >= 1 and c else {}
        if op == "f":
            return {("w", k + 1): 1}
        raise ValueError(op)

    return TruncatedModule("Verma", {"lam": lam}, depth, basis, basis_ext,
                           lambda lbl: lam - 2 * lbl[1], lambda lbl: lbl[1], act)


def build_tensor(n, depth):
    """The slice of Ln (x) Verma(0) on v_i (x) w_k with k <= depth.

    The action comes from the coproduct x -> x (x) 1 + 1 (x) x:
        e (v_i w_k) = (n-i+1) v_{i-1} w_k - k(k-1) v_i w_{k-1}
        f (v_i w_k) = (i+1) v_{i+1} w_k + v_i w_{k+1}
        h (v_i w_k) = (n - 2i - 2k) v_i w_k
    """
    if n < 0 or depth < 0:
        raise ValueError("n and depth must be nonnegative")
    basis = [("vw", i, k) for k in range(depth + 1) for i in range(n + 1)]
    basis_ext = [("vw", i, k) for k in range(depth + 2) for i in range(n + 1)]

    def act(op, label):
        _, i, k = label
        out = {}
        if op == "e":
            if i >= 1:
                out[("vw", i - 1, k)] = n - i + 1
            if k >= 2:  # k(k-1) vanishes for k <= 1
                out[("vw", i, k - 1)] = -k * (k - 1)
            return out
        if op == "f":
            if i < n:
                out[("vw", i + 1, k)] = i + 1
            out[("vw", i, k + 1)] = 1
            return out
        raise ValueError(op)

    return TruncatedModule("TensorLnV0", {"n": n}, depth, basis, basis_ext,
                           lambda lbl: n - 2 * lbl[1] - 2 * lbl[2], lambda lbl: lbl[2], act)


def build_Tr(r, n, depth):
    """The projective cover T_r realized inside Ln (x) Verma(0).

    The basis is {f^k a : k} u {f^k u : k} where a is the weight-(-r-2)
    generator on which the shifted Casimir is nilpotent of order exactly
    two and u is the highest weight vector of weight r.  Depth counts
    f-steps from u, so label ("u", k) has depth k and ("a", k) has depth
    k + r + 1.  T_r extends Verma(-r-2) by Verma(r), glued by the one
    scalar kappa with e a = kappa f^r u; f moves down each column, and
        e f^k u = k(r-k+1) f^(k-1) u,
        e f^k a = -k(k+r+1) f^(k-1) a + kappa f^(k+r) u.
    kappa is read off one coordinate by exact division (an int when
    integral).  The spanning vectors are kept on their weight slices of
    the tensor product, keyed by the slice index i, and every e image
    down to depth + 1 is checked by substituting them into these
    formulas under the closed-form slice matrix of e; a mismatch raises
    ConstructionError naming the label.
    """
    from . import enright  # deferred: enright builds on this module

    if depth < r + 1:
        raise ValueError(f"depth must be at least r+1={r + 1} to include the a-column")
    sets = enright.index_sets(n, 0)
    if r not in sets.Iprime:
        raise ValueError(f"r={r} is not an admissible projective index for n={n}")

    gen = enright.projective_generator(n, r)

    def f_tower(coefficients, count):
        """f^j of a slice vector given keyed (i, k), for j <= count."""
        tower = [{i: c for (i, _), c in coefficients.items()}]
        for _ in range(count):
            tower.append(enright._f_on_slice(n, tower[-1]))
        return tower

    towers = {"u": f_tower(gen.hwv.coefficients, depth + 1),
              "a": f_tower(gen.final_vector, depth - r)}

    def weight(lbl):
        return r - 2 * lbl[1] if lbl[0] == "u" else -r - 2 - 2 * lbl[1]

    def depth_of(lbl):
        return lbl[1] + (r + 1 if lbl[0] == "a" else 0)

    def labels_to_depth(d):
        """The labels of depth <= d by depth, u before a (the sort is stable)."""
        return sorted([("u", k) for k in range(d + 1)] + [("a", k) for k in range(d - r)],
                      key=depth_of)

    basis = labels_to_depth(depth)
    basis_ext = labels_to_depth(depth + 1)
    stored = set(basis_ext)

    e_images = {lbl: enright._e_restriction_matrix(n, weight(lbl))[0].apply(
        towers[lbl[0]][lbl[1]]) for lbl in basis_ext}
    # e a = kappa f^r u, read at the first coordinate of f^r u
    i = min(towers["u"][r])
    x, d = e_images["a", 0].get(i, 0), towers["u"][r][i]
    kappa = x // d if x % d == 0 else Fraction(x, d)

    def e_action(lbl):
        col, k = lbl
        c = k * (r - k + 1) if col == "u" else -k * (k + r + 1)
        out = {(col, k - 1): c} if c else {}
        if col == "a" and kappa:
            out["u", k + r] = kappa
        return out

    for lbl in basis_ext:
        expected = {}
        for (col, k), c in e_action(lbl).items():
            vec_iadd(expected, towers[col][k], c)
        if e_images[lbl] != expected:
            raise ConstructionError(
                f"e on {label_str(lbl)} is not the closed-form T_{r} action")

    def act(op, label):
        if label not in stored or depth_of(label) > depth + (op == "e"):
            raise TruncationError(f"{op} on {label_str(label)} exceeds depth {depth}")
        if op == "f":
            return {(label[0], label[1] + 1): 1}
        return e_action(label)

    return TruncatedModule("Tr", {"r": r, "n": n, "cross_coefficient": kappa}, depth,
                           basis, basis_ext, weight, depth_of, act)


# ---------------------------------------------------------------------------
# operators and reports
# ---------------------------------------------------------------------------

def casimir(m):
    """Matrix of the Casimir operator h^2 + 2h + 4fe on the slice.

    Columns for labels outside the interior region with margin 2 may be
    truncated; everything inside is exact.
    """
    return SparseMat.from_columns(m.index, [
        {lbl: c for lbl, c in casimir_on_vector(m, {b: 1}).items() if lbl in m.index}
        for b in m.basis])


def casimir_on_vector(m, vec):
    h1 = apply_op(m, "h", vec)
    out = vec_iadd(apply_op(m, "h", h1), h1, 2)
    return vec_iadd(out, apply_op(m, "f", apply_op(m, "e", vec)), 4)


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


def module_to_json(m):
    """JSON-ready document: labels, weights, and matrix triplet lists."""

    def triplets(mat):
        return [[i, j, scalar_str(x)] for (i, j), x in sorted(mat.entries.items())]

    return {
        "kind": m.kind,
        "params": {k: (v if isinstance(v, int) else scalar_str(v))
                   for k, v in m.params.items()},
        "depth": m.depth,
        "basis": [label_str(b) for b in m.basis],
        "basisExt": [label_str(b) for b in m.basis_ext],
        "weights": [m.weight(b) for b in m.basis],
        "actE": triplets(m.act_matrix("e")),
        "actF": triplets(m.act_matrix("f")),
        "actH": triplets(m.act_matrix("h")),
    }

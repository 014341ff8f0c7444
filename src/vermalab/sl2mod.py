"""Truncated sl2-modules with exact action matrices.

Four module kinds are supported, all with exact e, f, h actions and
``int`` coefficients:

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

The weight slices of Ln (x) V0 live here too, keyed by the slice index
i of v_i (x) w_k: ``tensor_weight_basis`` lists a slice, ``e_weight_matrix``
writes e from one slice to the next as ``{column: int}`` rows,
``f_on_slice`` moves a slice vector one weight down and ``apply_rows``
applies such rows; ``f_tower``, the one walk down by f, gives every
tower f^j v, and ``commutes_with_f`` checks a pair of slice maps against
f on unit vectors.  ``enright`` certifies its closed-form slice vectors
by substitution into these maps, and ``build_Tr`` takes the projective
generator record that ``enright.projective_generator`` checked,
extending the record's tower of u, so this module builds on ``exactla``
alone.
"""

from __future__ import annotations

from itertools import islice

from .exactla import SparseMat, vec_iadd

__all__ = [
    "TruncatedModule",
    "TruncationError",
    "ConstructionError",
    "UsageError",
    "build_Ln",
    "build_verma",
    "build_tensor",
    "build_Tr",
    "tensor_weight_basis",
    "e_weight_matrix",
    "f_on_slice",
    "f_tower",
    "commutes_with_f",
    "apply_rows",
    "apply_op",
    "module_to_json",
    "label_str",
]


class TruncationError(AssertionError):
    """An operation needed basis labels beyond the stored depth."""


class ConstructionError(AssertionError):
    """A built module's action disagrees with its realization."""


class UsageError(ValueError):
    """A mistaken input, such as an index that names no case: no check ran."""


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


# ---------------------------------------------------------------------------
# weight slices of Ln (x) V0
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


def e_weight_matrix(n, mu):
    """Rows of e from the weight-mu slice to the weight-(mu+2) slice,
    sending (i, k), at index i in both, to (n-i+1)(i-1, k) - k(k-1)(i, k-1).
    Returns the rows, row r a ``{column: int}`` dict without zeros."""
    rows = [{} for _ in tensor_weight_basis(n, mu + 2)]
    for i, k in tensor_weight_basis(n, mu):
        if i > 0:
            rows[i - 1][i] = n - i + 1
        if k > 1:
            rows[i][i] = -k * (k - 1)
    return rows


def f_on_slice(n, vec):
    """f on a slice vector keyed by i, into the slice one weight lower:
    (i, k), at index i in both, goes to (i+1)(i+1, k) + (i, k+1)."""
    out = {}
    for i, x in vec.items():
        out[i] = out.get(i, 0) + x
        if i < n:
            out[i + 1] = out.get(i + 1, 0) + (i + 1) * x
    return {i: x for i, x in out.items() if x}


def f_tower(n, known):
    """The f-tower v, f v, f^2 v, ... of a slice vector v, without end and
    one weight at a time: the entries of known, a list that starts with v,
    then each next one from the last."""
    yield from known
    vec = known[-1]
    while True:
        vec = f_on_slice(n, vec)
        yield vec


def commutes_with_f(n, upper, lower):
    """Whether lower f = f upper, for slice maps given by their columns
    (``{row: int}`` dicts), upper on a slice and lower on the slice one
    weight below: lower f e_i against f (upper e_i) on each unit vector."""
    for i, column in enumerate(upper):
        image = {}
        for j, x in f_on_slice(n, {i: 1}).items():
            vec_iadd(image, lower[j], x)
        if image != f_on_slice(n, column):
            return False
    return True


def apply_rows(rows, vec):
    """The image of a vector keyed by column under a slice map's rows,
    keyed by row in row order, without zeros."""
    image = {}
    for r, row in enumerate(rows):
        y = 0
        for j, a in row.items():
            if j in vec:
                y += a * vec[j]
        if y:
            image[r] = y
    return image


# ---------------------------------------------------------------------------
# the projective cover
# ---------------------------------------------------------------------------

def build_Tr(gen, depth):
    """The projective cover T_r realized inside Ln (x) Verma(0), from the
    projective generator record ``gen`` of index r = gen.s.

    The basis is {f^k a : k} u {f^k u : k} where a is the weight-(-r-2)
    generator on which the shifted Casimir is nilpotent of order exactly
    two and u is the highest weight vector of weight r.  Depth counts
    f-steps from u, so label ("u", k) has depth k and ("a", k) has depth
    k + r + 1.  T_r extends Verma(-r-2) by Verma(r), glued by the one
    scalar kappa with e a = kappa f^r u; f moves down each column, and
        e f^k u = k(r-k+1) f^(k-1) u,
        e f^k a = -k(k+r+1) f^(k-1) a + kappa f^(k+r) u.
    kappa is read off one coordinate by exact division, and a remainder
    raises ConstructionError.  The spanning vectors come from ``f_tower``,
    of a and of u from the record's tower, on their weight slices keyed by
    the slice index i, and every e image down to depth + 1 is checked by
    substituting them into these formulas under the slice rows of e; a
    mismatch raises ConstructionError naming the label.
    """
    r, n = gen.s, gen.n
    if depth < r + 1:
        raise ValueError(f"depth must be at least r+1={r + 1} to include the a-column")

    towers = {"u": list(islice(f_tower(n, gen.tower), depth + 2)),
              "a": list(islice(f_tower(n, [dict(enumerate(gen.final))]), depth - r + 1))}

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

    e_images = {lbl: apply_rows(e_weight_matrix(n, weight(lbl)), towers[lbl[0]][lbl[1]])
                for lbl in basis_ext}
    # e a = kappa f^r u, read at the first coordinate of f^r u
    i = min(towers["u"][r])
    kappa, rest = divmod(e_images["a", 0].get(i, 0), towers["u"][r][i])
    if rest:
        raise ConstructionError(f"the cross coefficient of T_{r} is not an integer")

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

def casimir_on_vector(m, vec):
    h1 = apply_op(m, "h", vec)
    out = vec_iadd(apply_op(m, "h", h1), h1, 2)
    return vec_iadd(out, apply_op(m, "f", apply_op(m, "e", vec)), 4)


def module_to_json(m):
    """JSON-ready document: labels, weights, and matrix triplet lists,
    each entry as its decimal string (int.__repr__ refuses a non-int)."""

    def triplets(mat):
        return [[i, j, int.__repr__(x)] for (i, j), x in sorted(mat.entries.items())]

    return {
        "kind": m.kind,
        "params": m.params,
        "depth": m.depth,
        "basis": [label_str(b) for b in m.basis],
        "basisExt": [label_str(b) for b in m.basis_ext],
        "weights": [m.weight(b) for b in m.basis],
        "actE": triplets(m.act_matrix("e")),
        "actF": triplets(m.act_matrix("f")),
        "actH": triplets(m.act_matrix("h")),
    }

"""Tensor constructions of the reflection representation and exact invariant
dimensions.

The key quantity everywhere is the dimension of the subspace fixed by the
whole group.  Because the simple reflections generate, that subspace is the
common kernel of (image - identity) over the generators alone, so no group
enumeration is ever required.

A simple reflection differs from the identity in one row, so a generator
image is held as its moved rows only, ``{row: {col: value}}``; dense input
is converted once, at ``rep_reflection``.  The double, symmetric and
alternating squares compute only the rows that move, each from the entries
of the rows it depends on, and both linear systems here (fixed
points and commutant) are assembled from the moved rows alone, as sparse
``{col: value}`` integer rows for one exact echelon rank.  Weyl matrices in
the simple-root basis are integral, so every value is an ``int``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .exact_linalg import Frozen, IntMatrix, SparseRow, integer_row_rank
from .root_data import RootDatum, simple_reflections

# Rows that differ from the identity, as {row: {col: value}}.
Image = dict[int, dict[int, int]]


@lru_cache(maxsize=None)
def pairs_strict(n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j) with i < j, lexicographic."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def pairs_weak(n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j) with i <= j, lexicographic."""
    return tuple((i, j) for i in range(n) for j in range(i, n))


class Representation(Frozen):
    """A finite-dimensional rational representation given on the generators.

    A generator image is held as ``{row: {col: value}}`` over the rows that
    differ from the identity; every other row is the identity row, and a
    held row may happen to equal it.  Values are ``int``: every construction
    from a Weyl group's reflection representation is integral.
    """

    def __init__(self, dim: int, generator_images: tuple[Image, ...]):
        for g in generator_images:
            for k, row in g.items():
                if not (0 <= k < dim and all(0 <= c < dim for c in row)):
                    raise ValueError("generator image has an index out of range")
        vars(self).update(dim=dim, generator_images=generator_images)


def _image(m: IntMatrix) -> Image:
    """The rows of a square matrix that differ from the identity, as {col: value}."""
    n = m.cols
    image = {}
    for k in range(m.rows):
        row = m.data[k * n : (k + 1) * n]
        if row[k] != 1 or row.count(0) != n - 1:
            image[k] = {c: x for c, x in enumerate(row) if x}
    return image


def rep_reflection(datum: RootDatum) -> Representation:
    """The rank-dimensional reflection representation, with integer images."""
    return Representation(datum.rank, tuple(_image(s) for s in simple_reflections(datum)))


# --- row-sparse constructions ------------------------------------------------


def _add(row: dict, col: int, x) -> None:
    """row[col] += x, keeping only nonzero entries."""
    x += row.get(col, 0)
    if x:
        row[col] = x
    else:
        row.pop(col, None)


def _double_matrix(g: Image, n: int) -> Image:
    """Block-diagonal diag(g, g); row i moves in both copies iff row i of g moves."""
    image = {k: dict(row) for k, row in g.items()}
    image.update((k + n, {c + n: x for c, x in row.items()}) for k, row in g.items())
    return image


def _sym2_matrix(g: Image, n: int) -> Image:
    """Induced action on degree-two monomials, basis x_i x_j with i <= j.

    Row (k, l) moves only if row k or row l of g moves; it has entry
    a_k[i] a_l[j] + a_l[i] a_k[j] at (i, j) (a_k[i] a_k[j] when k == l),
    built from the entries of rows k and l alone.
    """

    def col(i, j):
        # Position of (i, j), i <= j, in pairs_weak(n).
        return i * n - i * (i - 1) // 2 + j - i

    image = {}
    for r, (k, l) in enumerate(pairs_weak(n)):
        if k in g or l in g:
            ak = list(g.get(k, {k: 1}).items())
            row = {}
            if k == l:
                for t, (a, x) in enumerate(ak):
                    for b, y in ak[t:]:
                        row[col(min(a, b), max(a, b))] = x * y
            else:
                for a, x in ak:
                    for b, y in g.get(l, {l: 1}).items():
                        if a == b:
                            _add(row, col(a, a), 2 * x * y)
                        else:
                            _add(row, col(min(a, b), max(a, b)), x * y)
            image[r] = row
    return image


def _wedge2_matrix(g: Image, n: int) -> Image:
    """Induced action on elementary alternating tensors, basis e_i ^ e_j, i < j.

    Row (k, l) moves only if row k or row l of g moves; it has entry
    a_k[i] a_l[j] - a_l[i] a_k[j] at (i, j), built from the entries of rows k
    and l alone.
    """

    def col(i, j):
        # Position of (i, j), i < j, in pairs_strict(n).
        return i * n - i * (i + 1) // 2 + j - i - 1

    image = {}
    for r, (k, l) in enumerate(pairs_strict(n)):
        if k in g or l in g:
            row = {}
            for a, x in g.get(k, {k: 1}).items():
                for b, y in g.get(l, {l: 1}).items():
                    if a < b:
                        _add(row, col(a, b), x * y)
                    elif a > b:
                        _add(row, col(b, a), -x * y)
            image[r] = row
    return image


def rep_double(rep: Representation) -> Representation:
    """Block-diagonal doubling: two copies of the input side by side."""
    images = tuple(_double_matrix(g, rep.dim) for g in rep.generator_images)
    return Representation(2 * rep.dim, images)


def rep_sym2(rep: Representation) -> Representation:
    """Symmetric square, dimension n(n+1)/2."""
    images = tuple(_sym2_matrix(g, rep.dim) for g in rep.generator_images)
    return Representation(rep.dim * (rep.dim + 1) // 2, images)


def rep_wedge2(rep: Representation) -> Representation:
    """Alternating square, dimension n(n-1)/2."""
    images = tuple(_wedge2_matrix(g, rep.dim) for g in rep.generator_images)
    return Representation(rep.dim * (rep.dim - 1) // 2, images)


# --- generator-only linear systems ---------------------------------------------


def _columns(g: Image, n: int) -> list[dict]:
    """Every column of g as {row: value}.

    Column j has an entry at each moved row that is nonzero there, plus the
    identity's 1 at row j when row j does not move; a column whose row moved
    and which no moved row touches is zero.
    """
    cols = [{} if j in g else {j: 1} for j in range(n)]
    for k, row in g.items():
        for j, x in row.items():
            cols[j][k] = x
    return cols


def _fixed_point_rows(rep: Representation) -> list[SparseRow]:
    """The moved rows of (g - 1) over all generators g, as {col: value}."""
    out = []
    for g in rep.generator_images:
        for k, row in g.items():
            row = dict(row)
            _add(row, k, -1)
            out.append(row)
    return out


def invariant_dim(rep: Representation) -> int:
    """Dimension of the subspace fixed by every group element.

    Computed as the common kernel of (image - identity) over the generators,
    which equals the full invariant subspace because the generators generate.
    """
    return rep.dim - integer_row_rank(_fixed_point_rows(rep))


# --- structural checks --------------------------------------------------------


class InvariantReport(NamedTuple):
    """Invariant dimensions of the three tensor constructions plus
    irreducibility of the underlying reflection representation."""

    dim_sym2_inv: int
    dim_wedge2_inv: int
    dim_wedge2_doubled_inv: int
    irreducible: bool
    decomposition_consistent: bool

    @property
    def passed(self) -> bool:
        return (
            self.irreducible
            and self.dim_sym2_inv == 1
            and self.dim_wedge2_inv == 0
            and self.dim_wedge2_doubled_inv == 1
            and self.decomposition_consistent
        )


def invariant_report(datum: RootDatum) -> InvariantReport:
    """Run the full set of generator-only invariant checks for one datum.

    The alternating square of a doubled space splits into three copies of the
    alternating square plus one symmetric square, so the three invariant
    dimensions, each computed independently, must satisfy the same relation.
    """
    v = rep_reflection(datum)
    inv_s2 = invariant_dim(rep_sym2(v))
    inv_w2 = invariant_dim(rep_wedge2(v))
    inv_w2d = invariant_dim(rep_wedge2(rep_double(v)))
    return InvariantReport(
        dim_sym2_inv=inv_s2,
        dim_wedge2_inv=inv_w2,
        dim_wedge2_doubled_inv=inv_w2d,
        irreducible=irreducibility_check(v),
        decomposition_consistent=inv_w2d == 3 * inv_w2 + inv_s2,
    )


def _commutant_rows(rep: Representation) -> list[SparseRow]:
    """The equations gX = Xg over all generators g, on X flattened row-major.

    Entry (i, j) of gX - Xg is sum_a g[i, a] X[a, j] - sum_b X[i, b] g[b, j];
    it vanishes identically unless row i or column j of g moves, so only
    those equations are emitted, each as the sparse row of its coefficients.
    """
    n = rep.dim
    rows = []
    for g in rep.generator_images:
        cols = _columns(g, n)
        moved_cols = sorted(j for j, col in enumerate(cols) if col != {j: 1})
        for i in range(n):
            g_row = g.get(i, {i: 1})
            for j in range(n) if i in g else moved_cols:
                row = {}
                for a, x in g_row.items():
                    _add(row, a * n + j, x)
                for b, x in cols[j].items():
                    _add(row, i * n + b, -x)
                rows.append(row)
    return rows


def commutant_dimension(rep: Representation) -> int:
    """Dimension of { X : X commutes with every generator image }."""
    return rep.dim * rep.dim - integer_row_rank(_commutant_rows(rep))


def irreducibility_check(rep: Representation) -> bool:
    """True iff the commutant is one-dimensional.

    Over the rationals a one-dimensional commutant certifies absolute
    irreducibility.
    """
    return commutant_dimension(rep) == 1

"""Exact integer matrix arithmetic.

Everything here runs on arbitrary-precision Python integers; there is no
floating point.  ``IntMatrix`` is the one dense, immutable, row-major matrix
class; every integral object of the package (Cartan and Gram matrices, Weyl
group elements, lattice bases) is built as one.  Where a rational matrix is
meant, it is kept as an integer matrix over a denominator: the adjugate over
the determinant is the inverse.  ``IntMatrix`` and the package's other
immutable classes derive from ``Frozen``.

The normal forms return what their callers read: ``smith_normal_form`` the
invariant factors and the unimodular left transform (the discriminant group
reads its rows), ``hermite_normal_form`` the echelon basis alone.  A rank
is a count: ``integer_row_rank`` eliminates sparse rows fraction-free and
keeps no echelon.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence


class Frozen:
    """Base of the package's immutable classes: ``__init__`` sets each
    attribute once, through ``vars(self)`` (or ``object.__setattr__`` where
    there are slots), and any later assignment or deletion raises
    AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class IntMatrix(Frozen):
    """Immutable dense matrix with arbitrary-precision integer entries,
    stored row-major in a flat tuple.

    Anything with ``__index__`` is accepted (``int``, ``bool``, numpy
    integers); floats and ``Fraction`` values raise TypeError, never truncate.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        data = tuple(map(operator.index, entries))
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> IntMatrix:
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, (x for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (self.row(i) for i in range(self.rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"

    def __neg__(self) -> IntMatrix:
        return IntMatrix(self.rows, self.cols, (-x for x in self.data))

    def __add__(self, other: IntMatrix) -> IntMatrix:
        self._check_same_shape(other)
        return IntMatrix(self.rows, self.cols, (a + b for a, b in zip(self.data, other.data)))

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        self._check_same_shape(other)
        return IntMatrix(self.rows, self.cols, (a - b for a, b in zip(self.data, other.data)))

    def _check_same_shape(self, other: IntMatrix) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        rows = [a[i * k : (i + 1) * k] for i in range(n)]
        cols = [b[j::m] for j in range(m)]
        mul = operator.mul
        return IntMatrix(n, m, [sum(map(mul, row, col)) for row in rows for col in cols])

    def transpose(self) -> IntMatrix:
        return IntMatrix(
            self.cols, self.rows, (self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = a[k][k]
            for i in range(k + 1, n):
                aik = a[i][k]
                rowi = a[i]
                rowk = a[k]
                for j in range(k + 1, n):
                    rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
                rowi[k] = 0
            prev = pivot
        return sign * a[n - 1][n - 1]

    def adjugate(self) -> tuple[IntMatrix, int]:
        """``(x, d)`` with ``x @ self == d * I``, by fraction-free Gauss-Jordan.

        Eliminates on ``[self | I]`` above and below each pivot, dividing
        exactly by the previous pivot (Bareiss), so every entry stays an
        integer minor.  The last pivot is the determinant of the row-swapped
        matrix; the sign of the swaps is folded back in, so ``d == det(self)``
        and ``x`` is the adjugate.  The inverse is ``x / d``.  Raises
        ValueError when the matrix is singular.
        """
        if self.rows != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        a = [list(self.row(i)) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
        sign = 1
        prev = 1
        for k in range(n):
            if a[k][k] == 0:
                piv = next((i for i in range(k + 1, n) if a[i][k]), None)
                if piv is None:
                    raise ValueError("matrix is singular")
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            rowk = a[k]
            pivot = rowk[k]
            for i in range(n):
                if i == k:
                    continue
                rowi = a[i]
                aik = rowi[k]
                a[i] = [(x * pivot - aik * y) // prev for x, y in zip(rowi, rowk)]
            prev = pivot
        d = sign * prev
        return IntMatrix(n, n, (sign * x for row in a for x in row[n:])), d

    def content(self) -> int:
        """Gcd of all entries (0 for the zero matrix)."""
        g = 0
        for x in self.data:
            if x:
                g = gcd(g, x)
        return g


class SmithForm(NamedTuple):
    """Smith decomposition ``left @ m @ right == diag`` for some unimodular
    ``right``, which is not kept.

    ``diag`` holds the nonnegative invariant factors d1 | d2 | ... | dr followed
    by zeros, with length min(rows, cols) of the input.  ``left`` is unimodular,
    and row i of ``left @ m`` is divisible by ``diag[i]`` (zero past the rank).
    """

    diag: tuple[int, ...]
    left: IntMatrix

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        """Invariant factors greater than 1."""
        return tuple(d for d in self.diag if d > 1)

    @property
    def kernel_rank(self) -> int:
        return sum(1 for d in self.diag if d == 0)


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form with its unimodular left transform.

    Standard pivoting elimination: repeatedly move a smallest-magnitude entry
    to the pivot position, clear its row and column by exact division steps,
    and restore the divisibility chain by row merges whenever a remaining
    entry is not divisible by the pivot.
    """
    nrows, ncols = m.rows, m.cols
    a = m.to_rows()
    left = IntMatrix.identity(nrows).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] -= q * row[src]
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x - q * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] -= q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # Locate a smallest-magnitude nonzero pivot in the trailing block.
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # Clear column t below the pivot.
            restart = False
            for i in range(t + 1, nrows):
                v = a[i][t]
                if v:
                    q = v // a[t][t]
                    add_row(t, i, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            # Clear row t right of the pivot.
            for j in range(t + 1, ncols):
                v = a[t][j]
                if v:
                    q = v // a[t][t]
                    add_col(t, j, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # Pivot isolated; enforce divisibility of the trailing block.
            pivot = a[t][t]
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, -1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diag = tuple(a[i][i] if i < ncols else 0 for i in range(limit))
    return SmithForm(diag=diag, left=IntMatrix.from_rows(left))


def hermite_normal_form(m: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form ``h`` of ``m``.

    ``h`` is ``m`` times a unimodular matrix on the left, in row echelon form
    with positive pivots and entries above each pivot reduced to the range
    ``[0, pivot)``.  Zero rows sink to the bottom, so the nonzero rows of ``h``
    are a canonical basis of the row lattice of ``m``.
    """
    nrows, ncols = m.rows, m.cols
    a = m.to_rows()

    def combine(i, j, u, v, s, t):
        # (row_i, row_j) <- (u*row_i + v*row_j, s*row_i + t*row_j)
        ai, aj = a[i], a[j]
        a[i] = [u * x + v * y for x, y in zip(ai, aj)]
        a[j] = [s * x + t * y for x, y in zip(ai, aj)]

    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            while a[i][c]:
                p, v = a[r][c], a[i][c]
                g = gcd(p, v)
                # Extended gcd gives a unimodular 2x2 transform.
                u0, v0 = _bezout(p, v)
                combine(r, i, u0, v0, -(v // g), p // g)
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return IntMatrix.from_rows(a)


def _bezout(p: int, v: int) -> tuple[int, int]:
    """Coefficients (u, w) with u*p + w*v == gcd(p, v)."""
    old_r, r = p, v
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


SparseRow = dict[int, int]


def integer_row_rank(rows: Iterable[SparseRow]) -> int:
    """Rank over the rationals of the matrix with the given ``{col: value}``
    integer rows, by sparse fraction-free elimination.

    Every row is copied to a dict of its nonzero entries, so the input is
    untouched, and each column maps to the set of live rows that are nonzero
    there, so an elimination step touches only the rows and entries it
    changes.  A row with one nonzero entry puts that unit vector in the row
    space: it counts one toward the rank, and its column is deleted from
    every row, repeated while rows shrink to one entry.  The remaining
    columns are eliminated in decreasing order of their nonzero count, ties
    by column index: this order is fixed before elimination starts, and on
    the generator-only invariant systems it keeps far less fill-in than
    index order.  The pivot of a column is the entry of smallest magnitude;
    on a tie, the row with fewer nonzeros, then the lower input index.  An
    eliminated row is divided by its content.
    """
    work = [r for r in ({c: x for c, x in row.items() if x} for row in rows) if r]
    index: dict[int, set[int]] = {}
    for i, r in enumerate(work):
        for c in r:
            index.setdefault(c, set()).add(i)
    rank = 0
    single = [i for i, r in enumerate(work) if len(r) == 1]
    while single:
        r = work[single.pop()]
        if not r:  # emptied by an earlier single-entry row in its column
            continue
        (c,) = r
        for i in index.pop(c):
            row = work[i]
            del row[c]
            if len(row) == 1:
                single.append(i)
        rank += 1
    for c in sorted(index, key=lambda col: (-len(index[col]), col)):
        live = index.pop(c)
        if not live:
            continue
        piv = min(live, key=lambda i: (abs(work[i][c]), len(work[i]), i))
        live.discard(piv)
        prow = work[piv]
        p = prow[c]
        for col in prow:
            if col != c:
                index[col].discard(piv)
        for i in live:
            row = work[i]
            v = row[c]
            g = gcd(p, v)
            pm, vm = p // g, v // g
            if pm != 1:
                for col in row:
                    row[col] *= pm
            for col, y in prow.items():
                x = row.get(col, 0) - vm * y
                if x:
                    if col not in row:
                        index[col].add(i)
                    row[col] = x
                else:
                    del row[col]
                    if col != c:
                        index[col].discard(i)
            cg = gcd(*row.values())
            if cg > 1:
                for col in row:
                    row[col] //= cg
        rank += 1
    return rank

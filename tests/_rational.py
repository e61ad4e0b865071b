"""Rational matrix reference for the tests.

Exact ``Fraction`` arithmetic on lists of rows, written without anything from
``roothk``, so that a test comparing an integer computation against it
compares against an independent one.  Every function takes any iterable of
rows (lists of ``int`` or ``Fraction``, or an ``IntMatrix``); matrices come
back as lists of ``Fraction`` rows.
"""

from fractions import Fraction


def rows(m):
    return [[Fraction(x) for x in row] for row in m]


def divided(m, d):
    """The integer rows of m over the denominator d."""
    return [[Fraction(x, d) for x in row] for row in m]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*rows(m))]


def matmul(a, b):
    b = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in b] for row in rows(a)]


def det(m):
    """Determinant by Gaussian elimination over ``Fraction``."""
    a = rows(m)
    n = len(a)
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            d = -d
        d *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return d


def inverse(m):
    """Inverse by Gauss-Jordan elimination over ``Fraction``."""
    a = rows(m)
    n = len(a)
    inv = identity(n)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    return inv


def _rref(m):
    """Reduced row echelon form over ``Fraction`` and its pivot columns."""
    a = rows(m)
    ncols = len(a[0]) if a else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a[: len(pivots)], pivots


def rank(m):
    return len(_rref(m)[1])


def nullspace(m, ncols):
    """Basis of { v : row . v = 0 for every row of m }, one vector per free
    column, carrying 1 there and 0 at the other free columns."""
    reduced, pivots = _rref(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(ncols)]
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis

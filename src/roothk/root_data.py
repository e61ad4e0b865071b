"""Root systems of types A-G: simple roots, Cartan matrices, root counts, Gram forms.

Simple roots use the standard ambient coordinate realizations (type A in the
sum-zero hyperplane of Q^(n+1), types B/C/D in Q^n, E in Q^8, F in Q^4, G in
the sum-zero plane of Q^3), kept as integer rows over their least common
denominator (2 for E and F, 1 otherwise).  All group-theoretic matrices
downstream are expressed in the simple-root basis, where they are integral.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache, lru_cache
from math import gcd

from .exact_linalg import Frozen, IntMatrix

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# family -> (min rank, max rank or None for unbounded)
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}

_CARTAN_DET = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
    "F": lambda n: 1,
    "G": lambda n: 1,
}


class RootSystemSpec(Frozen):
    """A crystallographic family letter together with an admissible rank.

    Immutable, and equal and hashed by value: it keys the cache of
    :func:`build_root_datum`.
    """

    def __init__(self, family: str, rank: int):
        if family not in _RANK_RANGE:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        lo, hi = _RANK_RANGE[family]
        if rank < lo or (hi is not None and rank > hi):
            bound = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise ValueError(f"family {family} requires rank {bound}, got {rank}")
        vars(self).update(family=family, rank=rank)

    def __eq__(self, other):
        if type(other) is not RootSystemSpec:
            return NotImplemented
        return self.family == other.family and self.rank == other.rank

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    def __repr__(self) -> str:
        return f"RootSystemSpec(family={self.family!r}, rank={self.rank!r})"

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def root_count(self) -> int:
        return _ROOT_COUNT[self.family](self.rank)

    @property
    def cartan_determinant(self) -> int:
        return _CARTAN_DET[self.family](self.rank)


def _vec(dim: int, *terms: tuple[int, int]) -> tuple[int, ...]:
    """The integer vector sum of c * e_i over the (i, c) terms."""
    v = [0] * dim
    for i, c in terms:
        v[i] += c
    return tuple(v)


def _simple_roots(spec: RootSystemSpec) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows r_i and their least common denominator d: the ambient
    simple roots are r_i / d, with d = 2 for E and F and 1 otherwise."""
    fam, n = spec.family, spec.rank
    if fam == "A":
        return tuple(_vec(n + 1, (i, 1), (i + 1, -1)) for i in range(n)), 1
    if fam in ("B", "C", "D"):
        chain = tuple(_vec(n, (i, 1), (i + 1, -1)) for i in range(n - 1))
        last = {"B": ((n - 1, 1),), "C": ((n - 1, 2),), "D": ((n - 2, 1), (n - 1, 1))}[fam]
        return (*chain, _vec(n, *last)), 1
    if fam == "E":
        # Simple roots of E8, doubled; E6 and E7 take the leading subchains.
        e8 = [(1, -1, -1, -1, -1, -1, -1, 1), _vec(8, (0, 2), (1, 2))]
        e8 += [_vec(8, (i, -2), (i + 1, 2)) for i in range(6)]
        return tuple(e8[:n]), 2
    if fam == "F":
        # e2 - e3, e3 - e4, e4 and (e1 - e2 - e3 - e4) / 2, doubled.
        return (
            _vec(4, (1, 2), (2, -2)),
            _vec(4, (2, 2), (3, -2)),
            _vec(4, (3, 2)),
            (1, -1, -1, -1),
        ), 2
    return ((1, -1, 0), (-2, 1, 1)), 1  # G2


def _int_gram(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer dot products of the given rows."""
    return [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]


class RootDatum(Frozen):
    """A root system with its Cartan matrix and lattice Gram form.

    The ambient simple roots are ``simple_rows[i] / denominator``, integer
    rows over their least common denominator.  ``gram`` is the Gram matrix of
    the simple roots rescaled to the smallest integral multiple.  The number
    of roots is the closed form ``spec.root_count``.  Immutable.
    """

    def __init__(
        self,
        spec: RootSystemSpec,
        cartan: IntMatrix,
        simple_rows: tuple[tuple[int, ...], ...],
        denominator: int,
        gram: IntMatrix,
    ):
        vars(self).update(
            spec=spec,
            cartan=cartan,
            simple_rows=simple_rows,
            denominator=denominator,
            gram=gram,
        )

    def __repr__(self) -> str:
        return f"RootDatum({self.label})"

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def label(self) -> str:
        return self.spec.label


def _cartan_from_gram(spec: RootSystemSpec, dots: list[list[int]]) -> IntMatrix:
    """The Cartan matrix from the Gram of integer multiples of the simple
    roots; a common positive factor cancels from 2(a_i, a_j)/(a_j, a_j)."""
    n = spec.rank
    entries = []
    for i in range(n):
        for j in range(n):
            c, r = divmod(2 * dots[i][j], dots[j][j])
            if r:
                raise AssertionError("Cartan entry is not an integer")
            entries.append(c)
    m = IntMatrix(n, n, entries)
    if m.det() != spec.cartan_determinant:
        raise AssertionError(f"Cartan determinant mismatch for {spec.label}")
    return m


@lru_cache(maxsize=None)
def build_root_datum(spec: RootSystemSpec) -> RootDatum:
    """Construct the root datum: simple roots, Cartan matrix and Gram form."""
    rows, den = _simple_roots(spec)
    dots = _int_gram(rows)
    n = spec.rank
    # The raw Gram is dots / den^2.  Its smallest integral multiple is
    # dots / g with g = gcd(den^2, dots): x2 for F4, the raw Gram elsewhere.
    # Dividing out a common content as well would turn the A1 form [2] into
    # [1] and collapse its order-2 discriminant group, contradicting the
    # dual-lattice and quotient-model checks; content-1 primitivization is
    # reserved for the rescaling classification of lattice towers.
    g = gcd(den * den, *(x for row in dots for x in row))
    return RootDatum(
        spec=spec,
        cartan=_cartan_from_gram(spec, dots),
        simple_rows=rows,
        denominator=den,
        gram=IntMatrix(n, n, (x // g for row in dots for x in row)),
    )


@cache
def simple_reflections(datum: RootDatum) -> tuple[IntMatrix, ...]:
    """The simple reflections of the datum in the simple-root basis, in index
    order, built once per datum.

    Reflection i fixes every basis vector except the i-th coordinate row:
    s_i(a_j) = a_j - (2(a_j, a_i)/(a_i, a_i)) a_i = a_j - cartan[j, i] a_i, so
    its matrix is the identity with row i replaced by those integer
    coefficients.
    """
    n = datum.rank
    out = []
    for i in range(n):
        data = [0] * (n * n)
        data[:: n + 1] = [1] * n
        data[i * n : (i + 1) * n] = [int(c == i) - datum.cartan[c, i] for c in range(n)]
        out.append(IntMatrix(n, n, data))
    return tuple(out)


def standard_table() -> tuple[RootSystemSpec, ...]:
    """The fixed verification table: A1-A8, B2-B7, C2-C7, D3-D8, E6-E8, F4, G2."""
    table = [RootSystemSpec("A", n) for n in range(1, 9)]
    table += [RootSystemSpec("B", n) for n in range(2, 8)]
    table += [RootSystemSpec("C", n) for n in range(2, 8)]
    table += [RootSystemSpec("D", n) for n in range(3, 9)]
    table += [RootSystemSpec("E", n) for n in (6, 7, 8)]
    table.append(RootSystemSpec("F", 4))
    table.append(RootSystemSpec("G", 2))
    return tuple(table)


def specs_up_to_rank(max_rank: int) -> tuple[RootSystemSpec, ...]:
    """All admissible specs with rank <= max_rank, family-major order."""
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    out: list[RootSystemSpec] = []
    for fam in FAMILIES:
        lo, hi = _RANK_RANGE[fam]
        top = max_rank if hi is None else min(hi, max_rank)
        out.extend(RootSystemSpec(fam, n) for n in range(lo, top + 1))
    return tuple(out)

"""Root systems of types A-G: simple roots, Cartan matrices, root sets, Gram forms.

Simple roots use the standard ambient coordinate realizations (type A in the
sum-zero hyperplane of Q^(n+1), types B/C/D in Q^n, E in Q^8, F in Q^4, G in
the sum-zero plane of Q^3).  All group-theoretic matrices downstream are
expressed in the simple-root basis, where they are integral.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .exact_linalg import IntMatrix, RatMatrix, smith_normal_form

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


@dataclass(frozen=True)
class RootSystemSpec:
    """A crystallographic family letter together with an admissible rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _RANK_RANGE:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        lo, hi = _RANK_RANGE[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            bound = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise ValueError(f"family {self.family} requires rank {bound}, got {self.rank}")

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def root_count(self) -> int:
        return _ROOT_COUNT[self.family](self.rank)

    @property
    def cartan_determinant(self) -> int:
        return _CARTAN_DET[self.family](self.rank)


AmbientVector = tuple[Fraction, ...]


def _unit(dim: int, i: int, value=1) -> list[Fraction]:
    v = [Fraction(0)] * dim
    v[i] = Fraction(value)
    return v


def _simple_roots(spec: RootSystemSpec) -> tuple[AmbientVector, ...]:
    fam, n = spec.family, spec.rank
    roots: list[list[Fraction]] = []
    if fam == "A":
        dim = n + 1
        for i in range(n):
            v = _unit(dim, i)
            v[i + 1] = Fraction(-1)
            roots.append(v)
    elif fam in ("B", "C", "D"):
        dim = n
        for i in range(n - 1):
            v = _unit(dim, i)
            v[i + 1] = Fraction(-1)
            roots.append(v)
        if fam == "B":
            roots.append(_unit(dim, n - 1))
        elif fam == "C":
            roots.append(_unit(dim, n - 1, 2))
        else:
            v = _unit(dim, n - 2)
            v[n - 1] = Fraction(1)
            roots.append(v)
    elif fam == "E":
        # Simple roots of E8; E6 and E7 take the leading subchains.
        half = Fraction(1, 2)
        e8 = [
            [half, -half, -half, -half, -half, -half, -half, half],
            [Fraction(1), Fraction(1)] + [Fraction(0)] * 6,
        ]
        for i in range(6):
            v = _unit(8, i + 1)
            v[i] = Fraction(-1)
            e8.append(v)
        roots = e8[:n]
    elif fam == "F":
        half = Fraction(1, 2)
        roots = [
            _unit(4, 1),
            _unit(4, 2),
            _unit(4, 3),
            [half, -half, -half, -half],
        ]
        roots[0][2] = Fraction(-1)  # e2 - e3
        roots[1][3] = Fraction(-1)  # e3 - e4
    else:  # G2
        roots = [
            [Fraction(1), Fraction(-1), Fraction(0)],
            [Fraction(-2), Fraction(1), Fraction(1)],
        ]
    return tuple(tuple(v) for v in roots)


def _int_gram(scaled: IntMatrix) -> list[list[int]]:
    """Integer dot products of the rows of ``scaled``."""
    rows = scaled.to_rows()
    return [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]


@dataclass(frozen=True)
class RootDatum:
    """A root system with its Cartan matrix, full root set, and lattice Gram form.

    ``root_coords`` holds every root in simple-root coordinates, sorted;
    ``all_roots`` is the same set in ambient coordinates, built on first use.
    ``gram`` is the Gram matrix of the simple roots rescaled to the primitive
    integral form (integer entries of content 1); ``gram_scale`` recovers the
    ambient inner product: raw Gram = gram * gram_scale.
    """

    spec: RootSystemSpec
    cartan: IntMatrix
    simple_roots: tuple[AmbientVector, ...]
    root_coords: tuple[tuple[int, ...], ...]
    gram: IntMatrix
    gram_scale: Fraction
    _reflection_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return self.spec.rank

    @cached_property
    def all_roots(self) -> tuple[AmbientVector, ...]:
        """Every root in ambient coordinates, sorted."""
        # Integers scaled by the common denominator of the simple roots; the
        # positive scale keeps the sort order.
        scaled, scale = RatMatrix.from_rows(self.simple_roots).integral_rescale()
        den = scale.denominator
        ambient = []
        for v in self.root_coords:
            acc = [0] * scaled.cols
            for c, a in zip(v, scaled):
                if c:
                    acc = [x + c * y for x, y in zip(acc, a)]
            ambient.append(tuple(acc))
        ambient.sort()
        entry = {x: Fraction(x, den) for u in ambient for x in u}
        return tuple(tuple(entry[x] for x in u) for u in ambient)

    @property
    def label(self) -> str:
        return self.spec.label


def cartan_matrix(spec: RootSystemSpec) -> IntMatrix:
    """Cartan matrix with entries 2(a_i, a_j)/(a_j, a_j)."""
    scaled, _ = RatMatrix.from_rows(_simple_roots(spec)).integral_rescale()
    return _cartan_from_gram(spec, _int_gram(scaled))


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
    """Construct the full root datum: roots by reflection closure, Gram form, Cartan."""
    simple = _simple_roots(spec)
    scaled, scale = RatMatrix.from_rows(simple).integral_rescale()
    dots = _int_gram(scaled)
    cartan = _cartan_from_gram(spec, dots)
    n = spec.rank

    # Closure in simple-root coordinates, where everything is an integer:
    # s_j(v) = v - <v, a_j^vee> a_j with <v, a_j^vee> = sum_i v_i cartan[i, j].
    columns = [[(i, c) for i, c in enumerate(col) if c] for col in cartan.transpose()]
    units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    coords = set(units) | {tuple(-x for x in v) for v in units}
    frontier = list(coords)
    while frontier:
        new = []
        for v in frontier:
            for j, col in enumerate(columns):
                c = sum(v[i] * x for i, x in col)
                if c:
                    w = v[:j] + (v[j] - c,) + v[j + 1 :]
                    if w not in coords:
                        coords.add(w)
                        new.append(w)
        frontier = new
    if len(coords) != spec.root_count:
        raise AssertionError(f"root count mismatch for {spec.label}: {len(coords)}")
    den = scale.denominator
    raw_gram = RatMatrix(n, n, (Fraction(x, den * den) for row in dots for x in row))
    # Minimal integral rescaling only (x2 for F4, identity elsewhere).  Dividing
    # out a common content as well would turn the A1 form [2] into [1] and
    # collapse its order-2 discriminant group, contradicting the dual-lattice
    # and quotient-model checks; content-1 primitivization is reserved for the
    # rescaling classification of lattice towers.
    gram, scale = raw_gram.integral_rescale()
    return RootDatum(
        spec=spec,
        cartan=cartan,
        simple_roots=simple,
        root_coords=tuple(sorted(coords)),
        gram=gram,
        gram_scale=scale,
    )


def simple_reflection(datum: RootDatum, i: int) -> IntMatrix:
    """Matrix of the i-th simple reflection (1-based) in the simple-root basis.

    The reflection fixes every basis vector except the i-th coordinate row:
    s_i(a_j) = a_j - (2(a_j, a_i)/(a_i, a_i)) a_i = a_j - cartan[j, i] a_i, so
    the matrix is the identity with row i replaced by those integer
    coefficients.
    """
    n = datum.rank
    if not 1 <= i <= n:
        raise IndexError(f"reflection index {i} out of range 1..{n}")
    cached = datum._reflection_cache.get(i)
    if cached is not None:
        return cached
    data = [0] * (n * n)
    data[:: n + 1] = [1] * n
    data[(i - 1) * n : i * n] = [int(c == i - 1) - datum.cartan[c, i - 1] for c in range(n)]
    m = IntMatrix(n, n, data)
    datum._reflection_cache[i] = m
    return m


def simple_reflections(datum: RootDatum) -> tuple[IntMatrix, ...]:
    """All simple reflections of the datum, in index order."""
    return tuple(simple_reflection(datum, i) for i in range(1, datum.rank + 1))


def ambient_to_root_basis(
    datum: RootDatum, vectors: Sequence[AmbientVector]
) -> list[tuple[Fraction, ...]]:
    """Simple-root coordinates of each ambient lattice-span vector, inverting
    the Gram once."""
    # Solve sum_j c_j a_j = v via the raw Gram system raw_gram @ c = (a_i, v),
    # where raw_gram = gram * gram_scale has inverse adj(gram) / (det * scale).
    # The simple roots are a_i = s * r_i with integer rows r_i, so
    # (a_i, v) = s * (r_i, v).
    scaled, s = RatMatrix.from_rows(datum.simple_roots).integral_rescale()
    adj, det = datum.gram.adjugate()
    den = det * datum.gram_scale / s
    n = datum.rank
    out = []
    for v in vectors:
        rhs = [sum(x * y for x, y in zip(r, v) if x) for r in scaled]
        out.append(tuple(sum(adj[i, j] * rhs[j] for j in range(n)) / den for i in range(n)))
    return out


@dataclass(frozen=True)
class DualQuotientReport:
    """Result of checking the quotient model of the type-A weight lattice.

    The weight lattice of A_n is the image of Z^(n+1) under orthogonal
    projection to the sum-zero hyperplane; the projected standard basis
    vectors have pairwise inner products delta_ij - 1/(n+1), and the partial
    sums of the first i of them realize the fundamental weights, whose Gram
    matrix is the inverse of the Cartan matrix.
    """

    n: int
    invariant_factors: tuple[int, ...]
    cyclic_of_expected_order: bool
    model_gram: RatMatrix
    weight_basis_gram: RatMatrix
    inverse_gram: RatMatrix
    grams_match: bool

    @property
    def passed(self) -> bool:
        return self.cyclic_of_expected_order and self.grams_match


def dual_lattice_quotient_check(n: int) -> DualQuotientReport:
    """Verify the two facts behind the quotient model of the A_n weight lattice.

    (a) the discriminant group of A_n is cyclic of order n+1, and (b) the Gram
    matrix of the projected-basis model of Z^(n+1)/(diagonal copy of Z) matches
    the inverse-Gram of A_n in the fundamental-weight basis.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = RootSystemSpec("A", n)
    datum = build_root_datum(spec)

    factors = smith_normal_form(datum.gram).torsion_factors
    cyclic = factors == (n + 1,)

    k = n + 1
    model = RatMatrix(
        k, k, (Fraction(1 if i == j else 0) - Fraction(1, k) for i in range(k) for j in range(k))
    )
    # Partial sums of the first i projected basis vectors, i = 1..n.
    weight_gram_entries = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s = Fraction(0)
            for a in range(i):
                for b in range(j):
                    s += model[a, b]
            weight_gram_entries.append(s)
    weight_gram = RatMatrix(n, n, weight_gram_entries)
    inverse_gram = datum.gram.to_rat().inverse()

    return DualQuotientReport(
        n=n,
        invariant_factors=factors,
        cyclic_of_expected_order=cyclic,
        model_gram=model,
        weight_basis_gram=weight_gram,
        inverse_gram=inverse_gram,
        grams_match=weight_gram == inverse_gram,
    )


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

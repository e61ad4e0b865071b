"""Weyl groups as explicit sets of integer matrices in the simple-root basis.

Exhaustive enumeration walks the canonical-parent tree of the group: each
element is reached once, from its parent one Coxeter length down, by the
smallest of its right descents.  Elements are kept in a compact numpy integer
array; coefficients of Weyl matrices in the root basis are bounded by the
largest root coordinate (at most 6 across the supported families), so
fixed-width integer arithmetic is exact here — guards assert the bounds on
every batch.
All rational linear algebra elsewhere stays arbitrary-precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Iterator

import numpy as np

from .errors import GroupTooLargeError, NotExhaustiveError
from .exact_linalg import IntMatrix
from .root_data import RootDatum, RootSystemSpec, simple_reflections

DEFAULT_GROUP_CAP = 5_000_000

# Root coordinates in the simple-root basis are bounded by the largest
# highest-root coefficient across the supported families (6, attained by E8),
# so every entry of every enumerated element lies in [-6, 6].  The bound is
# asserted on each batch; it keeps int16 accumulation and int8 storage exact.
_ENTRY_BOUND = 6
_FRONTIER_CHUNK = 200_000

_EXCEPTIONAL_ORDERS = {"G": 12, "F": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}


@dataclass(frozen=True)
class GroupCap:
    """Upper bound on how many elements exhaustive enumeration may hold."""

    max_elements: int = DEFAULT_GROUP_CAP

    def __post_init__(self):
        if self.max_elements <= 0:
            raise ValueError("cap must be positive")


def group_order_formula(spec: RootSystemSpec) -> int:
    """Classical closed-form order of the Weyl group."""
    fam, n = spec.family, spec.rank
    if fam == "A":
        return factorial(n + 1)
    if fam in ("B", "C"):
        return 2**n * factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * factorial(n)
    if fam == "E":
        return _EXCEPTIONAL_ORDERS[f"E{n}"]
    return _EXCEPTIONAL_ORDERS[fam]


@dataclass
class WeylGroup:
    """A Weyl group held as generators plus (optionally) all elements.

    ``elements`` is an ``(order, n, n)`` int8 array, each element once: the
    identity first, then level by level in nondecreasing Coxeter length, in
    enumeration order within a level.  ``None`` means the group was built
    generators-only.
    """

    datum: RootDatum
    generators: tuple[IntMatrix, ...]
    order: int
    elements: np.ndarray | None = None
    _pair_sums: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def label(self) -> str:
        return f"W({self.datum.label})"

    @classmethod
    def from_generators(cls, datum: RootDatum) -> "WeylGroup":
        """Generator-only group (no element enumeration)."""
        return cls(
            datum=datum,
            generators=simple_reflections(datum),
            order=group_order_formula(datum.spec),
        )

    def element_count(self) -> int:
        if self.elements is None:
            raise NotExhaustiveError(f"{self.label} was not exhaustively generated")
        return self.elements.shape[0]

    def pair_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (sum of elements, sum of flattened tensor squares).

        The second array S has S[(k,i),(l,j)] = sum over group elements w of
        w[k,i] * w[l,j]; every quadratic-in-w group average used by the
        Reynolds cross-checks assembles from it by pure indexing.
        """
        if self.elements is None:
            raise NotExhaustiveError(f"{self.label} was not exhaustively generated")
        if self._pair_sums is None:
            n = self.rank
            flat = self.elements.reshape(self.order, n * n)
            s1 = flat.sum(axis=0, dtype=np.int64).reshape(n, n)
            s4 = np.zeros((n * n, n * n), dtype=np.int64)
            for lo in range(0, self.order, 200_000):
                chunk = flat[lo : lo + 200_000].astype(np.int64)
                s4 += chunk.T @ chunk
            self._pair_sums = (s1, s4)
        return self._pair_sums


def generate_group(datum: RootDatum, cap: GroupCap | None = None) -> WeylGroup:
    """Exhaustive Weyl group by canonical-parent enumeration.

    Right multiplication by s raises the length exactly when w(alpha_s) is a
    positive root, i.e. when column s of w has a positive coordinate sum.  A
    product w*s is kept only when it raises the length and s is the smallest
    right descent of w*s (every column t < s of w*s stays positive).  Every
    element other than the identity has exactly one such parent, one level
    down, so each element is produced exactly once with no comparison between
    elements; the final count is checked against the closed-form order.
    Raises :class:`GroupTooLargeError` when that order exceeds the cap,
    signalling callers to fall back to generator-only methods.
    """
    cap = cap if cap is not None else GroupCap()
    spec = datum.spec
    order = group_order_formula(spec)
    if order > cap.max_elements:
        raise GroupTooLargeError(spec.label, order, cap.max_elements)

    n = spec.rank
    gens = simple_reflections(datum)
    # s_i - 1 is zero outside row i, so w*s_i = w + (column i of w) * shift[i]:
    # a rank-one column update.
    shift = np.array([g.to_rows()[i] for i, g in enumerate(gens)], dtype=np.int16)
    shift -= np.eye(n, dtype=np.int16)

    elements = np.empty((order, n, n), dtype=np.int8)
    elements[0] = np.eye(n, dtype=np.int8)
    level_start, count = 0, 1
    while level_start < count:
        level_end = count
        for lo in range(level_start, level_end, _FRONTIER_CHUNK):
            block = elements[lo : min(lo + _FRONTIER_CHUNK, level_end)].astype(np.int16)
            sums = block.sum(axis=1)  # sums[:, t] is the coordinate sum of w(alpha_t)
            for s in range(n):
                lead = sums[:, s : s + 1]
                keep = (lead[:, 0] > 0) & (sums[:, :s] + lead * shift[s, :s] > 0).all(axis=1)
                w = block[keep]
                prod = w + w[:, :, s : s + 1] * shift[s]
                if prod.size and (prod.min() < -_ENTRY_BOUND or prod.max() > _ENTRY_BOUND):
                    raise AssertionError("group element entries exceeded the root-coordinate bound")
                if count + prod.shape[0] > order:
                    raise AssertionError(f"enumeration of {spec.label} exceeded the predicted order")
                elements[count : count + prod.shape[0]] = prod
                count += prod.shape[0]
        level_start = level_end

    if count != order:
        raise AssertionError(
            f"enumeration of {spec.label} found {count} elements, expected {order}"
        )
    return WeylGroup(datum=datum, generators=gens, order=order, elements=elements)


def element_iter(group: WeylGroup) -> Iterator[IntMatrix]:
    """Stream every element exactly once, identity first, in stored order."""
    if group.elements is None:
        raise NotExhaustiveError(f"{group.label} was not exhaustively generated")
    n = group.rank
    for row in group.elements:
        yield IntMatrix(n, n, (int(x) for x in row.reshape(-1)))


@dataclass(frozen=True)
class SignedPermutationReport:
    """Outcome of checking that W(B_n) is the full signed-permutation group."""

    n: int
    order: int
    expected_order: int
    all_signed_permutations: bool
    permutation_count: int
    signs_per_permutation: int

    @property
    def passed(self) -> bool:
        return (
            self.all_signed_permutations
            and self.order == self.expected_order
            and self.permutation_count == factorial(self.n)
            and self.signs_per_permutation == 2**self.n
        )


def check_signed_permutation_structure(n: int, cap: GroupCap | None = None) -> SignedPermutationReport:
    """Verify that W(B_n), written in the orthonormal ambient basis, consists of
    exactly 2^n * n! signed permutation matrices.

    The counts are factored by grouping elements over their underlying
    permutation: n! distinct permutations, each decorated by all 2^n sign
    patterns.
    """
    if n < 2:
        raise ValueError("signed permutation check needs n >= 2")
    from .root_data import build_root_datum  # local import to avoid cycle at module load

    datum = build_root_datum(RootSystemSpec("B", n))
    group = generate_group(datum, cap)

    # Change of basis from root coordinates to the ambient orthonormal basis.
    # The B_n simple roots form a unimodular integer matrix, so the inverse is
    # integral; it is computed exactly.
    basis_mat = IntMatrix.from_rows(
        [[alpha[i] for alpha in datum.simple_roots] for i in range(n)]
    )
    adj, det = basis_mat.adjugate()
    if det not in (1, -1):
        raise AssertionError("B_n simple-root basis is not unimodular")
    basis = np.array(basis_mat.to_rows(), dtype=np.int64)
    basis_inv = np.array((adj if det == 1 else -adj).to_rows(), dtype=np.int64)

    ambient = basis[None] @ group.elements.astype(np.int64) @ basis_inv[None]
    absmats = np.abs(ambient)
    signed = (
        (absmats.sum(axis=1) == 1).all()
        and (absmats.sum(axis=2) == 1).all()
        and (absmats <= 1).all()
    )
    perms = absmats.argmax(axis=1)  # column -> row of the unique nonzero entry
    unique_perms, counts = np.unique(perms, axis=0, return_counts=True)
    signs_each = {int(c) for c in counts}
    return SignedPermutationReport(
        n=n,
        order=group.order,
        expected_order=2**n * factorial(n),
        all_signed_permutations=bool(signed),
        permutation_count=int(unique_perms.shape[0]),
        signs_per_permutation=signs_each.pop() if len(signs_each) == 1 else -1,
    )

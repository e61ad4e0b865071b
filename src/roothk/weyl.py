"""Weyl groups as explicit sets of integer matrices in the simple-root basis.

Exhaustive enumeration walks the canonical-parent tree of the group one
Coxeter length at a time: each element is reached once, from its parent one
length down, by the smallest of its right descents.  Minimal coset
representatives come from a second duplicate-free walk, over the orbit of a
fundamental weight, one step of the parabolic chain at a time, and W is the
product R_1 ... R_n of those steps, so W can be visited as two halves of
about sqrt(|W|) elements each without ever holding it.  Element arrays are
compact numpy int8; coefficients of Weyl matrices in the root basis are
bounded by the largest root coordinate (at most 6 across the supported
families), so fixed-width integer arithmetic is exact here — guards assert
the bounds on every level and every partial product.  numpy is imported by
the functions that build or read element arrays, not at module load, so
generator-only callers never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, prod
from typing import TYPE_CHECKING, Iterator

from .errors import GroupTooLargeError, NotExhaustiveError
from .exact_linalg import IntMatrix
from .root_data import RootDatum, RootSystemSpec, simple_reflections

if TYPE_CHECKING:
    import numpy as np

DEFAULT_GROUP_CAP = 5_000_000

# Root coordinates in the simple-root basis are bounded by the largest
# highest-root coefficient across the supported families (6, attained by E8),
# so every entry of every enumerated element lies in [-6, 6].  The bound is
# asserted on every product; it keeps int8 products and storage exact.
_ENTRY_BOUND = 6

_EXCEPTIONAL_ORDERS = {"G": 12, "F": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}


@dataclass(frozen=True)
class GroupCap:
    """Upper bound on the order of a group enumerated exhaustively.

    ``generate_group`` stores that many elements; the freeness pass visits
    that many, holding only the two halves of :func:`coset_halves` and one
    bounded tile of traces.
    """

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
        import numpy as np

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


def iter_levels(datum: RootDatum) -> Iterator[np.ndarray]:
    """Yield every element of W once, as one int8 array per Coxeter length.

    The canonical-parent rule: right multiplication by s raises the length
    exactly when w(alpha_s) is a positive root, i.e. when column s of w has a
    positive coordinate sum.  A product w*s is kept only when it raises the
    length and s is the smallest right descent of w*s (every column t < s of
    w*s has a positive sum).  Every element other than the identity has
    exactly one such parent, one level down, so level k + 1 is built from
    level k alone and each element is produced exactly once, with no
    comparison between elements.  Only two levels are alive at a time.

    Levels come identity first, in nondecreasing length; each is a fresh
    ``(count, n, n)`` array.  Raises AssertionError when an entry leaves the
    root-coordinate bound, or when the count differs from the closed-form
    order of W.  Nothing is checked against a cap, and nothing runs before
    the first ``next()``: a caller that needs a cap checks it before
    iterating.
    """
    import numpy as np

    spec = datum.spec
    n = spec.rank
    order = group_order_formula(spec)
    gens = simple_reflections(datum)
    # s_i - 1 is zero outside row i, so w*s_i = w + (column i of w) * shift[i]:
    # a rank-one update of column i and of its Dynkin neighbours, the only
    # other columns where shift[i] is nonzero.  Entries of w are asserted to
    # lie in [-6, 6] and |shift| <= 3, so every product entry lies in
    # [-24, 24] and int8 arithmetic is exact.
    shift = np.array([g.to_rows()[i] for i, g in enumerate(gens)], dtype=np.int64)
    shift -= np.eye(n, dtype=np.int64)
    if np.abs(shift).max() > 3:
        raise AssertionError(f"simple reflections of {spec.label} move a coordinate by more than 3")
    shift = shift.astype(np.int8)
    moved = [np.flatnonzero(shift[s]) for s in range(n)]  # s and its neighbours

    level = np.eye(n, dtype=np.int8)[None]
    # sums[t, i] is the coordinate sum of w_i(alpha_t) for element i of the
    # level; it is carried as sums(w*s) = sums(w) + sums(w)[s] * shift[s].
    # Sums of n bounded entries stay far inside int16.
    sums = np.ones((n, 1), dtype=np.int16)
    count = 0
    while level.shape[0]:
        count += level.shape[0]
        if count > order:
            raise AssertionError(f"enumeration of {spec.label} exceeded the predicted order")
        yield level
        positive = sums > 0
        parents = []
        for s in range(n):
            keep = positive[s].copy()
            for t in range(s):
                # Only the neighbours of s change their column sum.
                keep &= sums[s] * shift[s, t] + sums[t] > 0 if shift[s, t] else positive[t]
            parents.append((s, np.flatnonzero(keep)))
        # The next level is written in place, so at most two levels are alive.
        child = np.empty((sum(p.size for _, p in parents), n, n), dtype=np.int8)
        child_sums = np.empty((n, child.shape[0]), dtype=np.int16)
        lo = 0
        for s, idx in parents:
            w = np.take(level, idx, axis=0, out=child[lo : lo + idx.size])
            w_sums = sums.take(idx, axis=1, out=child_sums[:, lo : lo + idx.size])
            w_s, lead = w[:, :, s].copy(), w_sums[s].copy()
            for t in moved[s]:
                col = w[:, :, t] + w_s * shift[s, t]
                if col.size and (col.min() < -_ENTRY_BOUND or col.max() > _ENTRY_BOUND):
                    raise AssertionError("group element entries exceeded the root-coordinate bound")
                w[:, :, t] = col
                w_sums[t] += lead * shift[s, t]
            lo += idx.size
        level, sums = child, child_sums

    if count != order:
        raise AssertionError(
            f"enumeration of {spec.label} found {count} elements, expected {order}"
        )


def min_coset_representatives(datum: RootDatum, k: int) -> np.ndarray:
    """The minimal-length representatives of W_K / W_J, where K holds the
    first k + 1 simple reflections and J = K without s_k.

    ``k`` is 0-based; k = n - 1 gives W^J, the representatives of W / W_J.
    They are in bijection with the W_K-orbit of the fundamental weight
    omega_k (its stabilizer in W_K is W_J), walked in the Dynkin labels of K:
    for a label m_i > 0 the weight mu - m_i * (row i of the Cartan matrix) is
    s_i(mu), one length further from omega_k, and it is kept only when i is
    its smallest negative label.  Negative labels of u(omega_k) are the left
    descents of u in K, so each representative other than the identity has
    exactly one parent s_i * u and the walk is duplicate-free, with no sort
    and no set.  The matrix steps are left multiplications by s_i, which
    change row i only.  Right multiplication cannot do this: the
    representatives are not prefix-closed (in A2 with J = {s1}, s1 s2 is one
    but s1 is not).

    Returned identity first, in nondecreasing length, as a ``(count, n, n)``
    int8 array; the walk itself runs on Python integers, and raises
    AssertionError when an entry leaves the root-coordinate bound.
    """
    import numpy as np

    n = datum.rank
    if not 0 <= k < n:
        raise IndexError(f"simple reflection {k} out of range 0..{n - 1}")
    # Labels outside K never enter a step within K, so they are not carried.
    cartan = [list(datum.cartan.row(i))[: k + 1] for i in range(k + 1)]
    # Row i of s_i is sparse: s_i * u combines row i of u with its neighbours.
    moved = [[(c, r) for c, r in enumerate(g.row(i)) if r] for i, g in enumerate(simple_reflections(datum))]
    walk = [([int(j == k) for j in range(k + 1)], IntMatrix.identity(n).to_rows())]
    # The loop reads the entries it appends: breadth first, so by length.
    for mu, u in walk:
        for i, m in enumerate(mu):
            if m <= 0:
                continue
            nu = [a - m * c for a, c in zip(mu, cartan[i])]
            if any(x < 0 for x in nu[:i]):
                continue
            v = u[:]
            v[i] = [sum(col) for col in zip(*([r * x for x in u[c]] for c, r in moved[i]))]
            if max(map(abs, v[i])) > _ENTRY_BOUND:
                raise AssertionError("coset representative entries exceeded the root-coordinate bound")
            walk.append((nu, v))
    return np.array([u for _, u in walk], dtype=np.int8)


def coset_halves(datum: RootDatum) -> tuple[np.ndarray, np.ndarray]:
    """W as the products u * v of two arrays U and V, each element once.

    Down the chain of parabolic subgroups W_{J_i}, J_i the first n - i simple
    reflections, W = R_1 R_2 ... R_n, where R_i holds the minimal
    representatives of W_{J_{i-1}} / W_{J_i} (:func:`min_coset_representatives`
    with k = n - i) and every element is one product u_1 ... u_n, u_i in R_i
    (Bjorner-Brenti, GTM 231, §2.4, applied at each step).  The chain is
    multiplied out in two halves, U = R_1 ... R_d and V = R_{d+1} ... R_n,
    with d chosen to minimise |U| + |V|: W(E7) factors as
    56 * 27 * 16 * 10 * 3 * 2 * 2 and splits as 1512 * 1920.

    Both are ``(count, n, n)`` int8 arrays.  Raises AssertionError when an
    entry of a representative or of a partial product leaves the
    root-coordinate bound.
    """
    import numpy as np

    n = datum.rank
    chain = [min_coset_representatives(datum, k).astype(np.int16) for k in reversed(range(n))]
    sizes = [len(reps) for reps in chain]
    d = min(range(n + 1), key=lambda d: prod(sizes[:d]) + prod(sizes[d:]))
    halves = []
    for factors in (chain[:d], chain[d:]):
        # Factors with entries in [-6, 6] keep every product entry within
        # 36 n in absolute value, far inside int16.
        product = np.eye(n, dtype=np.int16)[None]
        for reps in factors:
            product = np.matmul(product[:, None], reps[None]).reshape(-1, n, n)
            if np.abs(product).max() > _ENTRY_BOUND:
                raise AssertionError("coset products exceeded the root-coordinate bound")
        halves.append(product.astype(np.int8))
    return halves[0], halves[1]


def generate_group(datum: RootDatum, cap: GroupCap | None = None) -> WeylGroup:
    """Exhaustive Weyl group: the levels of :func:`iter_levels`, stored.

    Raises :class:`GroupTooLargeError` when the closed-form order exceeds the
    cap, before anything is allocated, signalling callers to fall back to
    generator-only methods.
    """
    cap = cap if cap is not None else GroupCap()
    spec = datum.spec
    order = group_order_formula(spec)
    if order > cap.max_elements:
        raise GroupTooLargeError(spec.label, order, cap.max_elements)
    # Imported past the cap: generator-only callers land on the error above.
    import numpy as np

    n = spec.rank
    elements = np.empty((order, n, n), dtype=np.int8)
    count = 0
    for level in iter_levels(datum):
        elements[count : count + level.shape[0]] = level
        count += level.shape[0]
    return WeylGroup(datum=datum, generators=simple_reflections(datum), order=order, elements=elements)


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
    import numpy as np

    if n < 2:
        raise ValueError("signed permutation check needs n >= 2")
    from .root_data import build_root_datum  # local import to avoid cycle at module load

    datum = build_root_datum(RootSystemSpec("B", n))
    group = generate_group(datum, cap)

    # Change of basis from root coordinates to the ambient orthonormal basis.
    # The B_n simple roots form a unimodular integer matrix, so the inverse is
    # integral; it is computed exactly.
    if datum.denominator != 1:
        raise AssertionError("B_n simple roots are not integral")
    basis_mat = IntMatrix.from_rows(
        [[alpha[i] for alpha in datum.simple_rows] for i in range(n)]
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

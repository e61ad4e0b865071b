"""Weyl groups as two arrays of integer matrices in the simple-root basis,
every element exactly one product of the two.

One duplicate-free walk enumerates W.  Down the chain of parabolic
subgroups, W = R_1 ... R_n, each R_k the minimal coset representatives found
by walking the orbit of a fundamental weight; each step is a left
multiplication by a simple reflection, which rewrites one row.  The chain is
multiplied out in two halves of about sqrt(|W|) elements each, so W is
visited without ever being held.  Element arrays are compact numpy int8;
coefficients of Weyl matrices in the root basis are bounded by the largest
root coordinate (at most 6 across the supported families), so fixed-width
integer arithmetic is exact here — a guard asserts the bound on every new
row.  numpy is imported by the functions that build or read element arrays,
not at module load, so generator-only callers never load it.
"""

from __future__ import annotations

from math import factorial, prod
from typing import TYPE_CHECKING, Iterator

from .exact_linalg import IntMatrix
from .root_data import RootDatum, RootSystemSpec, simple_reflections

if TYPE_CHECKING:
    import numpy as np

# Default bound on the order of a group that analyze and report enumerate:
# the freeness pass visits that many elements, holding only the two halves of
# :func:`coset_halves` and one bounded tile of traces.
DEFAULT_GROUP_CAP = 5_000_000

# Root coordinates in the simple-root basis are bounded by the largest
# highest-root coefficient across the supported families (6, attained by E8),
# so every entry of every enumerated element lies in [-6, 6].  The bound is
# asserted on every new row; it keeps int8 storage exact.
_ENTRY_BOUND = 6

_EXCEPTIONAL_ORDERS = {"G": 12, "F": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}


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


class WeylGroup:
    """A Weyl group held as its datum, its order and the two halves
    ``(U, V)`` of :func:`coset_halves`; its generators are
    :func:`simple_reflections` of the datum.

    U and V are ``(count, n, n)`` int8 arrays, each with the identity first,
    and every element of W is exactly one product u * v.
    """

    def __init__(self, datum: RootDatum, order: int, halves: tuple[np.ndarray, np.ndarray]):
        self.datum = datum
        self.order = order
        self.halves = halves

    @property
    def rank(self) -> int:
        return self.datum.rank

    def element_count(self) -> int:
        u, v = self.halves
        return len(u) * len(v)


def _walk(datum: RootDatum, k: int) -> list[tuple[int, int]]:
    """The minimal-length representatives of W_K / W_J, K the first k + 1
    simple reflections (k 0-based) and J = K without s_k, as steps from the
    identity: step j is ``(parent, i)`` when representative j + 1 is s_i
    times representative ``parent``.

    They are in bijection with the W_K-orbit of the fundamental weight
    omega_k (its stabilizer in W_K is W_J), walked in the Dynkin labels of K:
    for a label m_i > 0 the weight mu - m_i * (row i of the Cartan matrix) is
    s_i(mu), one length further from omega_k, and it is kept only when i is
    its smallest negative label.  Negative labels of u(omega_k) are the left
    descents of u in K, so each representative other than the identity has
    exactly one parent s_i * u and the walk is duplicate-free, with no sort
    and no set.  It is breadth first, so representatives come in
    nondecreasing length.  Right multiplication cannot do this: the
    representatives are not prefix-closed (in A2 with J = {s1}, s1 s2 is one
    but s1 is not).
    """
    n = datum.rank
    if not 0 <= k < n:
        raise IndexError(f"simple reflection {k} out of range 0..{n - 1}")
    # Labels outside K never enter a step within K, so they are not carried.
    cartan = [list(datum.cartan.row(i))[: k + 1] for i in range(k + 1)]
    labels = [[int(j == k) for j in range(k + 1)]]
    steps = []
    # The loop reads the labels it appends.
    for parent, mu in enumerate(labels):
        for i, m in enumerate(mu):
            if m <= 0:
                continue
            nu = [a - m * c for a, c in zip(mu, cartan[i])]
            if not any(x < 0 for x in nu[:i]):
                labels.append(nu)
                steps.append((parent, i))
    return steps


def _left_multiply(datum: RootDatum, walks: list[list[tuple[int, int]]]) -> np.ndarray:
    """The product of the representatives R of each walk of :func:`_walk`,
    the last walk's leftmost, each element once, as a ``(count, n, n)`` int8
    array, the identity first.

    Each R is applied to the whole block built so far, representative-major:
    entry r * len(block) + b is representative r times element b.  s_i - 1
    is zero outside row i, so a step s_i * u copies the block of u and
    rewrites row i from the rows that row i of s_i reads.  Raises
    AssertionError unless row i of every s_i lies in [-1, 3], which keeps
    the int16 row sums exact, and when a new entry leaves the
    root-coordinate bound.
    """
    import numpy as np

    n = datum.rank
    rows = [g.row(i) for i, g in enumerate(simple_reflections(datum))]
    if any(not -1 <= r <= 3 for row in rows for r in row):
        raise AssertionError(f"simple reflections of {datum.label} have a row entry outside [-1, 3]")
    moved = [[(c, r) for c, r in enumerate(row) if r] for row in rows]
    block = np.eye(n, dtype=np.int8)[None]
    for steps in walks:
        out = np.empty((len(steps) + 1, *block.shape), dtype=np.int8)
        out[0] = block
        for j, (parent, i) in enumerate(steps, 1):
            out[j] = out[parent]
            row = sum(r * out[parent, :, c].astype(np.int16) for c, r in moved[i])
            if row.min() < -_ENTRY_BOUND or row.max() > _ENTRY_BOUND:
                raise AssertionError("group element entries exceeded the root-coordinate bound")
            out[j, :, i] = row
        block = out.reshape(-1, n, n)
    return block


def coset_halves(datum: RootDatum) -> tuple[np.ndarray, np.ndarray]:
    """W as the products u * v of two arrays U and V, each element once.

    Down the chain of parabolic subgroups W_{J_i}, J_i the first n - i simple
    reflections, W = R_1 R_2 ... R_n, where R_i holds the minimal
    representatives of W_{J_{i-1}} / W_{J_i} (:func:`_walk` with k = n - i)
    and every element is one product u_1 ... u_n, u_i in R_i
    (Bjorner-Brenti, GTM 231, §2.4, applied at each step).  The chain is
    multiplied out in two halves, U = R_1 ... R_d and V = R_{d+1} ... R_n,
    with d chosen to minimise |U| + |V|: W(E7) factors as
    56 * 27 * 16 * 10 * 3 * 2 * 2 and splits as 1512 * 1920.
    """
    n = datum.rank
    walks = [_walk(datum, k) for k in range(n)]  # R_n, ..., R_1
    sizes = [len(steps) + 1 for steps in reversed(walks)]
    d = min(range(n + 1), key=lambda d: prod(sizes[:d]) + prod(sizes[d:]))
    return _left_multiply(datum, walks[n - d :]), _left_multiply(datum, walks[: n - d])


def generate_group(datum: RootDatum) -> WeylGroup:
    """Exhaustive Weyl group: the two halves of :func:`coset_halves`.

    Raises AssertionError when |U| * |V| differs from the closed-form order.
    Callers compare that order with their cap before they call this.
    """
    spec = datum.spec
    order = group_order_formula(spec)
    u, v = coset_halves(datum)
    if len(u) * len(v) != order:
        raise AssertionError(f"enumeration of {spec.label} found {len(u) * len(v)} elements, expected {order}")
    return WeylGroup(datum, order, (u, v))


def element_iter(group: WeylGroup) -> Iterator[IntMatrix]:
    """Stream every element exactly once, identity first: the products
    u * v, u-major, which is the order of the chain product."""
    import numpy as np

    n = group.rank
    u, v = group.halves
    v = v.astype(np.int32)  # int8 entries; products fit int32
    for a in u.astype(np.int32):
        for w in a @ v:
            yield IntMatrix(n, n, (int(x) for x in w.reshape(-1)))

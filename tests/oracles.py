"""References that the tests compare library output against.

Nothing here imports ``roothk``: every function takes numpy element arrays
(or the two halves a group holds), a construction chain or the integer
simple-root rows of a datum, so a test that compares a library result with
one of them compares it with an independent computation.

A construction chain says how a representation is built from the defining
(reflection) one, e.g. ("wedge2", ("double", ("defining",))); the test that
builds the representation passes the chain it built it by.

- Every element of a group held as two halves, multiplied out, and the
  counts and character sums over the products of any two element arrays.
- Reynolds averaging: the invariant dimension of a representation is the
  rank of the sum of its images over all group elements, assembled from the
  pair sums of the element array and ranked over ``Fraction``.
- Dense images of whole element arrays under a construction chain.
- The ambient root model: the simple roots closed under their ambient
  reflections in ``Fraction``, and simple-root coordinates from the inverse
  of the raw Gram.
- Lattice membership and the discriminant pairing, from Gram and basis
  inverses over ``Fraction``.
"""

from fractions import Fraction
from functools import cache

import numpy as np

import _rational as ref


def _pairs(n, strict):
    # Index pairs (i, j), i < j or i <= j, lexicographic.
    return tuple((i, j) for i in range(n) for j in range(i + int(strict), n))


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


# --- elements -----------------------------------------------------------------


def all_elements(group):
    """The ``(|U| |V|, n, n)`` int8 array of the products u v of a group's
    two halves ``group.halves = (U, V)``, u-major: row i |V| + j is
    U[i] V[j]."""
    u, v = group.halves
    n = v.shape[1]
    out = np.empty((len(u), len(v), n, n), dtype=np.int8)
    v = v.astype(np.int16)
    for i, a in enumerate(u.astype(np.int16)):
        out[i] = a @ v
    return out.reshape(-1, n, n)


def trace_counts(u, v):
    """(identities, reflections, sum of traces, sum of squared traces) over
    every product of an element of ``u`` and one of ``v``, each multiplied
    out in int64: products of trace n count as identities, and those of
    trace n - 2 that square to 1 as reflections.  Any two integer arrays
    will do, not only the halves of a group."""
    n = v.shape[1]
    v = v.astype(np.int64)
    identities = reflections = trace_sum = trace_square_sum = 0
    for a in u.astype(np.int64):
        w = a @ v
        traces = np.trace(w, axis1=1, axis2=2)
        candidates = w[traces == n - 2]
        identities += int(np.count_nonzero(traces == n))
        reflections += int(np.count_nonzero((candidates @ candidates == np.eye(n)).all(axis=(1, 2))))
        trace_sum += int(traces.sum())
        trace_square_sum += int((traces * traces).sum())
    return identities, reflections, trace_sum, trace_square_sum


# --- Reynolds averaging -------------------------------------------------------

# id(elements) -> (elements, pair sums); the array is held so its id stays unique.
_pair_sums = {}


def pair_sums(elements):
    """(sum of the elements, sum of their flattened tensor squares) of an
    ``(order, n, n)`` element array, cached per array.

    The second array S has S[(k,i),(l,j)] = sum over the elements w of
    w[k,i] * w[l,j]; every quadratic-in-w group average assembles from it by
    pure indexing.
    """
    hit = _pair_sums.get(id(elements))
    if hit is None or hit[0] is not elements:
        order, n, _ = elements.shape
        flat = elements.reshape(order, n * n)
        s1 = flat.sum(axis=0, dtype=np.int64).reshape(n, n)
        s4 = np.zeros((n * n, n * n), dtype=np.int64)
        for lo in range(0, order, 200_000):
            chunk = flat[lo : lo + 200_000].astype(np.int64)
            s4 += chunk.T @ chunk
        hit = _pair_sums[id(elements)] = (elements, (s1, s4))
    return hit[1]


def _sum_from_pair_matrix(chain, elements):
    """The summed images over all elements, assembled from the pair sums.

    Covers the construction chains whose entries are linear or quadratic in
    the defining matrix entries; returns None for any other chain.
    """
    n0 = elements.shape[1]

    def position_map(chain_part):
        # Maps an entry position (a, b) of the inner image to a flat index of
        # the defining matrix, or None for a structural zero.
        if chain_part == ("defining",):
            return n0, lambda a, b: a * n0 + b
        if chain_part == ("double", ("defining",)):
            def pos(a, b):
                if (a < n0) == (b < n0):
                    return (a % n0) * n0 + (b % n0)
                return None

            return 2 * n0, pos
        return None

    if chain == ("defining",):
        s1, _ = pair_sums(elements)
        return s1.astype(np.int64)
    if chain[0] == "double":
        inner = _sum_from_pair_matrix(chain[1], elements)
        if inner is None:
            return None
        d = inner.shape[0]
        out = np.zeros((2 * d, 2 * d), dtype=np.int64)
        out[:d, :d] = inner
        out[d:, d:] = inner
        return out
    if chain[0] in ("sym2", "wedge2"):
        base = position_map(chain[1])
        if base is None:
            return None
        dim_in, pos = base
        _, s4 = pair_sums(elements)

        def pair_sum(a, b, c, d):
            # sum over the group of inner[a, b] * inner[c, d]
            p, q = pos(a, b), pos(c, d)
            if p is None or q is None:
                return 0
            return int(s4[p, q])

        if chain[0] == "wedge2":
            idx = _pairs(dim_in, strict=True)
            out = np.empty((len(idx), len(idx)), dtype=np.int64)
            for r, (k, l) in enumerate(idx):
                for c, (i, j) in enumerate(idx):
                    out[r, c] = pair_sum(k, i, l, j) - pair_sum(l, i, k, j)
            return out
        idx = _pairs(dim_in, strict=False)
        out = np.empty((len(idx), len(idx)), dtype=np.int64)
        for r, (k, l) in enumerate(idx):
            for c, (i, j) in enumerate(idx):
                if k == l:
                    out[r, c] = pair_sum(k, i, k, j)
                else:
                    out[r, c] = pair_sum(k, i, l, j) + pair_sum(l, i, k, j)
        return out
    return None


def reynolds_sum(chain, elements):
    """Sum of the images of all the elements under ``chain``, as an int64
    array.

    The averaged projector is this sum divided by the group order; its rank
    is unchanged by the scaling.  A chain with no pair-sum assembly, such as
    ("explicit",) for given generator images, raises ValueError.
    """
    total = _sum_from_pair_matrix(chain, elements)
    if total is None:
        raise ValueError(f"chain {chain!r} has no Reynolds sum from pair sums")
    return total


def invariant_dim_reynolds(chain, elements):
    """Rank of the group-averaged projector (1/|W|) * sum of images, for the
    element array of an exhaustively enumerated group."""
    return ref.rank(reynolds_sum(chain, elements).tolist())


# --- dense images ---------------------------------------------------------------


def _batch_double(images):
    m, n, _ = images.shape
    out = np.zeros((m, 2 * n, 2 * n), dtype=np.int64)
    out[:, :n, :n] = images
    out[:, n:, n:] = images
    return out


def batch_images(chain, elements):
    """Exact integer images of the given defining-representation elements
    under a construction chain."""
    if chain == ("defining",):
        return elements.astype(np.int64)
    if chain[0] == "double":
        return _batch_double(batch_images(chain[1], elements))
    if chain[0] in ("sym2", "wedge2"):
        inner = batch_images(chain[1], elements)
        # Entry ((k, l), (i, j)) is built from a = inner[k, i] * inner[l, j]
        # and b = inner[l, i] * inner[k, j]: a - b on Wedge2, a + b on Sym2
        # (a alone when k == l).
        idx = _pairs(inner.shape[1], strict=chain[0] == "wedge2")
        first = np.array([p[0] for p in idx])
        second = np.array([p[1] for p in idx])
        a = inner[:, first[:, None], first[None, :]] * inner[:, second[:, None], second[None, :]]
        b = inner[:, second[:, None], first[None, :]] * inner[:, first[:, None], second[None, :]]
        if chain[0] == "wedge2":
            return a - b
        return np.where((first == second)[:, None], a, a + b)
    raise ValueError(f"chain {chain!r} does not support element-wise images")


# --- the ambient root model -------------------------------------------------------


@cache
def ambient_roots(simple_rows, denominator):
    """Every root in ambient coordinates, sorted: the simple roots
    ``simple_rows[i] / denominator`` and their negatives, closed under the
    reflections v -> v - 2 (v, a) / (a, a) a in the simple roots a."""
    simple = [tuple(Fraction(x, denominator) for x in row) for row in simple_rows]
    norms = [_dot(a, a) for a in simple]
    roots = set(simple) | {tuple(-x for x in a) for a in simple}
    frontier = list(roots)
    while frontier:
        new = []
        for v in frontier:
            for a, norm in zip(simple, norms):
                c = 2 * _dot(v, a) / norm
                if c:
                    w = tuple(x - c * y for x, y in zip(v, a))
                    if w not in roots:
                        roots.add(w)
                        new.append(w)
        frontier = new
    return tuple(sorted(roots))


def root_basis_coordinates(simple_rows, denominator, vectors):
    """Simple-root coordinates of ambient vectors in the span of the simple
    roots a_i = ``simple_rows[i] / denominator``: c = Gram^-1 ((a_i, v))_i,
    with the raw Gram of the a_i inverted over ``Fraction``."""
    simple = ref.divided(simple_rows, denominator)
    inverse = ref.inverse([[_dot(a, b) for b in simple] for a in simple])
    out = []
    for v in vectors:
        dots = [_dot(a, v) for a in simple]
        out.append(tuple(_dot(row, dots) for row in inverse))
    return out


@cache
def root_coords(simple_rows, denominator):
    """Every root in simple-root coordinates, sorted."""
    roots = ambient_roots(simple_rows, denominator)
    return tuple(sorted(root_basis_coordinates(simple_rows, denominator, roots)))


def ambient_matrices(elements, simple_rows):
    """An ``(order, n, n)`` array of root-basis elements written in the
    ambient basis, S w S^-1 with the simple roots as the columns of S.

    S must be square with an integral inverse, as for type B.
    """
    s = [list(col) for col in zip(*simple_rows)]
    s_inv = ref.inverse(s)
    if any(x.denominator != 1 for row in s_inv for x in row):
        raise ValueError("the simple roots are not a unimodular basis")
    basis = np.array(s, dtype=np.int64)
    basis_inv = np.array([[int(x) for x in row] for row in s_inv], dtype=np.int64)
    return basis[None] @ elements.astype(np.int64) @ basis_inv[None]


# --- lattices between the root lattice and its dual ----------------------------


def _integral(m):
    return all(x.denominator == 1 for row in m for x in row)


def in_lattice(basis, vectors):
    """Whether every vector is an integer combination of the basis rows:
    v B^-1 integral."""
    return _integral(ref.matmul(vectors, ref.inverse(basis)))


def annihilator(disc, subgroup, gram):
    """The classes of a discriminant group ``disc`` that pair integrally with
    every class of ``subgroup``: x G^-1 y an integer for the dual-basis lifts
    x and y, with G the Gram of the root lattice."""
    inverse = ref.inverse(gram)
    lifts = ref.transpose([disc.lift(y) for y in subgroup])
    return frozenset(
        a for a in disc.elements() if _integral(ref.matmul(ref.matmul([disc.lift(a)], inverse), lifts))
    )

"""Dual lattices, discriminant groups, and the towers of group-stable lattices
between a root lattice and its dual.

A lattice L with root lattice <= L <= dual lattice corresponds to a subgroup
of the finite discriminant group (dual modulo root); L is stable under a group
of isometries iff the subgroup is stable under the induced action on the
discriminant group, which is a finite, exactly decidable condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import DiscriminantTooLargeError, LatticeActionError
from .exact_linalg import IntMatrix, RatMatrix, hermite_normal_form, smith_normal_form
from .root_data import (
    RootDatum,
    RootSystemSpec,
    ambient_matrix_in_root_basis,
    build_root_datum,
    simple_reflections,
    Lattice,
)

DEFAULT_DISC_CAP = 10**6


def dual_lattice(datum: RootDatum) -> Lattice:
    """The dual lattice, carried by the inverse Gram form in the dual basis."""
    gram_inv = _divided(*datum.gram.adjugate())
    return Lattice(rank=datum.rank, gram=_as_lattice_gram(gram_inv), label=f"{datum.label}*")


def _as_lattice_gram(m: RatMatrix):
    return m.to_int() if m.is_integral() else m


def _divided(m: IntMatrix, d: int) -> RatMatrix:
    """The rational matrix m / d, entry by entry."""
    return RatMatrix(m.rows, m.cols, (Fraction(x, d) for x in m.data))


def dual_index(datum: RootDatum) -> int:
    """Index of the root lattice inside its dual: the Gram determinant."""
    return datum.gram.det()


@dataclass(frozen=True)
class DiscriminantGroup:
    """The quotient (dual lattice) / (root lattice) in invariant-factor form.

    ``generator_lifts`` are dual-basis coordinate vectors generating the
    quotient, one per invariant factor; ``to_invariant`` rows convert a
    dual-coordinate vector to invariant-factor coordinates.
    """

    rank: int
    invariant_factors: tuple[int, ...]
    generator_lifts: tuple[tuple[int, ...], ...]
    order: int
    _to_invariant_rows: tuple[tuple[int, ...], ...]

    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All elements as invariant-factor coordinate tuples, product order."""
        return tuple(itertools.product(*(range(d) for d in self.invariant_factors)))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.invariant_factors)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariant_factors))

    def lift(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """A dual-coordinate representative of the class ``a``."""
        out = [0] * self.rank
        for coeff, gen in zip(a, self.generator_lifts):
            for i, g in enumerate(gen):
                out[i] += coeff * g
        return tuple(out)

    def reduce(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """Invariant-factor coordinates of a dual-coordinate vector's class."""
        return tuple(
            sum(r * v for r, v in zip(row, x)) % d
            for row, d in zip(self._to_invariant_rows, self.invariant_factors)
        )


def discriminant_group(datum: RootDatum) -> DiscriminantGroup:
    """Discriminant group from the Smith normal form of the Gram matrix.

    In dual-basis coordinates the root lattice is the row space of the Gram
    matrix; with U G V = D unimodularly diagonal, the class of x is U x read
    modulo the invariant factors, and the factor generators lift to the
    columns of U^{-1}.
    """
    gram = datum.gram
    if gram.det() == 0:
        raise ValueError("gram matrix is singular")
    sf = smith_normal_form(gram)
    factors = sf.torsion_factors
    n = datum.rank
    u_adj, u_det = sf.left.adjugate()
    if u_det not in (1, -1):
        raise AssertionError("left Smith transform is not unimodular")
    u_inv_int = u_adj if u_det == 1 else -u_adj
    nontrivial = [i for i, d in enumerate(sf.diag) if d > 1]
    lifts = tuple(
        tuple(u_inv_int[r, i] for r in range(n)) for i in nontrivial
    )
    rows = tuple(tuple(sf.left[i, c] for c in range(n)) for i in nontrivial)
    return DiscriminantGroup(
        rank=n,
        invariant_factors=factors,
        generator_lifts=lifts,
        order=gram.det(),
        _to_invariant_rows=rows,
    )


def _dual_action_matrix(
    generator: IntMatrix, gram: IntMatrix, gram_adjugate: tuple[IntMatrix, int]
) -> IntMatrix:
    """Matrix of a lattice isometry on dual-basis coordinates.

    For a root-basis matrix M preserving the lattice, the dual action is the
    inverse transpose; it must be integral (the map preserves the dual
    lattice; for an integer M, exactly when det M = +-1) and must map the
    root-lattice rows into themselves (G^-1 N G integral, tested as
    adj(G) N G = 0 modulo det G).  ``gram_adjugate`` is ``gram.adjugate()``.
    """
    inv_adj, inv_det = generator.adjugate()
    if inv_det not in (1, -1):
        raise LatticeActionError("generator does not preserve the dual lattice")
    n_int = (inv_adj if inv_det == 1 else -inv_adj).transpose()
    adj, det = gram_adjugate
    if any(x % det for x in (adj @ n_int @ gram).data):
        raise LatticeActionError("generator does not preserve the root lattice rows")
    return n_int


def induced_discriminant_action(
    group_generators: tuple[IntMatrix, ...],
    disc: DiscriminantGroup,
    gram: IntMatrix,
    gram_adjugate: tuple[IntMatrix, int],
) -> tuple[dict[tuple[int, ...], tuple[int, ...]], ...]:
    """Automorphism of the discriminant group induced by each generator.

    Each map is returned as a dictionary on invariant-factor coordinate
    tuples.  ``gram_adjugate`` is ``gram.adjugate()``, computed once by the
    caller.  Raises :class:`LatticeActionError` if a generator fails to
    preserve the lattice pair.
    """
    elements = disc.elements()
    maps = []
    for g in group_generators:
        action = _dual_action_matrix(g, gram, gram_adjugate)
        n = action.rows
        table = {}
        for a in elements:
            x = disc.lift(a)
            y = tuple(sum(action[i, j] * x[j] for j in range(n)) for i in range(n))
            table[a] = disc.reduce(y)
        if sorted(table.values()) != sorted(elements):
            raise LatticeActionError("induced map on the discriminant group is not a bijection")
        for a in elements:
            for b in elements:
                if table[disc.add(a, b)] != disc.add(table[a], table[b]):
                    raise LatticeActionError("induced map is not additive")
        maps.append(table)
    return tuple(maps)


def _close_subgroup(disc: DiscriminantGroup, seed: frozenset) -> frozenset:
    closed = set(seed)
    closed.add(disc.zero())
    frontier = list(closed)
    while frontier:
        new = []
        for a in frontier:
            for b in list(closed):
                c = disc.add(a, b)
                if c not in closed:
                    closed.add(c)
                    new.append(c)
        frontier = new
    return frozenset(closed)


def all_subgroups(disc: DiscriminantGroup, cap: int = DEFAULT_DISC_CAP) -> tuple[frozenset, ...]:
    """Every subgroup of the discriminant group, by closure of element subsets.

    Deterministic order: by subgroup order, then by the sorted element tuples.
    """
    if disc.order > cap:
        raise DiscriminantTooLargeError(disc.order, cap)
    elements = disc.elements()
    found = {frozenset({disc.zero()})}
    worklist = list(found)
    while worklist:
        s = worklist.pop()
        for e in elements:
            if e not in s:
                t = _close_subgroup(disc, s | {e})
                if t not in found:
                    found.add(t)
                    worklist.append(t)
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def minimal_generating_set(disc: DiscriminantGroup, subgroup: frozenset) -> tuple[tuple[int, ...], ...]:
    """A small deterministic generating set of a subgroup."""
    gens: list[tuple[int, ...]] = []
    span = frozenset({disc.zero()})
    for e in sorted(subgroup):
        if e not in span:
            gens.append(e)
            span = _close_subgroup(disc, span | {e})
            if span == subgroup:
                break
    return tuple(gens)


def annihilator_subgroup(
    disc: DiscriminantGroup, subgroup: frozenset, gram_adjugate: tuple[IntMatrix, int]
) -> frozenset:
    """Elements pairing integrally with the whole subgroup.

    The pairing of two classes is the rational inner product x G^-1 y of
    dual-basis lifts taken modulo 1, tested as x adj(G) y = 0 modulo det G
    with ``gram_adjugate == gram.adjugate()``; sending a subgroup to its
    annihilator is the inclusion-reversing involution matching lattice
    duality.
    """
    adj, det = gram_adjugate
    n = adj.rows
    gens = minimal_generating_set(disc, subgroup)
    # adj(G) y for each generator lift y.
    images = [
        tuple(sum(adj[i, j] * y[j] for j in range(n)) for i in range(n))
        for y in (disc.lift(g) for g in gens)
    ]
    out = []
    for a in disc.elements():
        x = disc.lift(a)
        if all(sum(xi * zi for xi, zi in zip(x, z)) % det == 0 for z in images):
            out.append(a)
    return frozenset(out)


@dataclass(frozen=True)
class IntermediateLattice:
    """A group-stable lattice between the root lattice and its dual.

    ``basis`` rows are dual-basis coordinates (Hermite normal form, so the
    representation is canonical); ``gram`` is the form inherited from the
    ambient rational span.
    """

    label: str
    subgroup_generators: tuple[tuple[int, ...], ...]
    subgroup_order: int
    index_over_root: int
    basis: IntMatrix
    gram: RatMatrix

    def primitive_gram(self) -> IntMatrix:
        prim, _ = self.gram.primitive_integer()
        return prim

    def contains_dual_vector(
        self, v: tuple[int, ...], basis_adjugate: tuple[IntMatrix, int] | None = None
    ) -> bool:
        """Whether v is an integer combination of the basis rows, i.e. v B^-1
        is integral, tested as v adj(B) = 0 modulo det B.  Pass
        ``self.basis.adjugate()`` to reuse it across calls."""
        adj, det = basis_adjugate if basis_adjugate is not None else self.basis.adjugate()
        return all(
            sum(v[j] * adj[j, i] for j in range(len(v))) % det == 0 for i in range(adj.cols)
        )


@dataclass(frozen=True)
class TowerReport:
    """All group-stable intermediate lattices for one root datum."""

    datum_label: str
    group_label: str
    disc: DiscriminantGroup
    lattices: tuple[IntermediateLattice, ...]
    rescaling_classes: tuple[tuple[int, ...], ...]
    inconclusive_pairs: tuple[tuple[int, int], ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lat.label for lat in self.lattices)


def _lattice_from_subgroup(
    datum: RootDatum,
    disc: DiscriminantGroup,
    subgroup: frozenset,
    label: str,
    gram_adjugate: tuple[IntMatrix, int],
) -> IntermediateLattice:
    n = datum.rank
    gram = datum.gram
    gram_adj, gram_det = gram_adjugate
    rows = gram.to_rows()
    for e in sorted(subgroup):
        rows.append(list(disc.lift(e)))
    h, _ = hermite_normal_form(IntMatrix.from_rows(rows))
    basis = IntMatrix.from_rows(h.to_rows()[:n])
    if basis.det() == 0:
        raise AssertionError("lattice basis is singular")
    index = abs(gram_det) // abs(basis.det())
    if index != len(subgroup):
        raise AssertionError("index does not match subgroup order")
    # B G^-1 B^T, with G^-1 = adj(G) / det G.
    lattice_gram = _divided(basis @ gram_adj @ basis.transpose(), gram_det)
    return IntermediateLattice(
        label=label,
        subgroup_generators=minimal_generating_set(disc, subgroup),
        subgroup_order=len(subgroup),
        index_over_root=index,
        basis=basis,
        gram=lattice_gram,
    )


def _recognize_label(datum: RootDatum, disc_order: int, subgroup: frozenset, gram: RatMatrix, rank: int, seen: list[str]) -> str:
    if len(subgroup) == 1:
        return datum.label
    if len(subgroup) == disc_order:
        return f"{datum.label}*"
    if gram.is_integral():
        g = gram.to_int()
        if g.det() == 1 and lattice_isometric(g, IntMatrix.identity(rank)) is True:
            base = f"Z^{rank}"
            if base not in seen:
                return base
    base = f"{datum.label}+[{len(subgroup)}]"
    candidate = base
    k = 2
    while candidate in seen:
        candidate = f"{base}#{k}"
        k += 1
    return candidate


def invariant_intermediate_lattices(
    datum: RootDatum,
    group_generators: tuple[IntMatrix, ...] | None = None,
    cap: int = DEFAULT_DISC_CAP,
) -> TowerReport:
    """Enumerate all group-stable lattices between the root lattice and its dual.

    Subgroups of the discriminant group are enumerated exhaustively, filtered
    by the induced action of the generators, and lifted back to lattices with
    their inherited Gram forms.  Output is sorted by index over the root
    lattice, then by subgroup elements.
    """
    gens = group_generators if group_generators is not None else simple_reflections(datum)
    disc = discriminant_group(datum)
    gram_adjugate = datum.gram.adjugate()
    actions = induced_discriminant_action(tuple(gens), disc, datum.gram, gram_adjugate)
    subgroups = all_subgroups(disc, cap)
    stable = []
    for s in subgroups:
        if all(all(table[e] in s for e in s) for table in actions):
            stable.append(s)
    stable.sort(key=lambda s: (len(s), sorted(s)))

    lattices: list[IntermediateLattice] = []
    labels: list[str] = []
    for s in stable:
        lat = _lattice_from_subgroup(datum, disc, s, "", gram_adjugate)
        label = _recognize_label(datum, disc.order, s, lat.gram, datum.rank, labels)
        labels.append(label)
        lattices.append(replace(lat, label=label))

    classes, flagged = classify_up_to_rescaling(lattices)
    return TowerReport(
        datum_label=datum.label,
        group_label="W(" + datum.label + ")" if group_generators is None else "custom",
        disc=disc,
        lattices=tuple(lattices),
        rescaling_classes=classes,
        inconclusive_pairs=flagged,
    )


def bc_tower(spec: RootSystemSpec, cap: int = DEFAULT_DISC_CAP) -> TowerReport:
    """The tower of W(B_n) = W(C_n)-stable lattices between D_n and its dual.

    The B/C root lattices themselves have trivial or rigid discriminant
    groups; the interesting tower for these Weyl groups lives over D_n, on
    which the full signed-permutation group acts.
    """
    if spec.family not in ("B", "C"):
        raise ValueError("bc_tower expects a B or C spec")
    if spec.rank < 3:
        raise ValueError("the D-lattice tower needs rank >= 3")
    d_datum = build_root_datum(RootSystemSpec("D", spec.rank))
    bc_datum = build_root_datum(spec)
    gens = []
    for i in range(1, spec.rank + 1):
        beta = bc_datum.simple_roots[i - 1]
        norm = sum((x * x for x in beta), Fraction(0))
        images = []
        for alpha in d_datum.simple_roots:
            c = 2 * sum((a * b for a, b in zip(alpha, beta)), Fraction(0)) / norm
            images.append(tuple(x - c * b for x, b in zip(alpha, beta)))
        mat = ambient_matrix_in_root_basis(d_datum, images)
        if not mat.is_integral():
            raise LatticeActionError("signed-permutation generator does not preserve the D lattice")
        gens.append(mat.to_int())
    report = invariant_intermediate_lattices(d_datum, tuple(gens), cap)
    return TowerReport(
        datum_label=report.datum_label,
        group_label=f"W({spec.label})",
        disc=report.disc,
        lattices=report.lattices,
        rescaling_classes=report.rescaling_classes,
        inconclusive_pairs=report.inconclusive_pairs,
    )


# --- exact short vectors and isometry testing ---------------------------------


def _rational_cholesky(g: RatMatrix) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Diagonal d and unit-upper-triangular u with Q(x) = sum d_i (x_i + sum_{j>i} u_ij x_j)^2."""
    n = g.rows
    a = [[g[i, j] for j in range(n)] for i in range(n)]
    d: list[Fraction] = []
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if a[i][i] <= 0:
            raise ValueError("form is not positive definite")
        d.append(a[i][i])
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / a[i][i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= a[i][j] * a[i][k] / a[i][i]
                a[k][j] = a[j][k]
    return d, u


def _floor_sqrt(x: Fraction) -> int:
    if x < 0:
        raise ValueError("negative radicand")
    return isqrt(x.numerator * x.denominator) // x.denominator


def short_vectors(g: RatMatrix, bound: Fraction) -> list[tuple[tuple[int, ...], Fraction]]:
    """All lattice vectors (up to sign) with 0 < Q(x) <= bound, exactly.

    Standard recursive enumeration on the rational Cholesky decomposition;
    integer ranges are located with exact integer square roots and filtered by
    the exact quadratic form.  Only one of each +-pair is returned, with the
    first nonzero coordinate positive.
    """
    n = g.rows
    bound = Fraction(bound)
    d, u = _rational_cholesky(g)
    out: list[tuple[tuple[int, ...], Fraction]] = []
    x = [0] * n

    def recurse(i: int, remaining: Fraction):
        if i < 0:
            if any(x):
                used = bound - remaining
                vec = tuple(x)
                for v in vec:
                    if v > 0:
                        out.append((vec, used))
                        return
                    if v < 0:
                        return
            return
        c = sum((u[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        radius = remaining / d[i]
        s = _floor_sqrt(radius)
        lo = -s - 1
        hi = s + 1
        center = -c
        base = center.numerator // center.denominator  # floor
        for xi in range(base + lo, base + hi + 2):
            val = d[i] * (xi + c) ** 2
            if val <= remaining:
                x[i] = xi
                recurse(i - 1, remaining - val)
        x[i] = 0

    recurse(n - 1, bound)
    return sorted(out)


def _greedy_reduce(g: IntMatrix) -> IntMatrix:
    """Unimodular congruence with pairwise size-reduced basis, diagonal sorted.

    Repeatedly replaces b_i by b_i - q b_j whenever that strictly shrinks the
    norm of b_i (q the nearest integer to the Gram ratio).  Every step lowers
    a positive integer diagonal entry, so the loop terminates; the result is
    congruent to the input.  Exact integer arithmetic throughout.
    """
    n = g.rows
    a = g.to_rows()
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or a[j][j] == 0:
                    continue
                q = round(Fraction(a[i][j], a[j][j]))
                if q == 0:
                    continue
                new_ii = a[i][i] - 2 * q * a[i][j] + q * q * a[j][j]
                if new_ii < a[i][i]:
                    for k in range(n):
                        a[i][k] -= q * a[j][k]
                    for k in range(n):
                        a[k][i] -= q * a[k][j]
                    changed = True
    order = sorted(range(n), key=lambda i: (a[i][i], a[i]))
    return IntMatrix(n, n, (a[order[i]][order[j]] for i in range(n) for j in range(n)))


def lattice_isometric(
    g1: IntMatrix, g2: IntMatrix, node_cap: int = 1_000_000
) -> bool | None:
    """Decide whether two positive definite integer forms are unimodularly
    equivalent, by backtracking over short-vector candidates.

    Both forms are first greedily size-reduced, so the candidate vectors live
    at small norms; the basis of the first form is then reordered
    most-constrained-first, so each new vector is pruned by as many
    inner-product constraints as possible.  Returns True/False, or None when
    the search exceeds ``node_cap`` nodes (callers must treat None as
    inconclusive, never as a match).
    """
    n = g1.rows
    if n != g2.rows:
        return False
    if g1.det() != g2.det():
        return False
    if smith_normal_form(g1).diag != smith_normal_form(g2).diag:
        return False
    if n == 0:
        return True
    # Greedy reduction is not canonical, so differing reduced diagonals prove
    # nothing; the short-vector histogram below is the sound invariant.
    g1 = _greedy_reduce(g1)
    g2 = _greedy_reduce(g2)

    # Reorder the target basis so each column touches prior ones; the
    # permuted form is congruent to the original, so the verdict transfers.
    order: list[int] = []
    remaining = set(range(n))
    while remaining:
        if order:
            pick = min(remaining, key=lambda j: (-sum(1 for k in order if g1[j, k]), j))
        else:
            pick = min(remaining, key=lambda j: (-sum(1 for k in range(n) if k != j and g1[j, k]), j))
        order.append(pick)
        remaining.discard(pick)
    target = [[g1[order[i], order[j]] for j in range(n)] for i in range(n)]

    norms_needed = [Fraction(target[i][i]) for i in range(n)]
    max_norm = max(norms_needed)
    # Count first: the vector counts below max_norm must agree as well, and
    # a mismatch at a small bound (Z^n has 2n vectors of norm 1) is found
    # without enumerating both forms up to max_norm.
    r1, r2 = g1.to_rat(), g2.to_rat()
    for k in range(1, int(max_norm)):
        if len(short_vectors(r1, k)) != len(short_vectors(r2, k)):
            return False
    cands = short_vectors(r2, max_norm)
    by_norm: dict[Fraction, list[tuple[int, ...]]] = {}
    for vec, norm in cands:
        by_norm.setdefault(norm, []).extend((vec, tuple(-v for v in vec)))
    for norm in list(by_norm):
        by_norm[norm].sort()
    # Integer forms have integer norms and the counts below max_norm already
    # agree, so equal totals at max_norm mean equal counts at every norm.
    if len(short_vectors(r1, max_norm)) != len(cands):
        return False

    g2_arr = np.array(g2.to_rows(), dtype=np.int64)
    cand_arrays: dict[Fraction, np.ndarray] = {
        norm: np.array(vecs, dtype=np.int64) for norm, vecs in by_norm.items()
    }
    # Rows of (candidates @ g2): pairing of candidate i with vector v is
    # pairings[norm][i] . v.
    pairing_rows = {norm: arr @ g2_arr for norm, arr in cand_arrays.items()}

    chosen = np.zeros((n, n), dtype=np.int64)
    nodes = 0

    def backtrack(col: int) -> bool | None:
        nonlocal nodes
        norm = norms_needed[col]
        if norm not in cand_arrays:
            return False
        rows = pairing_rows[norm]
        mask = np.ones(rows.shape[0], dtype=bool)
        for k in range(col):
            mask &= rows @ chosen[k] == target[col][k]
        idxs = np.nonzero(mask)[0]
        nodes += int(rows.shape[0])
        if nodes > node_cap:
            return None
        if col == n - 1:
            return bool(idxs.size)
        arr = cand_arrays[norm]
        for i in idxs:
            chosen[col] = arr[i]
            result = backtrack(col + 1)
            if result:
                return True
            if result is None:
                return None
        return False

    return backtrack(0)


def classify_up_to_rescaling(
    lattices: list[IntermediateLattice] | tuple[IntermediateLattice, ...],
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
    """Partition lattices whose primitively rescaled Gram forms are unimodularly
    equivalent; inconclusive pairs are flagged, never merged.

    Returns (classes, flagged): classes as sorted index tuples, flagged as
    pairs whose equivalence search hit the node cap.
    """
    m = len(lattices)
    prims = [lat.primitive_gram() for lat in lattices]
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    flagged: list[tuple[int, int]] = []
    for i in range(m):
        for j in range(i + 1, m):
            if find(i) == find(j):
                continue
            verdict = lattice_isometric(prims[i], prims[j])
            if verdict is True:
                parent[find(j)] = find(i)
            elif verdict is None:
                flagged.append((i, j))
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    classes = tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))
    return classes, tuple(flagged)

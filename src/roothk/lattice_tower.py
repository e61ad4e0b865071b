"""Discriminant groups and the towers of group-stable lattices between a root
lattice and its dual.

A lattice L with root lattice <= L <= dual lattice corresponds to a subgroup
of the finite discriminant group (dual modulo root); L is stable under a group
of isometries iff the subgroup is stable under the induced action on the
discriminant group, which is a finite, exactly decidable condition.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterator, NamedTuple

from .errors import DiscriminantTooLargeError, LatticeActionError
from .exact_linalg import IntMatrix, hermite_normal_form, smith_normal_form
from .root_data import RootDatum, RootSystemSpec, build_root_datum

# Largest discriminant group whose subgroups are enumerated, and the most
# candidate vectors and backtracking nodes one isometry search may visit
# before its verdict is None (inconclusive).
_DISC_CAP = 10**6
_NODE_CAP = 1_000_000


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(map(mul, a, b))


class DiscriminantGroup(NamedTuple):
    """The quotient (dual lattice) / (root lattice) in invariant-factor form.

    ``generator_lifts`` are dual-basis coordinate vectors generating the
    quotient, one per invariant factor; the ``to_invariant_rows`` convert a
    dual-coordinate vector to invariant-factor coordinates.
    """

    rank: int
    invariant_factors: tuple[int, ...]
    generator_lifts: tuple[tuple[int, ...], ...]
    order: int
    to_invariant_rows: tuple[tuple[int, ...], ...]

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
            for row, d in zip(self.to_invariant_rows, self.invariant_factors)
        )


def discriminant_group(datum: RootDatum) -> DiscriminantGroup:
    """Discriminant group from the Smith normal form of the Gram matrix.

    In dual-basis coordinates the root lattice is the row space of the Gram
    matrix; with U G V = D unimodularly diagonal, the class of x is U x read
    modulo the invariant factors, and the factor generators lift to the
    columns of U^{-1}.  The order is the product of the Smith diagonal.
    """
    sf = smith_normal_form(datum.gram)
    order = prod(sf.diag)
    if order == 0:
        raise ValueError("gram matrix is singular")
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
        order=order,
        to_invariant_rows=rows,
    )


def induced_discriminant_action(
    reflections: tuple[tuple[int, ...], ...],
    disc: DiscriminantGroup,
    gram: IntMatrix,
) -> tuple[dict[tuple[int, ...], tuple[int, ...]], ...]:
    """Automorphism of the discriminant group induced by each reflection.

    Each reflection is given by an integer root-basis vector b of its root
    beta.  In dual-basis coordinates (x, beta) = x.b, beta is v = G b and
    (beta, beta) = N = b.v, so s_beta(x) = x - (2 x.b / N) v.  That is integral
    on every dual vector exactly when N divides every 2 b_j v_k, that is
    2 gcd(b) gcd(v), checked once per reflection; otherwise
    :class:`LatticeActionError` is raised.  An isometric involution that
    preserves the dual lattice also preserves its dual, the root lattice, so
    each induced map is an automorphism of the discriminant group.  It is
    computed on the generator lifts and extended additively; each map is
    returned as a dictionary on invariant-factor coordinate tuples.
    """
    elements = disc.elements()
    factors = disc.invariant_factors
    gram_rows = gram.to_rows()
    maps = []
    for b in reflections:
        v = [_dot(row, b) for row in gram_rows]
        norm = _dot(b, v)
        if 2 * gcd(*b) * gcd(*v) % norm:
            raise LatticeActionError(f"reflection in {tuple(b)} does not preserve the dual lattice")
        images = []
        for x in disc.generator_lifts:
            c = 2 * _dot(x, b)
            images.append(disc.reduce(tuple(xi - c * vi // norm for xi, vi in zip(x, v))))
        maps.append({
            a: tuple(
                sum(ak * img[i] for ak, img in zip(a, images)) % d for i, d in enumerate(factors)
            )
            for a in elements
        })
    return tuple(maps)


def _extend_subgroup(disc: DiscriminantGroup, h: frozenset, g: tuple[int, ...]) -> frozenset:
    """The subgroup generated by the subgroup h and g: the union of the cosets
    h + k·g for k = 0, 1, ... up to the first multiple k·g that lies in h."""
    out = set(h)
    kg = g
    while kg not in h:
        out.update(disc.add(x, kg) for x in h)
        kg = disc.add(kg, g)
    return frozenset(out)


def all_subgroups(disc: DiscriminantGroup) -> tuple[frozenset, ...]:
    """Every subgroup of the discriminant group: starting from the trivial
    subgroup, each one found is extended by every element outside it.

    Every subgroup is reached, since it is the trivial subgroup extended by
    its generators one at a time.  Deterministic order: by subgroup order,
    then by the sorted element tuples.  Raises
    :class:`DiscriminantTooLargeError` past ``_DISC_CAP`` elements.
    """
    if disc.order > _DISC_CAP:
        raise DiscriminantTooLargeError(disc.order, _DISC_CAP)
    elements = disc.elements()
    found = {frozenset({disc.zero()})}
    worklist = list(found)
    while worklist:
        s = worklist.pop()
        for e in elements:
            if e not in s:
                t = _extend_subgroup(disc, s, e)
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
            span = _extend_subgroup(disc, span, e)
            if span == subgroup:
                break
    return tuple(gens)


class Ratio(NamedTuple):
    """An exact rational numerator/denominator in lowest terms, denominator positive."""

    numerator: int
    denominator: int


class IntermediateLattice(NamedTuple):
    """A group-stable lattice between the root lattice and its dual.

    ``basis`` rows are dual-basis coordinates (Hermite normal form, so the
    representation is canonical).  The form inherited from the ambient
    rational span is B G^-1 B^T, kept in integers as ``scaled_gram`` =
    B adj(G) B^T over ``gram_denominator`` = det G, with ``scaled_gram_det``
    its determinant.
    """

    label: str
    subgroup_order: int
    index_over_root: int
    basis: IntMatrix
    scaled_gram: IntMatrix
    gram_denominator: int
    scaled_gram_det: int

    @property
    def gram_det(self) -> Ratio:
        """det(B G^-1 B^T) in lowest terms (det G > 0, so the denominator is positive)."""
        num, den = self.scaled_gram_det, self.gram_denominator**self.basis.rows
        g = gcd(num, den)
        return Ratio(num // g, den // g)

    def primitive_gram(self) -> IntMatrix:
        """The inherited form rescaled to integer entries of content 1."""
        c = self.scaled_gram.content()
        return IntMatrix(self.basis.rows, self.basis.rows, (x // c for x in self.scaled_gram.data))

    @property
    def primitive_gram_det(self) -> int:
        return self.scaled_gram_det // self.scaled_gram.content() ** self.basis.rows


class TowerReport(NamedTuple):
    """All group-stable intermediate lattices for one root datum."""

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
    gram_adjugate: tuple[IntMatrix, int],
) -> IntermediateLattice:
    n = datum.rank
    gram_adj, gram_det = gram_adjugate
    # The root lattice (the Gram rows) and the generator lifts span the lattice.
    rows = datum.gram.to_rows()
    rows.extend(list(disc.lift(g)) for g in minimal_generating_set(disc, subgroup))
    h = hermite_normal_form(IntMatrix.from_rows(rows))
    basis = IntMatrix.from_rows(h.to_rows()[:n])
    # A full-rank row HNF is upper triangular: det B is its pivot product.
    basis_det = 1
    for i in range(n):
        basis_det *= basis[i, i]
    if basis_det == 0:
        raise AssertionError("lattice basis is singular")
    index = abs(gram_det) // basis_det
    if index != len(subgroup):
        raise AssertionError("index does not match subgroup order")
    # B G^-1 B^T = B adj(G) B^T / det G.
    scaled = basis @ gram_adj @ basis.transpose()
    scaled_det = scaled.det()
    if scaled_det != basis_det**2 * gram_det ** (n - 1):
        raise AssertionError("det of B adj(G) B^T is not det(B)^2 det(G)^(n-1)")
    return IntermediateLattice(
        label="",
        subgroup_order=len(subgroup),
        index_over_root=index,
        basis=basis,
        scaled_gram=scaled,
        gram_denominator=gram_det,
        scaled_gram_det=scaled_det,
    )


def _recognize_label(datum: RootDatum, disc_order: int, lat: IntermediateLattice, seen: list[str]) -> str:
    order = lat.subgroup_order
    if order == 1:
        return datum.label
    if order == disc_order:
        return f"{datum.label}*"
    d = lat.gram_denominator
    # An integral unimodular lattice is Z^n iff it has n pairs of norm-1
    # vectors: two such vectors that are not +-each other are orthogonal, so
    # n pairs span a unimodular sublattice of full rank, which is all of L.
    if all(x % d == 0 for x in lat.scaled_gram.data) and lat.gram_det == (1, 1):
        rank = datum.rank
        g = IntMatrix(rank, rank, (x // d for x in lat.scaled_gram.data))
        if len(short_vectors(g, 1)) == rank:
            base = f"Z^{rank}"
            if base not in seen:
                return base
    base = f"{datum.label}+[{order}]"
    candidate = base
    k = 2
    while candidate in seen:
        candidate = f"{base}#{k}"
        k += 1
    return candidate


def invariant_intermediate_lattices(datum: RootDatum, reflections: tuple[tuple[int, ...], ...]) -> TowerReport:
    """Enumerate all group-stable lattices between the root lattice and its dual.

    The group is generated by the reflections in ``reflections``, integer
    root-basis vectors of their roots (the unit vectors are the simple roots,
    which generate the Weyl group of the datum).  Subgroups of the
    discriminant group are enumerated exhaustively, filtered by the induced
    action of the reflections, and lifted back to lattices with their
    inherited Gram forms.  Output is sorted by index over the root lattice,
    then by subgroup elements.
    """
    disc = discriminant_group(datum)
    gram_adjugate = datum.gram.adjugate()
    actions = induced_discriminant_action(reflections, disc, datum.gram)
    # all_subgroups is sorted by (order, elements), and the filter keeps it so.
    stable = [s for s in all_subgroups(disc) if all(all(table[e] in s for e in s) for table in actions)]

    lattices: list[IntermediateLattice] = []
    labels: list[str] = []
    for s in stable:
        lat = _lattice_from_subgroup(datum, disc, s, gram_adjugate)
        label = _recognize_label(datum, disc.order, lat, labels)
        labels.append(label)
        lattices.append(lat._replace(label=label))

    classes, flagged = classify_up_to_rescaling(lattices)
    return TowerReport(
        disc=disc,
        lattices=tuple(lattices),
        rescaling_classes=classes,
        inconclusive_pairs=flagged,
    )


def _primitive_roots(
    datum: RootDatum, rows: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Primitive root-basis vectors of ``datum`` along the ambient integer
    ``rows``, which may be any positive multiples of the roots.

    The root-basis coordinates of v are a positive multiple of adj(G) times
    the dot products of v with the simple rows of ``datum``; dividing by the
    gcd leaves the primitive vector.
    """
    adj = datum.gram.adjugate()[0].to_rows()
    out = []
    for v in rows:
        dots = [_dot(r, v) for r in datum.simple_rows]
        c = [_dot(a, dots) for a in adj]
        g = gcd(*c)
        out.append(tuple(x // g for x in c))
    return tuple(out)


def tower_for_spec(spec: RootSystemSpec) -> TowerReport:
    """The sublattice tower of a spec: over the spec's own root lattice under
    its Weyl group (the reflections in the unit vectors), except for B and C.

    The B/C root lattices themselves have trivial or rigid discriminant
    groups; the interesting tower for these Weyl groups lives over D_n, on
    which the full signed-permutation group acts, generated by the
    reflections in the B/C simple roots.

    Raises :class:`DiscriminantTooLargeError` before any datum is built when
    the Cartan determinant of the tower's datum exceeds ``_DISC_CAP``.  For
    A, D and E, the only families whose discriminant group grows, that
    closed form is the group's order; ``all_subgroups`` checks the others.
    """
    bc = spec.family in ("B", "C")
    if bc and spec.rank < 3:
        raise ValueError("the D-lattice tower needs rank >= 3")
    tower_spec = RootSystemSpec("D", spec.rank) if bc else spec
    if tower_spec.cartan_determinant > _DISC_CAP:
        raise DiscriminantTooLargeError(tower_spec.cartan_determinant, _DISC_CAP)
    datum = build_root_datum(tower_spec)
    if bc:
        reflections = _primitive_roots(datum, build_root_datum(spec).simple_rows)
    else:
        n = spec.rank
        reflections = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return invariant_intermediate_lattices(datum, reflections)


# --- exact short vectors and isometry testing ---------------------------------


def short_vectors(g: IntMatrix, bound: int) -> list[tuple[tuple[int, ...], int]]:
    """All lattice vectors (up to sign) with 0 < Q(x) <= bound, exactly, as
    the sorted list of :func:`_short_vectors`."""
    return sorted(_short_vectors(g, bound))


def _short_vectors(g: IntMatrix, bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All lattice vectors (up to sign) with 0 < Q(x) <= bound, exactly, in
    the order the enumeration meets them.

    Fincke-Pohst enumeration in integers (Cohen, GTM 138, Alg. 2.7.5, made
    fraction-free).  Bareiss elimination of the integer form gives its
    leading minors D_0 = 1, D_1, ..., D_n and integer rows b_i with

        Q(x) = sum_i (D_{i+1} x_i + p_i)^2 / (D_i D_{i+1}),  p_i = sum_{j>i} b_ij x_j.

    Scaling by L = lcm_i(D_i D_{i+1}) makes every level an integer weight times
    a square, so the range of each x_i is an exact integer square root and
    every comparison is on integers.  Only one of each +-pair is yielded,
    with the first nonzero coordinate positive, together with its integer
    norm Q(x).  Raises ValueError when a leading minor is not positive (the
    form is not positive definite).
    """
    n = g.rows
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    # Upper triangle of g, eliminated in place (Bareiss).
    b = g.to_rows()
    minors = [1]
    for k in range(n):
        pivot = b[k][k]
        if pivot <= 0:
            raise ValueError("form is not positive definite")
        prev = minors[-1]
        minors.append(pivot)
        for i in range(k + 1, n):
            bki = b[k][i]
            row = b[i]
            for j in range(i, n):
                row[j] = (pivot * row[j] - bki * b[k][j]) // prev
    scale = 1
    for i in range(n):
        scale = lcm(scale, minors[i] * minors[i + 1])
    weights = [scale // (minors[i] * minors[i + 1]) for i in range(n)]
    tails = [[(j, b[i][j]) for j in range(i + 1, n) if b[i][j]] for i in range(n)]
    total = scale * bound
    x = [0] * n

    # Each +-pair is enumerated once, with its last nonzero coordinate
    # positive; the sign is moved to the first nonzero one on output.
    def recurse(i: int, remaining: int, started: bool) -> Iterator[tuple[tuple[int, ...], int]]:
        d, w = minors[i + 1], weights[i]
        p = sum(bij * x[j] for j, bij in tails[i])
        s = isqrt(remaining // w)
        lo = -((s + p) // d) if started else 0
        for xi in range(lo, (s - p) // d + 1):
            y = d * xi + p
            x[i] = xi
            rest = remaining - w * y * y
            if i:
                yield from recurse(i - 1, rest, started or xi != 0)
            elif started or xi:
                vec = tuple(x)
                if next(v for v in vec if v) < 0:
                    vec = tuple(-v for v in vec)
                yield vec, (total - rest) // scale
        x[i] = 0

    if n:
        yield from recurse(n - 1, total, False)


def _round_half_even(a: int, b: int) -> int:
    """The integer nearest a / b, ties to the even one: ``round(Fraction(a, b))``."""
    if b < 0:
        a, b = -a, -b
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2):
        q += 1
    return q


def _greedy_reduce(g: IntMatrix) -> IntMatrix:
    """Unimodular congruence with pairwise size-reduced basis, diagonal sorted.

    Repeatedly replaces b_i by b_i - q b_j whenever that strictly shrinks the
    norm of b_i, q the Gram ratio a_ij / a_jj rounded half to even by
    :func:`_round_half_even`, which fixes the order of the steps.  Every step
    lowers a positive integer diagonal entry, so the loop terminates; the
    result is congruent to the input.  Integer arithmetic throughout.
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
                q = _round_half_even(a[i][j], a[j][j])
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


def _isometry_search(g1: IntMatrix, g2: IntMatrix) -> bool | None:
    """Whether two positive definite integer forms of equal rank, whose
    determinants and Smith forms already agree, are unimodularly equivalent;
    None means inconclusive, never a match.

    Both forms are first greedily size-reduced, so the candidate vectors live
    at small norms; the basis of the first form is then reordered
    most-constrained-first, so each new vector is pruned by as many
    inner-product constraints as possible.  Every short vector enumerated
    adds one to the node total, and every column visited adds its candidate
    count; past ``_NODE_CAP`` the verdict is None.
    """
    n = g1.rows
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
    nodes = 0

    def budgeted(g: IntMatrix, bound: int):
        # The short vectors up to bound, cut one past the nodes left.
        return itertools.islice(_short_vectors(g, bound), _NODE_CAP - nodes + 1)

    norms_needed = [target[i][i] for i in range(n)]
    max_norm = max(norms_needed)
    # Count first, bound by bound: a mismatch at a small bound (Z^n has 2n
    # vectors of norm 1) is found without enumerating both forms up to
    # max_norm.  Integer forms have integer norms, so equal totals at every
    # bound up to max_norm mean equal counts at every norm.  Only the second
    # form's vectors at max_norm, the candidates, are kept.
    for k in range(1, max_norm + 1):
        count1 = sum(1 for _ in budgeted(g1, k))
        nodes += count1
        if k < max_norm:
            count2 = sum(1 for _ in budgeted(g2, k))
        else:
            cands = list(budgeted(g2, k))
            count2 = len(cands)
        nodes += count2
        if nodes > _NODE_CAP:
            return None
        if count1 != count2:
            return False
    by_norm: dict[int, list[tuple[int, ...]]] = {}
    for vec, norm in cands:
        by_norm.setdefault(norm, []).extend((vec, tuple(-v for v in vec)))
    for norm in list(by_norm):
        by_norm[norm].sort()

    # The pairing of candidate c with a chosen vector v is (c G2) . v, so each
    # candidate is stored with its row c G2.
    g2_cols = list(zip(*g2.to_rows()))
    pairing_rows = {
        norm: [tuple(_dot(vec, col) for col in g2_cols) for vec in vecs]
        for norm, vecs in by_norm.items()
    }

    chosen: list[tuple[int, ...]] = [()] * n

    def backtrack(col: int) -> bool | None:
        nonlocal nodes
        norm = norms_needed[col]
        if norm not in by_norm:
            return False
        rows = pairing_rows[norm]
        nodes += len(rows)
        if nodes > _NODE_CAP:
            return None
        need = target[col]
        fits = (
            i for i, row in enumerate(rows)
            if all(_dot(row, chosen[k]) == need[k] for k in range(col))
        )
        if col == n - 1:
            return next(fits, None) is not None
        vecs = by_norm[norm]
        for i in fits:
            chosen[col] = vecs[i]
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
    # Equal ranks, determinants and Smith forms are necessary for an
    # isometry; each form's invariants are taken once.
    rank_det = [(g.rows, lat.primitive_gram_det) for g, lat in zip(prims, lattices)]
    smith_diag = cache(lambda i: smith_normal_form(prims[i]).diag)
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
            if rank_det[i] != rank_det[j] or smith_diag(i) != smith_diag(j):
                continue
            verdict = _isometry_search(prims[i], prims[j])
            if verdict is True:
                parent[find(j)] = find(i)
            elif verdict is None:
                flagged.append((i, j))
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    classes = tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))
    return classes, tuple(flagged)

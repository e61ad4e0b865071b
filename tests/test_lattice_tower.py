from fractions import Fraction
from math import gcd, lcm, prod

import pytest

import _rational as ref
import oracles
from roothk import lattice_tower
from roothk.errors import DiscriminantTooLargeError, LatticeActionError
from roothk.exact_linalg import IntMatrix
from roothk.lattice_tower import (
    _primitive_roots,
    all_subgroups,
    _isometry_search,
    classify_up_to_rescaling,
    discriminant_group,
    induced_discriminant_action,
    short_vectors,
    tower_for_spec,
)
from roothk.root_data import RootSystemSpec, build_root_datum, simple_reflections


def _datum(family, rank):
    return build_root_datum(RootSystemSpec(family, rank))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _index_over_root(datum, lat):
    """[L : root lattice] = |det G| / det B, B the triangular HNF basis of L."""
    diag = [lat.basis[i, i] for i in range(datum.rank)]
    return abs(datum.gram.det()) // prod(diag)


def _units(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _bc_on_d(family, n):
    """D_n with the root-basis vectors of the B/C simple roots, as
    tower_for_spec builds them."""
    d_datum = _datum("D", n)
    return d_datum, _primitive_roots(d_datum, _datum(family, n).simple_rows)


def _bc_reference_matrices(spec):
    """The B/C simple reflections as root-basis matrices of D_n, column j the
    image of the j-th D_n simple root, built in ambient coordinates."""
    n = spec.rank
    d_datum = _datum("D", n)
    datum = build_root_datum(spec)
    mats = []
    for beta in ref.divided(datum.simple_rows, datum.denominator):
        norm = sum((x * x for x in beta), Fraction(0))
        images = []
        for alpha in ref.divided(d_datum.simple_rows, d_datum.denominator):
            c = 2 * sum((a * b for a, b in zip(alpha, beta)), Fraction(0)) / norm
            images.append(tuple(x - c * b for x, b in zip(alpha, beta)))
        cols = oracles.root_basis_coordinates(d_datum.simple_rows, d_datum.denominator, images)
        assert all(x.denominator == 1 for col in cols for x in col)
        mats.append(IntMatrix(n, n, (cols[j][i].numerator for i in range(n) for j in range(n))))
    return tuple(mats)


def _dual_image(m, x):
    """The dual action of a root-basis matrix m, its inverse transpose, on the
    dual-coordinate vector x; an integer vector when m preserves the dual."""
    dual = ref.transpose(ref.inverse(m))
    image = [sum(d * y for d, y in zip(row, x)) for row in dual]
    assert all(y.denominator == 1 for y in image)
    return tuple(int(y) for y in image)


@pytest.mark.parametrize(
    "family,rank,factors",
    [
        ("A", 2, (3,)),
        ("A", 3, (4,)),
        ("D", 4, (2, 2)),
        ("D", 5, (4,)),
        ("D", 6, (2, 2)),
        ("E", 6, (3,)),
        ("E", 7, (2,)),
        ("E", 8, ()),
        ("B", 3, ()),
        ("C", 3, (4,)),
        ("A", 1, (2,)),
    ],
)
def test_discriminant_groups(family, rank, factors):
    disc = discriminant_group(_datum(family, rank))
    assert disc.invariant_factors == factors
    assert disc.order == _datum(family, rank).gram.det()


def test_discriminant_lift_reduce_roundtrip():
    disc = discriminant_group(_datum("D", 4))
    for a in disc.elements():
        assert disc.reduce(disc.lift(a)) == a


def test_weyl_group_acts_trivially_on_own_discriminant():
    # The difference of a reflection image and its input lies in the root
    # lattice, so the whole Weyl group fixes every class.
    for family, rank in [("A", 2), ("A", 4), ("D", 4), ("E", 6)]:
        datum = _datum(family, rank)
        disc = discriminant_group(datum)
        maps = induced_discriminant_action(_units(rank), disc, datum.gram)
        for table in maps:
            assert all(table[a] == a for a in disc.elements())


def test_subgroup_counts_cyclic_and_klein():
    # Cyclic of order m has one subgroup per divisor of m.
    for n in (2, 3, 4, 5, 7):
        disc = discriminant_group(_datum("A", n))
        assert len(all_subgroups(disc)) == len(_divisors(n + 1))
    # (Z/2)^2 has five subgroups.
    disc_d4 = discriminant_group(_datum("D", 4))
    assert len(all_subgroups(disc_d4)) == 5


def test_subgroup_cap(monkeypatch):
    disc = discriminant_group(_datum("A", 7))
    monkeypatch.setattr(lattice_tower, "_DISC_CAP", 5)
    with pytest.raises(DiscriminantTooLargeError):
        all_subgroups(disc)


@pytest.mark.parametrize(
    "family,rank,built",
    [
        ("A", 3, []),  # Cartan determinant 4: stopped before any datum
        ("C", 4, []),  # the D4 tower, Cartan determinant 4
        ("F", 4, ["F4"]),  # Cartan determinant 1, Gram determinant 4
    ],
)
def test_tower_cap_is_checked_before_the_datum_where_the_closed_form_is_the_order(monkeypatch, family, rank, built):
    real = lattice_tower.build_root_datum
    asked = []

    def recorded(spec):
        asked.append(spec.label)
        return real(spec)

    monkeypatch.setattr(lattice_tower, "build_root_datum", recorded)
    monkeypatch.setattr(lattice_tower, "_DISC_CAP", 3)
    with pytest.raises(DiscriminantTooLargeError, match="of order 4 exceeds the cap of 3"):
        tower_for_spec(RootSystemSpec(family, rank))
    assert asked == built


@pytest.mark.parametrize("n", range(1, 9))
def test_a_tower_size_is_divisor_count(n):
    report = tower_for_spec(RootSystemSpec("A", n))
    assert len(report.lattices) == len(_divisors(n + 1))
    assert report.labels[0] == f"A{n}"
    assert report.labels[-1] == f"A{n}*"
    # Indices multiply correctly through the tower.
    datum, disc_order = _datum("A", n), n + 1
    for lat in report.lattices:
        assert disc_order % _index_over_root(datum, lat) == 0


def test_a4_tower_exactly_root_and_dual():
    report = tower_for_spec(RootSystemSpec("A", 4))
    assert report.labels == ("A4", "A4*")


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_bc_tower_is_three_lattices(n):
    for family in ("B", "C"):
        report = tower_for_spec(RootSystemSpec(family, n))
        assert report.labels == (f"D{n}", f"Z^{n}", f"D{n}*")
        d_datum = _datum("D", n)
        assert [_index_over_root(d_datum, lat) for lat in report.lattices] == [1, 2, 4]
        # The middle lattice carries a unimodular integral form.
        middle = report.lattices[1]
        form = ref.divided(middle.scaled_gram, middle.gram_denominator)
        assert all(x.denominator == 1 for row in form for x in row)
        assert ref.det(form) == 1


def test_bc_tower_excludes_half_spin_for_even_rank():
    # Without the signed-permutation filter D4 has five stable subgroups
    # (the full Weyl group of D4 acts trivially); under W(B4) only three
    # lattices survive, so the two half-spin lattices were excluded.
    unfiltered = tower_for_spec(RootSystemSpec("D", 4))
    assert len(unfiltered.lattices) == 5
    filtered = tower_for_spec(RootSystemSpec("B", 4))
    assert len(filtered.lattices) == 3
    assert filtered.labels == ("D4", "Z^4", "D4*")


def test_bc_action_nontrivial_on_even_d_discriminant():
    # At least one W(B_n) generator moves the discriminant classes of D_n for
    # even n (the odd sign change swaps the two half-spin classes).
    report = tower_for_spec(RootSystemSpec("B", 4))
    assert report.disc.invariant_factors == (2, 2)
    d_datum, reflections = _bc_on_d("B", 4)
    disc = discriminant_group(d_datum)
    maps = induced_discriminant_action(reflections, disc, d_datum.gram)
    moved = any(any(table[a] != a for a in disc.elements()) for table in maps)
    assert moved


def test_dual_action_guards():
    # The reflection in b = (3, 1) of A2 (norm 14) does not map the dual
    # lattice into itself: 2 b_1 v_1 = 30 is not a multiple of 14.
    datum = _datum("A", 2)
    with pytest.raises(LatticeActionError, match="dual lattice"):
        induced_discriminant_action(((3, 1),), discriminant_group(datum), datum.gram)


def _assert_tables_match(datum, reflections, matrices):
    """Compare each reflection table with the dense dual action (inverse
    transpose of the root-basis matrix) on every lift; return whether some
    class moves, so a case can show it tells a wrong action from the identity."""
    disc = discriminant_group(datum)
    maps = induced_discriminant_action(reflections, disc, datum.gram)
    assert len(maps) == len(matrices)
    for table, m in zip(maps, matrices):
        assert table == {a: disc.reduce(_dual_image(m, disc.lift(a))) for a in disc.elements()}
    return any(table[a] != a for table in maps for a in disc.elements())


@pytest.mark.parametrize(
    "family,rank",
    [("A", n) for n in (1, 2, 3, 5, 7)]
    + [("B", n) for n in (2, 3, 4)]
    + [("C", n) for n in (2, 3, 4, 5, 6)]
    + [("D", n) for n in (4, 5, 6)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)],
)
def test_own_reflection_tables_match_dense_reference(family, rank):
    # Classes move exactly where 2(x, beta)/(beta, beta) is not integral on
    # the dual lattice: the long simple roots of C_n, F4 and G2.
    datum = _datum(family, rank)
    moved = _assert_tables_match(datum, _units(rank), simple_reflections(datum))
    assert moved == (family in ("C", "F", "G"))


@pytest.mark.parametrize("family", ["B", "C"])
@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_bc_reflection_tables_match_dense_reference(family, rank):
    # The sign change e_n is not in D_n, so it moves classes for every n.
    d_datum, reflections = _bc_on_d(family, rank)
    matrices = _bc_reference_matrices(RootSystemSpec(family, rank))
    assert _assert_tables_match(d_datum, reflections, matrices)


def test_discriminant_group_rejects_non_unimodular_smith_transform(monkeypatch):
    import roothk.lattice_tower as lt
    from roothk.exact_linalg import SmithForm, smith_normal_form

    def doubled_left(m):
        sf = smith_normal_form(m)
        left = IntMatrix(sf.left.rows, sf.left.cols, (2 * x for x in sf.left.data))
        return SmithForm(diag=sf.diag, left=left)

    monkeypatch.setattr(lt, "smith_normal_form", doubled_left)
    with pytest.raises(AssertionError, match="left Smith transform is not unimodular"):
        lt.discriminant_group(_datum("A", 3))


def test_e8_tower_trivial():
    report = tower_for_spec(RootSystemSpec("E", 8))
    assert report.labels == ("E8",)


def test_bc_tower_rejects_small_rank():
    for family in ("B", "C"):
        with pytest.raises(ValueError, match="the D-lattice tower needs rank >= 3"):
            tower_for_spec(RootSystemSpec(family, 2))


def _stable_under(lat, matrices):
    images = [_dual_image(m, lat.basis.row(r)) for m in matrices for r in range(lat.basis.rows)]
    return oracles.in_lattice(lat.basis, images)


def test_tower_lattices_are_group_stable_directly():
    # End-to-end oracle: each basis vector's image under each generator stays
    # in the lattice, checked by exact membership with the dense reference
    # matrices of W(B4), independently of the discriminant filtering.
    matrices = _bc_reference_matrices(RootSystemSpec("B", 4))
    report = tower_for_spec(RootSystemSpec("B", 4))
    assert len(report.lattices) == 3
    for lat in report.lattices:
        assert _stable_under(lat, matrices)
    # The two half-spin lattices of the unfiltered D4 tower are not W(B4)-stable.
    unfiltered = tower_for_spec(RootSystemSpec("D", 4))
    kept = {lat.basis for lat in report.lattices}
    dropped = [lat for lat in unfiltered.lattices if lat.basis not in kept]
    assert len(dropped) == 2
    for lat in dropped:
        assert not _stable_under(lat, matrices)


def test_duality_involution_on_towers():
    # Sending a subgroup to its annihilator is an inclusion-reversing
    # involution on the stable subgroups of each tower.
    for family, rank in [("A", 3), ("A", 5), ("D", 4)]:
        datum = _datum(family, rank)
        disc = discriminant_group(datum)
        report = tower_for_spec(RootSystemSpec(family, rank))
        subgroups = [_subgroup_of_basis(disc, lat) for lat in report.lattices]
        assert [len(s) for s in subgroups] == [lat.subgroup_order for lat in report.lattices]
        ann = {s: oracles.annihilator(disc, s, datum.gram) for s in subgroups}
        for s in subgroups:
            assert ann[s] in subgroups
            assert oracles.annihilator(disc, ann[s], datum.gram) == s
            assert len(s) * len(ann[s]) == disc.order


def test_classify_a1_tower_single_rescaling_class():
    # Gram [2] and Gram [1/2] rescale to the same primitive form [1].
    report = tower_for_spec(RootSystemSpec("A", 1))
    assert report.labels == ("A1", "A1*")
    assert report.lattices[0].primitive_gram() == IntMatrix.from_rows([[1]])
    dual = report.lattices[1]
    assert ref.divided(dual.scaled_gram, dual.gram_denominator) == [[Fraction(1, 2)]]
    assert classify_up_to_rescaling(report.lattices) == (((0, 1),), ())


def test_classify_d3_a3_same_class():
    # D3 and A3 are isometric lattices.
    a3 = _datum("A", 3).gram
    d3 = _datum("D", 3).gram
    assert _isometry_search(a3, d3) is True


def test_round_half_even_is_round_of_the_fraction():
    # Every sign of numerator and denominator, ties included, and ratios far from 0.
    for b in [*range(-12, 0), *range(1, 13), 10**20 + 1, -(10**20)]:
        for a in [*range(-40, 41), 7 * 10**20, -(10**21) - 1]:
            assert lattice_tower._round_half_even(a, b) == round(Fraction(a, b)), (a, b)
    assert [lattice_tower._round_half_even(a, 2) for a in range(-5, 6, 2)] == [-2, -2, 0, 0, 2, 2]


def test_isometry_search_past_node_cap_is_inconclusive(monkeypatch):
    # Counting the 6 pairs of roots of A3 already passes a cap of 1.
    a3 = _datum("A", 3).gram
    d3 = _datum("D", 3).gram
    assert _isometry_search(a3, d3) is True
    monkeypatch.setattr(lattice_tower, "_NODE_CAP", 1)
    assert _isometry_search(a3, d3) is None


def test_node_cap_bounds_the_short_vector_enumeration(monkeypatch):
    # The two half-spin lattices of D24 are even unimodular; their reduced
    # bases reach norm 6, and the counts up to norm 4 alone run to 85,584
    # pairs.  The cap stops the enumeration itself, before any backtracking,
    # so the pair is flagged and kept apart.
    monkeypatch.setattr(lattice_tower, "_NODE_CAP", 10_000)
    report = tower_for_spec(RootSystemSpec("D", 24))
    assert report.labels == ("D24", "D24+[2]", "Z^24", "D24+[2]#2", "D24*")
    classes, inconclusive = classify_up_to_rescaling(report.lattices)
    assert inconclusive == ((1, 3),)
    assert classes == ((0,), (1,), (2,), (3,), (4,))


@pytest.mark.parametrize("n", [8, 16])
def test_unimodular_towers_tell_the_cube_from_the_half_spin_lattices(n):
    # Three integral unimodular lattices; only Z^n has norm-1 vectors.  The
    # isometry search against the identity form agrees with the label.
    report = tower_for_spec(RootSystemSpec("D", n))
    assert report.labels == (f"D{n}", f"D{n}+[2]", f"Z^{n}", f"D{n}+[2]#2", f"D{n}*")
    assert classify_up_to_rescaling(report.lattices)[1] == ()
    for k in (1, 2, 3):
        lat = report.lattices[k]
        assert lat.gram_det == (1, 1) and lat.primitive_gram_det == 1
        assert _isometry_search(lat.primitive_gram(), IntMatrix.identity(n)) is (k == 2)


def test_classify_z3_d3_distinct(monkeypatch):
    # Z^3 and D3 differ in determinant (1 and 4), so they are told apart
    # before any search runs.
    d3, z3 = tower_for_spec(RootSystemSpec("B", 3)).lattices[:2]
    assert (d3.label, z3.label) == ("D3", "Z^3")

    def no_search(g1, g2):
        raise AssertionError("the isometry search ran")

    monkeypatch.setattr(lattice_tower, "_isometry_search", no_search)
    assert classify_up_to_rescaling([z3, d3]) == (((0,), (1,)), ())


def test_count_first_rejects_unimodular_non_cube():
    # Both forms are unimodular with equal Smith forms; only the vector
    # counts tell them apart (no norm-1 vectors against 2n of them).
    assert _isometry_search(_datum("E", 8).gram, IntMatrix.identity(8)) is False
    report = tower_for_spec(RootSystemSpec("A", 15))
    middle = report.lattices[report.labels.index("A15+[4]")]
    prim = middle.primitive_gram()
    assert prim.det() == 1
    assert _isometry_search(prim, IntMatrix.identity(15)) is False


def test_bc_tower_classes_all_distinct():
    # D3, Z^3 and D3* have primitive determinants 4, 1 and 16: three classes.
    report = tower_for_spec(RootSystemSpec("B", 3))
    assert classify_up_to_rescaling(report.lattices)[0] == ((0,), (1,), (2,))
    assert [lat.primitive_gram().det() for lat in report.lattices] == [4, 1, 16]


def test_short_vectors_a2():
    g = _datum("A", 2).gram
    vecs = short_vectors(g, 2)
    # A2 has 6 roots of norm 2, i.e. 3 up to sign.
    assert len(vecs) == 3
    assert all(norm == 2 for _, norm in vecs)


def test_short_vectors_z2_norm_one():
    g = IntMatrix.identity(2)
    vecs = short_vectors(g, 1)
    assert sorted(v for v, _ in vecs) == [(0, 1), (1, 0)]


# --- short vectors against brute force ---------------------------------------


def _box_radii(g, bound):
    """Radii of a box holding every x with Q(x) <= bound: by Cauchy-Schwarz,
    x_i^2 = (e_i . x)^2 <= (G^-1)_ii Q(x) = adj(G)_ii Q(x) / det G."""
    from math import isqrt

    adj, det = g.adjugate()
    return [isqrt(bound * adj[i, i] // det) for i in range(g.rows)]


def _brute_short_vectors(g, bound):
    """Every x with 0 < Q(x) <= bound, up to sign, by scanning that box."""
    import itertools

    n = g.rows
    q = g.to_rows()
    out = []
    for x in itertools.product(*(range(-r, r + 1) for r in _box_radii(g, bound))):
        if next((v for v in x if v), 0) <= 0:
            continue
        norm = sum(x[i] * sum(map(int.__mul__, q[i], x)) for i in range(n))
        if norm <= bound:
            out.append((x, norm))
    return sorted(out)


def test_short_vectors_match_brute_force_on_random_forms():
    # Random positive definite integer Grams A^T A of rank 1-4 at integer
    # bounds; a case whose box exceeds 20,000 points is drawn again, so the
    # scan stays short.
    import random

    rng = random.Random(20161)
    cases = 0
    while cases < 60:
        n = rng.randint(1, 4)
        a = IntMatrix(n, n, (rng.randint(-2, 2) for _ in range(n * n)))
        if not a.det():
            continue
        g = a.transpose() @ a
        bound = rng.randint(1, 12)
        box = 1
        for r in _box_radii(g, bound):
            box *= 2 * r + 1
        if box > 20_000:
            continue
        assert short_vectors(g, bound) == _brute_short_vectors(g, bound)
        cases += 1


@pytest.mark.parametrize(
    "family,rank,counts",
    # Vectors of norm 2 and of norm 4, up to sign: the theta series of A2
    # (no norm 4), D4 (24 roots and 24 vectors of norm 4) and E8 (240, 2160).
    [("A", 2, (3, 0)), ("D", 4, (12, 12)), ("E", 8, (120, 1080))],
)
def test_short_vectors_root_lattices(family, rank, counts):
    g = _datum(family, rank).gram
    at_two = short_vectors(g, 2)
    at_four = short_vectors(g, 4)
    assert len(at_two) == counts[0]
    assert sum(1 for _, norm in at_four if norm == 4) == counts[1]
    assert [v for v in at_four if v[1] <= 2] == at_two
    if rank <= 4:
        assert at_four == _brute_short_vectors(g, 4)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1, 1]],  # first leading minor 0
        [[1, 1], [1, 1]],  # second leading minor 0
        [[1, 2], [2, 1]],  # second leading minor -3
        [[-1]],
    ],
)
def test_short_vectors_rejects_forms_that_are_not_positive_definite(rows):
    with pytest.raises(ValueError, match="not positive definite"):
        short_vectors(IntMatrix.from_rows(rows), 3)


# --- subgroups ---------------------------------------------------------------


def _abelian(*factors):
    """A hand-built group with the given invariant factors; only its group
    operations are used."""
    from roothk.lattice_tower import DiscriminantGroup

    units = tuple(tuple(int(i == j) for j in range(len(factors))) for i in range(len(factors)))
    order = 1
    for d in factors:
        order *= d
    return DiscriminantGroup(
        rank=len(factors),
        invariant_factors=factors,
        generator_lifts=units,
        order=order,
        to_invariant_rows=units,
    )


def _naive_closure(disc, seed):
    closed = set(seed) | {disc.zero()}
    while True:
        sums = {disc.add(a, b) for a in closed for b in closed}
        if sums <= closed:
            return frozenset(closed)
        closed |= sums


def _subgroup_of_basis(disc, lat):
    """The lattice's image in the discriminant group, read from its HNF basis:
    the classes of the basis rows, closed under addition."""
    return _naive_closure(disc, {disc.reduce(row) for row in lat.basis})


@pytest.mark.parametrize("factors", [(2, 4), (2, 2, 2), (4, 4), (3, 9)])
def test_close_subgroup_matches_naive_closure(factors):
    # The subgroup generated by a seed, one _extend_subgroup step per
    # generator, as all_subgroups grows its subgroups.
    import random

    from roothk.lattice_tower import _extend_subgroup

    disc = _abelian(*factors)
    elements = disc.elements()
    rng = random.Random(hash(factors) & 0xFFFF)
    for size in range(5):
        for _ in range(20):
            seed = frozenset(rng.sample(elements, size))
            closed = frozenset({disc.zero()})
            for g in seed:
                closed = _extend_subgroup(disc, closed, g)
            assert closed == _naive_closure(disc, seed)


@pytest.mark.parametrize(
    "factors,count",
    # (2,2,2,2): the Gaussian binomials 1 + 15 + 35 + 15 + 1.
    [((2, 4), 8), ((2, 2, 2), 16), ((4, 4), 15), ((3, 9), 10), ((2, 2, 4), 27), ((2, 2, 2, 2), 67)],
)
def test_all_subgroups_known_counts(factors, count):
    disc = _abelian(*factors)
    subgroups = all_subgroups(disc)
    assert len(subgroups) == count
    assert all(_naive_closure(disc, s) == s for s in subgroups)


def _report_towers():
    """The towers of ``report`` (A1-A8, B3-B7 over D, E8) and A15, A23, D8."""
    from roothk.lattice_tower import tower_for_spec

    specs = [RootSystemSpec("A", n) for n in range(1, 9)]
    specs += [RootSystemSpec("B", n) for n in range(3, 8)]
    specs += [RootSystemSpec(*s) for s in (("E", 8), ("A", 15), ("A", 23), ("D", 8))]
    for spec in specs:
        datum = _datum("D", spec.rank) if spec.family == "B" else build_root_datum(spec)
        yield datum, tower_for_spec(spec)


def test_hnf_from_generator_lifts_matches_all_lifts():
    from roothk.exact_linalg import hermite_normal_form

    for datum, tower in _report_towers():
        for lat in tower.lattices:
            subgroup = _subgroup_of_basis(tower.disc, lat)
            assert len(subgroup) == lat.subgroup_order
            rows = datum.gram.to_rows() + [list(tower.disc.lift(e)) for e in sorted(subgroup)]
            h = hermite_normal_form(IntMatrix.from_rows(rows))
            assert lat.basis == IntMatrix.from_rows(h.to_rows()[: datum.rank])


# --- integral lattice Grams --------------------------------------------------


def test_integral_grams_match_rational_reference():
    for datum, tower in _report_towers():
        inverse = ref.inverse(datum.gram)
        for lat in tower.lattices:
            reference = ref.matmul(ref.matmul(lat.basis, inverse), ref.transpose(lat.basis))
            # The primitive rescaling: clear the denominators, then divide out the content.
            den = lcm(*(x.denominator for row in reference for x in row))
            cleared = [[(x * den).numerator for x in row] for row in reference]
            content = gcd(*(x for row in cleared for x in row))
            prim = [[x // content for x in row] for row in cleared]
            assert ref.divided(lat.scaled_gram, lat.gram_denominator) == reference
            assert lat.primitive_gram().to_rows() == prim
            det = ref.det(reference)
            assert lat.gram_det == (det.numerator, det.denominator)
            assert lat.primitive_gram_det == ref.det(prim)


def test_scaled_gram_determinant_is_asserted(monkeypatch):
    import roothk.lattice_tower as lt
    from roothk.exact_linalg import hermite_normal_form

    datum = _datum("A", 3)
    disc = discriminant_group(datum)
    subgroup = all_subgroups(disc)[1]
    root_hnf = hermite_normal_form(datum.gram)
    adjugate = datum.gram.adjugate()
    # The identity det(B adj(G) B^T) = det(B)^2 det(G)^(n-1) holds...
    lt._lattice_from_subgroup(root_hnf, disc, subgroup, adjugate)
    # ...and a wrong determinant of the product is caught.
    true_det = IntMatrix.det
    monkeypatch.setattr(IntMatrix, "det", lambda m: true_det(m) + 1)
    with pytest.raises(AssertionError, match="det of B adj"):
        lt._lattice_from_subgroup(root_hnf, disc, subgroup, adjugate)

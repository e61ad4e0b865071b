from fractions import Fraction

import pytest

from roothk.errors import DiscriminantTooLargeError
from roothk.exact_linalg import IntMatrix, RatMatrix
from roothk.lattice_tower import (
    all_subgroups,
    annihilator_subgroup,
    bc_tower,
    discriminant_group,
    dual_index,
    dual_lattice,
    induced_discriminant_action,
    invariant_intermediate_lattices,
    lattice_isometric,
    short_vectors,
)
from roothk.root_data import RootSystemSpec, build_root_datum, simple_reflections


def _datum(family, rank):
    return build_root_datum(RootSystemSpec(family, rank))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_dual_lattice_gram_and_index():
    a1 = _datum("A", 1)
    dual = dual_lattice(a1)
    assert dual.gram == RatMatrix.from_rows([[Fraction(1, 2)]])
    assert dual_index(a1) == 2
    assert dual_index(_datum("D", 4)) == 4
    assert dual_index(_datum("E", 8)) == 1


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
        maps = induced_discriminant_action(
            simple_reflections(datum), disc, datum.gram, datum.gram.adjugate()
        )
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


def test_subgroup_cap():
    disc = discriminant_group(_datum("A", 7))
    with pytest.raises(DiscriminantTooLargeError):
        all_subgroups(disc, cap=5)


@pytest.mark.parametrize("n", range(1, 9))
def test_a_tower_size_is_divisor_count(n):
    report = invariant_intermediate_lattices(_datum("A", n))
    assert len(report.lattices) == len(_divisors(n + 1))
    assert report.labels[0] == f"A{n}"
    assert report.labels[-1] == f"A{n}*"
    # Indices multiply correctly through the tower.
    disc_order = n + 1
    for lat in report.lattices:
        assert disc_order % lat.index_over_root == 0


def test_a4_tower_exactly_root_and_dual():
    report = invariant_intermediate_lattices(_datum("A", 4))
    assert report.labels == ("A4", "A4*")


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_bc_tower_is_three_lattices(n):
    for family in ("B", "C"):
        report = bc_tower(RootSystemSpec(family, n))
        assert report.labels == (f"D{n}", f"Z^{n}", f"D{n}*")
        assert [lat.index_over_root for lat in report.lattices] == [1, 2, 4]
        # The middle lattice carries a unimodular integral form.
        middle = report.lattices[1]
        assert middle.gram.is_integral()
        assert middle.gram.to_int().det() == 1


def test_bc_tower_excludes_half_spin_for_even_rank():
    # Without the signed-permutation filter D4 has five stable subgroups
    # (the full Weyl group of D4 acts trivially); under W(B4) only three
    # lattices survive, so the two half-spin lattices were excluded.
    unfiltered = invariant_intermediate_lattices(_datum("D", 4))
    assert len(unfiltered.lattices) == 5
    filtered = bc_tower(RootSystemSpec("B", 4))
    assert len(filtered.lattices) == 3
    assert filtered.labels == ("D4", "Z^4", "D4*")


def test_bc_action_nontrivial_on_even_d_discriminant():
    # At least one W(B_n) generator moves the discriminant classes of D_n for
    # even n (the odd sign change swaps the two half-spin classes).
    from roothk.lattice_tower import _dual_action_matrix  # noqa: internal

    report = bc_tower(RootSystemSpec("B", 4))
    assert report.disc.invariant_factors == (2, 2)
    d_datum = _datum("D", 4)
    disc = discriminant_group(d_datum)
    # Rebuild the generators the same way bc_tower does.
    bc_datum = _datum("B", 4)
    from roothk.root_data import ambient_matrix_in_root_basis

    gens = []
    for i in range(1, 5):
        beta = bc_datum.simple_roots[i - 1]
        norm = sum((x * x for x in beta), Fraction(0))
        images = []
        for alpha in d_datum.simple_roots:
            c = 2 * sum((a * b for a, b in zip(alpha, beta)), Fraction(0)) / norm
            images.append(tuple(x - c * b for x, b in zip(alpha, beta)))
        gens.append(ambient_matrix_in_root_basis(d_datum, images).to_int())
    maps = induced_discriminant_action(tuple(gens), disc, d_datum.gram, d_datum.gram.adjugate())
    moved = any(any(table[a] != a for a in disc.elements()) for table in maps)
    assert moved


def test_dual_action_guards():
    from roothk.errors import LatticeActionError
    from roothk.lattice_tower import _dual_action_matrix

    gram = _datum("A", 2).gram
    gram_adjugate = gram.adjugate()
    # det 2: the inverse transpose is not integral.
    with pytest.raises(LatticeActionError, match="dual lattice"):
        _dual_action_matrix(IntMatrix.from_rows([[2, 0], [0, 1]]), gram, gram_adjugate)
    # A unimodular shear: its dual action is integral, but G^-1 N G is not.
    with pytest.raises(LatticeActionError, match="root lattice rows"):
        _dual_action_matrix(IntMatrix.from_rows([[1, 1], [0, 1]]), gram, gram_adjugate)
    # A simple reflection passes both, with the rational inverse transpose.
    s1 = simple_reflections(_datum("A", 2))[0]
    action = _dual_action_matrix(s1, gram, gram_adjugate)
    assert action.to_rat() == s1.to_rat().inverse().transpose()


def test_discriminant_group_rejects_non_unimodular_smith_transform(monkeypatch):
    import roothk.lattice_tower as lt
    from roothk.exact_linalg import SmithForm, smith_normal_form

    def doubled_left(m):
        sf = smith_normal_form(m)
        left = IntMatrix(sf.left.rows, sf.left.cols, (2 * x for x in sf.left.data))
        return SmithForm(diag=sf.diag, left=left, right=sf.right)

    monkeypatch.setattr(lt, "smith_normal_form", doubled_left)
    with pytest.raises(AssertionError, match="left Smith transform is not unimodular"):
        lt.discriminant_group(_datum("A", 3))


def test_e8_tower_trivial():
    report = invariant_intermediate_lattices(_datum("E", 8))
    assert report.labels == ("E8",)


def test_bc_tower_rejects_small_rank():
    with pytest.raises(ValueError):
        bc_tower(RootSystemSpec("B", 2))
    with pytest.raises(ValueError):
        bc_tower(RootSystemSpec("A", 3))


def test_tower_lattices_are_group_stable_directly():
    # End-to-end oracle: each basis vector's image under each generator stays
    # in the lattice, checked by exact membership, independently of the
    # discriminant filtering.
    report = bc_tower(RootSystemSpec("B", 3))
    d_datum = _datum("D", 3)
    from roothk.lattice_tower import _dual_action_matrix

    gram_adjugate = d_datum.gram.adjugate()
    for lat in report.lattices:
        basis_adjugate = lat.basis.adjugate()
        for gen in simple_reflections(d_datum):
            action = _dual_action_matrix(gen, d_datum.gram, gram_adjugate)
            for r in range(lat.basis.rows):
                b = lat.basis.row(r)
                image = tuple(
                    sum(action[i, j] * b[j] for j in range(len(b))) for i in range(action.rows)
                )
                assert lat.contains_dual_vector(image, basis_adjugate)


def test_duality_involution_on_towers():
    # Sending a subgroup to its annihilator is an inclusion-reversing
    # involution on the stable subgroups of each tower.
    for family, rank in [("A", 3), ("A", 5), ("D", 4)]:
        datum = _datum(family, rank)
        disc = discriminant_group(datum)
        report = invariant_intermediate_lattices(datum)
        subgroups = []
        for lat in report.lattices:
            from roothk.lattice_tower import _close_subgroup

            subgroups.append(_close_subgroup(disc, frozenset(lat.subgroup_generators)))
        gram_adjugate = datum.gram.adjugate()
        ann = {s: annihilator_subgroup(disc, s, gram_adjugate) for s in subgroups}
        for s in subgroups:
            assert ann[s] in subgroups
            assert annihilator_subgroup(disc, ann[s], gram_adjugate) == s
            assert len(s) * len(ann[s]) == disc.order


def test_classify_a1_tower_single_rescaling_class():
    # Gram [2] and Gram [1/2] rescale to the same primitive form [1].
    report = invariant_intermediate_lattices(_datum("A", 1))
    assert report.labels == ("A1", "A1*")
    assert report.lattices[0].primitive_gram() == IntMatrix.from_rows([[1]])
    assert report.lattices[1].gram == RatMatrix.from_rows([[Fraction(1, 2)]])
    assert report.rescaling_classes == ((0, 1),)
    assert report.inconclusive_pairs == ()


def test_classify_d3_a3_same_class():
    # D3 and A3 are isometric lattices.
    a3 = _datum("A", 3).gram
    d3 = _datum("D", 3).gram
    assert lattice_isometric(a3, d3) is True


def test_classify_z3_d3_distinct():
    z3 = IntMatrix.identity(3)
    d3 = _datum("D", 3).gram
    assert lattice_isometric(z3, d3) is False


def test_count_first_rejects_unimodular_non_cube():
    # Both forms are unimodular with equal Smith forms; only the vector
    # counts tell them apart (no norm-1 vectors against 2n of them).
    assert lattice_isometric(_datum("E", 8).gram, IntMatrix.identity(8)) is False
    report = invariant_intermediate_lattices(_datum("A", 15))
    middle = report.lattices[report.labels.index("A15+[4]")]
    prim = middle.primitive_gram()
    assert prim.det() == 1
    assert lattice_isometric(prim, IntMatrix.identity(15)) is False


def test_bc_tower_classes_all_distinct():
    # D3, Z^3 and D3* have primitive determinants 4, 1 and 16: three classes.
    report = bc_tower(RootSystemSpec("B", 3))
    assert report.rescaling_classes == ((0,), (1,), (2,))
    assert [lat.primitive_gram().det() for lat in report.lattices] == [4, 1, 16]


def test_short_vectors_a2():
    g = _datum("A", 2).gram.to_rat()
    vecs = short_vectors(g, Fraction(2))
    # A2 has 6 roots of norm 2, i.e. 3 up to sign.
    assert len(vecs) == 3
    assert all(norm == 2 for _, norm in vecs)


def test_short_vectors_z2_norm_one():
    g = RatMatrix.identity(2)
    vecs = short_vectors(g, Fraction(1))
    assert sorted(v for v, _ in vecs) == [(0, 1), (1, 0)]

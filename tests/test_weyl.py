import tracemalloc
from collections import Counter

import numpy as np
import pytest

from roothk import weyl
from roothk.errors import GroupTooLargeError, NotExhaustiveError
from roothk.exact_linalg import IntMatrix
from roothk.root_data import RootSystemSpec, ambient_to_root_basis, build_root_datum
from roothk.weyl import (
    GroupCap,
    WeylGroup,
    check_signed_permutation_structure,
    element_iter,
    generate_group,
    group_order_formula,
    iter_levels,
)


@pytest.mark.parametrize(
    "family,rank,order",
    [
        ("A", 1, 2),
        ("A", 4, 120),
        ("B", 3, 48),
        ("C", 3, 48),
        ("D", 4, 192),
        ("G", 2, 12),
        ("F", 4, 1152),
        ("E", 6, 51840),
        ("E", 7, 2903040),
        ("E", 8, 696729600),
    ],
)
def test_group_order_formula(family, rank, order):
    assert group_order_formula(RootSystemSpec(family, rank)) == order


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("D", 3), ("D", 4), ("G", 2), ("F", 4)],
)
def test_bfs_count_matches_formula(family, rank, groups):
    group = groups(family, rank)
    assert group.element_count() == group_order_formula(group.datum.spec)


@pytest.mark.parametrize(
    "family,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6)]
)
def test_enumeration_oracle(family, rank, groups):
    # Checks that use nothing of the enumeration: the stored elements are
    # pairwise distinct, closed under right multiplication by each simple
    # reflection, and stored in nondecreasing Coxeter length, counted as the
    # number of positive roots an element sends to negative roots.
    group = groups(family, rank)
    flat = group.elements.reshape(group.order, rank * rank)
    assert np.unique(flat, axis=0).shape[0] == group.order

    for gen in group.generators:
        gen_arr = np.array(gen.to_rows(), dtype=np.int16)
        products = (group.elements @ gen_arr).reshape(group.order, rank * rank)
        assert np.unique(np.concatenate([flat, products]), axis=0).shape[0] == group.order

    coords = ambient_to_root_basis(group.datum, group.datum.all_roots)
    positive = np.array([[int(x) for x in c] for c in coords if min(c) >= 0], dtype=np.int32)
    assert 2 * positive.shape[0] == len(coords)
    images = group.elements.astype(np.int32) @ positive.T  # (order, rank, #positive)
    length = (images < 0).any(axis=1).sum(axis=1)
    assert length[0] == 0
    assert (np.diff(length) >= 0).all()
    assert length[-1] == positive.shape[0]


def _exponents(datum, k=None):
    """Exponents m_i from the height partition of the positive roots:
    #{i : m_i >= k} is the number of positive roots of height k (Kostant 1959).

    With ``k``, only the roots whose k-th root coordinate is 0: the root
    system of the parabolic subgroup W_J, J = all simple reflections but s_k
    (the partition adds up over its components)."""
    coords = ambient_to_root_basis(datum, datum.all_roots)
    per_height = Counter(int(sum(c)) for c in coords if min(c) >= 0 and (k is None or c[k] == 0))
    return sorted(k for k in per_height for _ in range(per_height[k] - per_height[k + 1]))


def _poincare(exponents):
    """Coefficients of prod_i (1 + q + ... + q^{m_i})."""
    poly = [1]
    for m in exponents:
        poly = np.convolve(poly, np.ones(m + 1, dtype=np.int64)).tolist()
    return poly


def _divide_exactly(num, den):
    """Quotient of integer polynomials (coefficient lists), asserting that
    the division is exact over the integers."""
    num, quotient = list(num), []
    for i in range(len(num) - len(den) + 1):
        q, r = divmod(num[i], den[0])
        assert r == 0
        quotient.append(q)
        for j, d in enumerate(den):
            num[i + j] -= q * d
    assert not any(num)
    return quotient


def _lengths(datum, elements):
    """Coxeter length of each element: the positive roots it sends negative."""
    coords = ambient_to_root_basis(datum, datum.all_roots)
    positive = np.array([[int(x) for x in c] for c in coords if min(c) >= 0], dtype=np.int32)
    images = np.asarray(elements, dtype=np.int32) @ positive.T
    return (images < 0).any(axis=1).sum(axis=1).tolist()


def test_exponents_from_root_heights():
    assert _exponents(build_root_datum(RootSystemSpec("E", 7))) == [1, 5, 7, 9, 11, 13, 17]
    assert _exponents(build_root_datum(RootSystemSpec("G", 2))) == [1, 5]
    assert _exponents(build_root_datum(RootSystemSpec("B", 4))) == [1, 3, 5, 7]
    # E7 without its last node is E6; B4 without its last node is A3.
    assert _exponents(build_root_datum(RootSystemSpec("E", 7)), 6) == [1, 4, 5, 7, 8, 11]
    assert _exponents(build_root_datum(RootSystemSpec("B", 4)), 3) == [1, 2, 3]


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 4), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6), ("E", 7)],
)
def test_level_sizes_are_poincare_coefficients(family, rank):
    # The number of elements of each Coxeter length is the coefficient of the
    # Poincare polynomial prod_i (1 + q + ... + q^{m_i}); the exponents come
    # from the roots alone, not from the enumeration.  The same holds for the
    # parabolic subgroup W_J (J = all but the last simple reflection) and its
    # levels, and the minimal coset representatives W^J, counted by length,
    # give P_W / P_{W_J} (Bjorner-Brenti, GTM 231, §2.4).
    datum = build_root_datum(RootSystemSpec(family, rank))
    k = rank - 1
    poincare, parabolic = _poincare(_exponents(datum)), _poincare(_exponents(datum, k))
    assert [level.shape[0] for level in iter_levels(datum)] == poincare
    assert [level.shape[0] for level in iter_levels(datum, range(k))] == parabolic
    reps = weyl.min_coset_representatives(datum, k)
    per_length = Counter(_lengths(datum, [u.to_rows() for u in reps]))
    assert [per_length[i] for i in range(max(per_length) + 1)] == _divide_exactly(poincare, parabolic)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 2), ("A", 5), ("B", 3), ("C", 4), ("D", 4), ("D", 8), ("F", 4), ("G", 2), ("E", 6), ("E", 8)],
)
def test_min_coset_representatives_are_minimal(family, rank):
    # u is minimal in u W_J exactly when u(alpha_j) is positive for each j in
    # J, i.e. when column j of u has a positive coordinate sum.  Distinct
    # minimal elements lie in distinct cosets, so |W^J| = |W| / |W_J|.
    datum = build_root_datum(RootSystemSpec(family, rank))
    k = rank - 1
    reps = weyl.min_coset_representatives(datum, k)
    assert reps[0] == IntMatrix.identity(rank)
    assert len(set(reps)) == len(reps)
    for u in reps:
        assert all(sum(u[i, j] for i in range(rank)) > 0 for j in range(k))
    lengths = _lengths(datum, [u.to_rows() for u in reps])
    assert lengths == sorted(lengths)
    parabolic = _poincare(_exponents(datum, k))
    assert len(reps) * sum(parabolic) == group_order_formula(datum.spec)


def test_entry_bound_is_asserted(monkeypatch):
    # W(B3) has root coordinates 2 (the highest root is a1 + 2 a2 + 2 a3).
    monkeypatch.setattr(weyl, "_ENTRY_BOUND", 1)
    with pytest.raises(AssertionError, match="root-coordinate bound"):
        generate_group(build_root_datum(RootSystemSpec("B", 3)))


def test_shift_bound_is_asserted(monkeypatch):
    # A generator moving a coordinate by 4 would break the int8 product bound.
    fake = (IntMatrix.from_rows([[-1, 4], [0, 1]]), IntMatrix.from_rows([[1, 0], [1, -1]]))
    monkeypatch.setattr(weyl, "simple_reflections", lambda datum: fake)
    with pytest.raises(AssertionError, match="by more than 3"):
        next(iter_levels(build_root_datum(RootSystemSpec("A", 2))))


@pytest.mark.parametrize("delta,message", [(-1, "exceeded the predicted order"), (1, "found 48 elements")])
def test_enumeration_count_is_asserted(monkeypatch, delta, message):
    monkeypatch.setattr(weyl, "group_order_formula", lambda spec: 48 + delta)
    with pytest.raises(AssertionError, match=message):
        list(iter_levels(build_root_datum(RootSystemSpec("B", 3))))


def test_group_too_large_raises():
    # W(E8) would need 41.5 GiB; only the eager cap check keeps this small.
    datum = build_root_datum(RootSystemSpec("E", 8))
    tracemalloc.start()
    try:
        with pytest.raises(GroupTooLargeError):
            generate_group(datum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # A tiny custom cap trips on small groups too.
    datum_a3 = build_root_datum(RootSystemSpec("A", 3))
    with pytest.raises(GroupTooLargeError):
        generate_group(datum_a3, GroupCap(max_elements=10))


def test_cap_validation():
    with pytest.raises(ValueError):
        GroupCap(max_elements=0)


def test_element_iter_a1(groups):
    group = groups("A", 1)
    elems = list(element_iter(group))
    assert elems == [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])]


def test_element_iter_a2_identity_first(groups):
    group = groups("A", 2)
    elems = list(element_iter(group))
    assert len(elems) == 6
    assert elems[0] == IntMatrix.identity(2)
    assert len(set(elems)) == 6


def test_element_iter_requires_exhaustive():
    group = WeylGroup.from_generators(build_root_datum(RootSystemSpec("E", 8)))
    with pytest.raises(NotExhaustiveError):
        next(element_iter(group))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_group_closure_inverse_and_gram_preservation(family, rank, groups):
    group = groups(family, rank)
    gram = group.datum.gram
    elems = list(element_iter(group))
    elem_set = set(elems)
    for g in elems:
        assert g.transpose() @ gram @ g == gram
    # Closed under the generators and under inverse (inverse of an involution
    # product is a product of the same involutions reversed).
    for g in elems[:12]:
        for s in group.generators:
            assert g @ s in elem_set
    ident = IntMatrix.identity(rank)
    for g in elems:
        inv = _inverse_in(elem_set, g, ident)
        assert inv is not None


def _inverse_in(elem_set, g, ident):
    for h in elem_set:
        if g @ h == ident:
            return h
    return None


def test_roots_closed_under_group(groups):
    # The root set is a union of orbits of the simple roots: every w sends
    # root coordinates (in the root basis) to root coordinates.
    from roothk.root_data import ambient_to_root_basis

    group = groups("B", 2)
    datum = group.datum
    root_coords = set(ambient_to_root_basis(datum, datum.all_roots))
    for g in element_iter(group):
        gr = g.to_rat()
        for v in root_coords:
            image = tuple(
                sum(gr[i, j] * v[j] for j in range(datum.rank)) for i in range(datum.rank)
            )
            assert image in root_coords


@pytest.mark.parametrize("n,order", [(2, 8), (3, 48), (4, 384)])
def test_signed_permutation_structure(n, order):
    report = check_signed_permutation_structure(n)
    assert report.passed
    assert report.order == order
    assert report.all_signed_permutations
    assert report.permutation_count * report.signs_per_permutation == order


def test_signed_permutation_cap_propagates():
    with pytest.raises(GroupTooLargeError):
        check_signed_permutation_structure(4, GroupCap(max_elements=100))

import tracemalloc
from collections import Counter
from math import factorial

import numpy as np
import pytest

import oracles
from roothk import weyl
from roothk.exact_linalg import IntMatrix
from roothk.root_data import (
    RootSystemSpec,
    build_root_datum,
    simple_reflections,
    standard_table,
)
from roothk.weyl import (
    element_iter,
    generate_group,
    group_order_formula,
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
    # reflection, identity first, and as many of each Coxeter length (the
    # number of positive roots an element sends to negative roots) as the
    # Poincare polynomial from the root heights says.
    group = groups(family, rank)
    elements = oracles.all_elements(group)
    _assert_closed_group(elements.astype(np.int16), simple_reflections(group.datum), group.order)
    assert (elements[0] == np.eye(rank)).all()
    per_length = Counter(_lengths(group.datum, elements))
    assert [per_length[h] for h in range(max(per_length) + 1)] == _poincare(_exponents(group.datum))


def _keys(elements):
    """One byte string per element, sorted."""
    flat = np.ascontiguousarray(elements).reshape(len(elements), -1)
    return np.sort(flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize)))[:, 0])


def _assert_closed_group(elements, generators, order):
    # Right multiplication by s is injective, so a set closed under it is
    # mapped onto itself: the sorted keys of the products are the keys.
    keys = _keys(elements)
    assert len(keys) == np.unique(keys).size == order
    for gen in generators:
        assert np.array_equal(_keys(elements @ np.array(gen.to_rows(), dtype=np.int16)), keys)


def _exponents(datum, nodes=None):
    """Exponents m_i from the height partition of the positive roots:
    #{i : m_i >= h} is the number of positive roots of height h (Kostant 1959).

    With ``nodes``, only the roots supported on those simple roots: the root
    system of the parabolic subgroup W_J, J = {s_j : j in nodes} (the
    partition adds up over its components)."""
    coords = oracles.root_coords(datum.simple_rows, datum.denominator)
    outside = [j for j in range(datum.rank) if nodes is not None and j not in nodes]
    per_height = Counter(int(sum(c)) for c in coords if min(c) >= 0 and not any(c[j] for j in outside))
    return sorted(h for h in per_height for _ in range(per_height[h] - per_height[h + 1]))


def _poincare(exponents):
    """Coefficients of prod_i (1 + q + ... + q^{m_i})."""
    poly = [1]
    for m in exponents:
        poly = np.convolve(poly, np.ones(m + 1, dtype=np.int64)).tolist()
    return poly


def _lengths(datum, elements):
    """Coxeter length of each element: the positive roots it sends negative."""
    coords = oracles.root_coords(datum.simple_rows, datum.denominator)
    positive = np.array([[int(x) for x in c] for c in coords if min(c) >= 0], dtype=np.int32)
    images = np.asarray(elements, dtype=np.int32) @ positive.T
    return (images < 0).any(axis=1).sum(axis=1).tolist()


def test_exponents_from_root_heights():
    assert _exponents(build_root_datum(RootSystemSpec("E", 7))) == [1, 5, 7, 9, 11, 13, 17]
    assert _exponents(build_root_datum(RootSystemSpec("G", 2))) == [1, 5]
    assert _exponents(build_root_datum(RootSystemSpec("B", 4))) == [1, 3, 5, 7]
    # E7 without its last node is E6; B4 without its last node is A3, and
    # without its first node B3; D5 without its first node is D4.
    assert _exponents(build_root_datum(RootSystemSpec("E", 7)), range(6)) == [1, 4, 5, 7, 8, 11]
    assert _exponents(build_root_datum(RootSystemSpec("B", 4)), range(3)) == [1, 2, 3]
    assert _exponents(build_root_datum(RootSystemSpec("B", 4)), range(1, 4)) == [1, 3, 5]
    assert _exponents(build_root_datum(RootSystemSpec("D", 5)), range(1, 5)) == [1, 3, 3, 5]


def _representatives(datum, k):
    # The minimal-length representatives R_k of one step of the chain, identity first.
    return weyl._left_multiply(datum, [weyl._walk(datum, k)])


def _chain(datum):
    """The nodes in the order the parabolic chain takes them: from the far
    end of the diagram for B, C and D (B_n labels its short simple root n,
    D_n forks at n - 2), in label order for the other families."""
    nodes = list(range(datum.rank))
    return nodes[::-1] if datum.spec.family in ("B", "C", "D") else nodes


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 4), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6), ("E", 7)],
)
def test_level_sizes_are_poincare_coefficients(family, rank):
    # The number of elements of each Coxeter length is the coefficient of the
    # Poincare polynomial prod_i (1 + q + ... + q^{m_i}); the exponents come
    # from the roots alone, not from the enumeration.  Down the parabolic
    # chain W = R_1 ... R_n every element is one product u_1 ... u_n whose
    # lengths add (Bjorner-Brenti, GTM 231, §2.4), so the counts of the coset
    # representatives by length multiply to the same polynomial.  The stored
    # groups meet the same polynomial in test_enumeration_oracle.
    datum = build_root_datum(RootSystemSpec(family, rank))
    poincare = _poincare(_exponents(datum))
    product = [1]
    for k in range(rank):
        per_length = Counter(_lengths(datum, _representatives(datum, k)))
        product = np.convolve(product, [per_length[h] for h in range(max(per_length) + 1)]).tolist()
    assert product == poincare


@pytest.mark.parametrize(
    "family,rank",
    [("A", 2), ("A", 5), ("B", 3), ("C", 4), ("D", 4), ("D", 8), ("F", 4), ("G", 2), ("E", 6), ("E", 8)],
)
def test_min_coset_representatives_are_minimal(family, rank):
    # With K the first k + 1 nodes of the chain and J the first k, u is
    # minimal in u W_J exactly when u(alpha_j) is positive for each j in J,
    # i.e. when column j of u has a positive coordinate sum.  Distinct
    # minimal elements lie in distinct cosets, so |R| = |W_K| / |W_J|.
    datum = build_root_datum(RootSystemSpec(family, rank))
    chain = _chain(datum)
    for k in range(rank):
        reps = _representatives(datum, k)
        assert (reps[0] == np.eye(rank)).all()
        assert np.unique(reps.reshape(len(reps), -1), axis=0).shape[0] == len(reps)
        assert (reps.sum(axis=1, dtype=np.int64)[:, chain[:k]] > 0).all()
        lengths = _lengths(datum, reps)
        assert lengths == sorted(lengths)
        parabolic = _poincare(_exponents(datum, chain[:k]))
        assert len(reps) * sum(parabolic) == sum(_poincare(_exponents(datum, chain[: k + 1])))


@pytest.mark.parametrize(
    "spec", [s for s in standard_table() if group_order_formula(s) <= 51_840], ids=lambda s: s.label
)
def test_coset_halves_multiply_to_the_group(spec):
    # The products u * v of the two halves are |W| distinct matrices, the
    # identity first, and the set is closed under right multiplication by
    # each simple reflection: a subset of W closed under the generators
    # that holds the identity is W.
    n = spec.rank
    datum = build_root_datum(spec)
    u, v, _ = weyl.coset_halves(datum)
    products = (u[:, None].astype(np.int16) @ v[None].astype(np.int16)).reshape(-1, n, n)
    assert (products[0] == np.eye(n)).all()
    _assert_closed_group(products, simple_reflections(datum), group_order_formula(spec))


def test_coset_product_bound_is_asserted(monkeypatch):
    # A shear s_0 with row (3, 1, 0) keeps every coset representative of
    # W(A3) = 4 * 3 * 2 within the bound, and row 0 of s_0 within [-1, 3],
    # but it meets itself in the half R_2 R_3, where an entry reaches 9.
    datum = build_root_datum(RootSystemSpec("A", 3))
    shear, *rest = weyl.simple_reflections(datum)
    shear = IntMatrix.from_rows([[3, 1, 0], *shear.to_rows()[1:]])
    monkeypatch.setattr(weyl, "simple_reflections", lambda datum: (shear, *rest))
    for k in range(3):
        _representatives(datum, k)
    with pytest.raises(AssertionError, match="group element entries exceeded the root-coordinate bound"):
        weyl.coset_halves(datum)


def test_entry_bound_is_asserted(monkeypatch):
    # W(B3) has root coordinates 2 (the highest root is a1 + 2 a2 + 2 a3).
    monkeypatch.setattr(weyl, "_ENTRY_BOUND", 1)
    datum = build_root_datum(RootSystemSpec("B", 3))
    for build in (generate_group, lambda d: _representatives(d, 2), weyl.coset_halves):
        with pytest.raises(AssertionError, match="group element entries exceeded the root-coordinate bound"):
            build(datum)


def test_shift_bound_is_asserted(monkeypatch):
    # Row i of s_i outside [-1, 3], above or below, would break the exact
    # int16 row sums.
    for row in ([-1, 4], [-2, 1]):
        fake = (IntMatrix.from_rows([row, [0, 1]]), IntMatrix.from_rows([[1, 0], [1, -1]]))
        monkeypatch.setattr(weyl, "simple_reflections", lambda datum, fake=fake: fake)
        with pytest.raises(AssertionError, match=r"A2 have a row entry outside \[-1, 3\]"):
            generate_group(build_root_datum(RootSystemSpec("A", 2)))


@pytest.mark.parametrize("delta", [-1, 1])
def test_enumeration_count_is_asserted(monkeypatch, delta):
    monkeypatch.setattr(weyl, "group_order_formula", lambda spec: 48 + delta)
    with pytest.raises(AssertionError, match=f"found 48 elements, expected {48 + delta}"):
        generate_group(build_root_datum(RootSystemSpec("B", 3)))


def test_e8_is_built_as_two_int8_halves():
    # W(E8) as one array would need 41.5 GiB; its halves take 4.2 MB.
    datum = build_root_datum(RootSystemSpec("E", 8))
    tracemalloc.start()
    try:
        group = generate_group(datum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    u, v = group.halves
    assert (u.dtype, v.dtype) == (np.int8, np.int8)
    assert (u.shape, v.shape) == ((13440, 8, 8), (51840, 8, 8))
    assert group.element_count() == group.order == 696729600
    assert peak < 8 << 20


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


@pytest.mark.parametrize(
    "spec", [s for s in standard_table() if group_order_formula(s) <= 10_000], ids=lambda s: s.label
)
def test_element_iter_is_the_product_of_the_halves(spec, groups):
    # order distinct matrices, the identity first, each the product u * v
    # at row i |V| + j of the oracle's u-major product.
    group = groups(spec.family, spec.rank)
    elems = list(element_iter(group))
    assert len(elems) == len(set(elems)) == group.order
    assert elems[0] == IntMatrix.identity(spec.rank)
    assert [w.to_rows() for w in elems] == oracles.all_elements(group).tolist()


@pytest.mark.parametrize(
    "family,rank,sizes",
    [
        ("B", 2, [2, 4]),
        ("B", 7, [2, 4, 6, 8, 10, 12, 14]),
        ("C", 3, [2, 4, 6]),
        ("C", 7, [2, 4, 6, 8, 10, 12, 14]),
        ("D", 3, [2, 2, 6]),
        ("D", 4, [2, 2, 6, 8]),
        ("D", 7, [2, 2, 6, 8, 10, 12, 14]),
        ("E", 7, [2, 2, 3, 10, 16, 27, 56]),
    ],
)
def test_chain_walk_sizes(family, rank, sizes):
    # B, C and D chain from the far end of the diagram: W(B_{k+1}) over
    # W(B_k) has 2(k + 1) cosets, and D_n steps through A1, A1 x A1 and
    # A3 = D3 before D4, ..., D_n.  Starting from the other end made the
    # last walk the orbit of the spin weight, 2^n or 2^(n-1) elements.
    # E keeps its order, with the last node's orbit outermost.
    datum = build_root_datum(RootSystemSpec(family, rank))
    assert [len(weyl._walk(datum, k)) + 1 for k in range(rank)] == sizes


def test_e7_is_held_as_two_halves():
    # W(E7) = 56 * 27 * 16 * 10 * 3 * 2 * 2 splits as 1512 * 1920; the group
    # holds those two int8 arrays, 168 kB, not its 2,903,040 elements.
    group = generate_group(build_root_datum(RootSystemSpec("E", 7)))
    u, v = group.halves
    assert (len(u), len(v)) == (1512, 1920)
    assert u.dtype == v.dtype == np.int8
    assert u.nbytes + v.nbytes == (1512 + 1920) * 49
    assert group.element_count() == group.order == 2903040


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
        for s in simple_reflections(group.datum):
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
    group = groups("B", 2)
    datum = group.datum
    root_coords = set(oracles.root_coords(datum.simple_rows, datum.denominator))
    for g in element_iter(group):
        for v in root_coords:
            image = tuple(
                sum(g[i, j] * v[j] for j in range(datum.rank)) for i in range(datum.rank)
            )
            assert image in root_coords


@pytest.mark.parametrize("n,order", [(2, 8), (3, 48), (4, 384)])
def test_signed_permutation_structure(n, order):
    # W(B_n), written in the orthonormal ambient basis, is every signed
    # permutation matrix: n! permutations, each with all 2^n sign patterns.
    datum = build_root_datum(RootSystemSpec("B", n))
    group = generate_group(datum)
    assert group.order == order
    ambient = np.abs(oracles.ambient_matrices(oracles.all_elements(group), datum.simple_rows))
    # Integer rows and columns of absolute sum 1: one entry +-1 in each.
    assert (ambient.sum(axis=1) == 1).all() and (ambient.sum(axis=2) == 1).all()
    perms, signs = np.unique(ambient.argmax(axis=1), axis=0, return_counts=True)
    assert len(perms) == factorial(n)
    assert set(signs.tolist()) == {2**n}

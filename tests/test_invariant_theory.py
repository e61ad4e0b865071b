import random
import tracemalloc

import numpy as np
import pytest

from oracles import all_elements, batch_images, invariant_dim_reynolds, reynolds_sum
from roothk.exact_linalg import IntMatrix, integer_row_rank
from roothk.invariant_theory import (
    Representation,
    _image,
    _sym2_matrix,
    commutant_dimension,
    invariant_dim,
    invariant_report,
    irreducibility_check,
    rep_double,
    rep_reflection,
    rep_sym2,
    rep_wedge2,
)
from roothk.root_data import RootSystemSpec, build_root_datum, simple_reflections, standard_table
from roothk.weyl import element_iter


def _datum(family, rank):
    return build_root_datum(RootSystemSpec(family, rank))


def _rep(*images):
    # The representation with the given square integer generator images.
    return Representation(images[0].rows, tuple(_image(g) for g in images))


def _rank(rows):
    # integer_row_rank of dense rows, as {col: value} rows.
    return integer_row_rank(dict(enumerate(row)) for row in rows)


def _dense(image, dim):
    # The dim x dim matrix of a moved-rows image.
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for k, row in image.items():
        rows[k] = [row.get(j, 0) for j in range(dim)]
    return IntMatrix.from_rows(rows)


def test_reflection_rep_dims():
    assert rep_reflection(_datum("A", 1)).dim == 1
    assert rep_reflection(_datum("A", 2)).dim == 2
    assert rep_reflection(_datum("E", 8)).dim == 8
    assert _dense(rep_reflection(_datum("A", 1)).generator_images[0], 1) == IntMatrix.from_rows([[-1]])


@pytest.mark.parametrize("spec", standard_table(), ids=lambda s: s.label)
def test_reflection_images_preserve_the_gram(spec):
    # The Gram is an invariant form of the reflection representation; by
    # test_acceptance criterion 1 (Sym2 invariants 1, Wedge2 invariants 0)
    # every invariant form is a multiple of it.
    datum = build_root_datum(spec)
    gram = datum.gram
    for g in rep_reflection(datum).generator_images:
        g = _dense(g, spec.rank)
        assert g.transpose() @ gram @ g == gram


def test_double_blocks_and_involution():
    v = rep_reflection(_datum("A", 2))
    d = rep_double(v)
    assert d.dim == 4
    ident = IntMatrix.identity(4)
    for g, base in zip(d.generator_images, v.generator_images):
        g, base = _dense(g, 4), _dense(base, 2)
        assert g @ g == ident
        for i in range(2):
            for j in range(2):
                assert g[i, j] == base[i, j]
                assert g[i + 2, j + 2] == base[i, j]
                assert g[i, j + 2] == 0
                assert g[i + 2, j] == 0


def test_tensor_square_dims():
    v = rep_reflection(_datum("A", 2))
    assert rep_sym2(v).dim == 3
    assert rep_wedge2(v).dim == 1
    v1 = rep_reflection(_datum("A", 1))
    assert rep_wedge2(v1).dim == 0


def test_sym2_preserves_induced_form():
    # Orthogonal generators induce orthogonal action on the symmetric square
    # with respect to the induced pairing; verify g^T g = 1 goes to involution.
    v = rep_reflection(_datum("A", 2))
    s = rep_sym2(v)
    ident = IntMatrix.identity(3)
    for g in s.generator_images:
        g = _dense(g, 3)
        assert g @ g == ident


@pytest.mark.parametrize(
    "family,rank,sym2,wedge2,doubled",
    [("A", 1, 1, 0, 1), ("A", 2, 1, 0, 1), ("A", 3, 1, 0, 1), ("B", 3, 1, 0, 1), ("G", 2, 1, 0, 1)],
)
def test_invariant_dims_small(family, rank, sym2, wedge2, doubled):
    v = rep_reflection(_datum(family, rank))
    assert invariant_dim(rep_sym2(v)) == sym2
    assert invariant_dim(rep_wedge2(v)) == wedge2
    assert invariant_dim(rep_wedge2(rep_double(v))) == doubled


def test_images_must_fit_the_dimension():
    with pytest.raises(ValueError):
        Representation(2, ({0: {2: 1}},))


def test_invariant_dim_trivial_rep():
    triv = _rep(IntMatrix.identity(1))
    assert invariant_dim(triv) == 1


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_reynolds_matches_generator_method(family, rank, groups, constructions):
    group = groups(family, rank)
    elements = all_elements(group)
    for chain, rep in constructions(rep_reflection(group.datum)):
        assert invariant_dim_reynolds(chain, elements) == invariant_dim(rep)


def test_reynolds_explicit_average_a2(groups):
    # Direct 6-term average for the symmetric square of the A2 reflection rep.
    group = groups("A", 2)
    v = rep_reflection(group.datum)
    s2 = rep_sym2(v)
    chain = ("sym2", ("defining",))
    elements = all_elements(group)
    assert invariant_dim_reynolds(chain, elements) == invariant_dim(s2) == 1
    total = reynolds_sum(chain, elements)
    # Cross-check the fast assembly against an explicit sum over elements.
    direct = IntMatrix(3, 3, [0] * 9)
    for w in element_iter(group):
        direct = direct + _dense(_sym2_matrix(_image(w), 2), 3)
    assert direct.to_rows() == total.tolist()


def test_reynolds_rejects_explicit_reps(groups):
    # Given generator images say nothing about the other elements' images.
    with pytest.raises(ValueError):
        invariant_dim_reynolds(("explicit",), all_elements(groups("A", 1)))


def test_reynolds_rejects_chains_without_pair_sums(groups):
    # Sym2 of Sym2 is quartic in the defining entries: no pair-sum assembly.
    group = groups("A", 2)
    with pytest.raises(ValueError, match="no Reynolds sum"):
        reynolds_sum(("sym2", ("sym2", ("defining",))), all_elements(group))


def test_reynolds_wedge2_b2(groups):
    group = groups("B", 2)
    v = rep_reflection(group.datum)
    assert invariant_dim_reynolds(("wedge2", ("defining",)), all_elements(group)) == invariant_dim(rep_wedge2(v)) == 0


def test_batch_images_match_generator_images(groups, constructions):
    group = groups("B", 3)
    gens = np.array([g.to_rows() for g in simple_reflections(group.datum)], dtype=np.int8)
    for chain, rep in constructions(rep_reflection(group.datum)):
        imgs = batch_images(chain, gens)
        for idx, g in enumerate(rep.generator_images):
            assert imgs[idx].tolist() == _dense(g, rep.dim).to_rows()


@pytest.mark.parametrize("seed", range(6))
def test_square_images_match_batch_formula(seed):
    # Every row of a random matrix moves, so the sparse row construction of
    # Sym2 and Wedge2 is compared entry by entry with the dense batch formula.
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(2, 6))
    m = rng.choice([0, 0, -2, -1, 1, 3], size=(n, n))
    g = IntMatrix.from_rows(m.tolist())
    base = Representation(n, (_image(g),))
    doubled = _rep(g + g)
    for build, chain in ((rep_sym2, ("sym2", ("defining",))), (rep_wedge2, ("wedge2", ("defining",)))):
        rep = build(base)
        image = _dense(rep.generator_images[0], rep.dim)
        assert image.to_rows() == batch_images(chain, m[None])[0].tolist()
        # Sym2 and Wedge2 are quadratic: the image of 2m is 4 times that of m.
        quadrupled = _dense(build(doubled).generator_images[0], rep.dim)
        assert quadrupled == image + image + image + image


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("G", 2), ("D", 4)])
def test_decomposition_check(family, rank):
    assert invariant_report(_datum(family, rank)).decomposition_consistent


def test_decomposition_dims_identity():
    for n in range(1, 9):
        assert n * (2 * n - 1) == 3 * (n * (n - 1) // 2) + n * (n + 1) // 2


def test_irreducibility_reflection_reps():
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("G", 2), ("F", 4)]:
        assert irreducibility_check(rep_reflection(_datum(family, rank)))


def test_irreducibility_one_dim():
    assert irreducibility_check(_rep(IntMatrix.from_rows([[-1]])))


def test_doubled_rep_is_reducible():
    v = rep_reflection(_datum("A", 2))
    d = rep_double(v)
    assert not irreducibility_check(d)
    assert commutant_dimension(d) == 4


def test_invariant_form_reynolds_average_b2(groups):
    # Averaging the identity form over the group lands on the line of the Gram.
    group = groups("B", 2)
    gram = group.datum.gram
    avg = IntMatrix(2, 2, [0] * 4)
    for w in element_iter(group):
        avg = avg + (w.transpose() @ w)
    for i in range(2):
        for j in range(2):
            assert avg[i, j] * gram[0, 0] == gram[i, j] * avg[0, 0]


def test_invariant_report_passes():
    report = invariant_report(_datum("B", 3))
    assert report.passed
    assert (report.dim_sym2_inv, report.dim_wedge2_inv, report.dim_wedge2_doubled_inv) == (1, 0, 1)


def test_reducible_two_line_rep_has_two_invariant_forms():
    # Two orthogonal sign characters: the doubled alternating square picks up
    # one invariant per irreducible summand.
    g1 = IntMatrix.from_rows([[-1, 0], [0, 1]])
    g2 = IntMatrix.from_rows([[1, 0], [0, -1]])
    rep = _rep(g1, g2)
    assert invariant_dim(rep_wedge2(rep_double(rep))) == 2


def _conjugated(v):
    # P g P^-1 for a fixed unipotent integer P, so det P = 1 and P^-1 is its
    # adjugate: the same representation up to isomorphism, so every invariant
    # dimension agrees, but in another integer basis.
    n = v.dim
    p = IntMatrix.from_rows([[(i + j) % 3 + 1 if j > i else int(i == j) for j in range(n)] for i in range(n)])
    p_inv, det = p.adjugate()
    assert det == 1
    images = tuple(p @ _dense(g, n) @ p_inv for g in v.generator_images)
    return _rep(*images), p_inv


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_unimodular_conjugate_matches_integral(family, rank):
    v = rep_reflection(_datum(family, rank))
    w, p_inv = _conjugated(v)
    assert all(g != h for g, h in zip(w.generator_images, v.generator_images))
    for build in (rep_sym2, rep_wedge2, lambda r: rep_wedge2(rep_double(r))):
        assert invariant_dim(build(w)) == invariant_dim(build(v))
    assert commutant_dimension(w) == commutant_dimension(v) == 1
    assert commutant_dimension(rep_double(w)) == commutant_dimension(rep_double(v)) == 4
    # The invariant form moves with the basis: the conjugated images preserve P^-T G P^-1.
    moved = p_inv.transpose() @ _datum(family, rank).gram @ p_inv
    for g in w.generator_images:
        g = _dense(g, rank)
        assert g.transpose() @ moved @ g == moved


def test_commutant_of_one_reflection():
    # Eigenvalues -1, 1, ..., 1: the commutant is gl(1) + gl(rank - 1).  Both
    # halves of gX = Xg (moved rows and moved columns) are needed for this.
    for family, rank in [("A", 3), ("B", 3), ("G", 2)]:
        s = _dense(rep_reflection(_datum(family, rank)).generator_images[0], rank)
        assert commutant_dimension(_rep(s)) == 1 + (rank - 1) ** 2
        assert commutant_dimension(_rep(s.transpose())) == 1 + (rank - 1) ** 2


def test_commutant_of_four_copies():
    v = rep_reflection(_datum("A", 2))
    assert commutant_dimension(rep_double(rep_double(v))) == 16


def test_integral_constructions_stay_integer():
    v = rep_reflection(_datum("A", 4))
    w2d = rep_wedge2(rep_double(v))
    assert all(type(x) is int for g in w2d.generator_images for row in g.values() for x in row.values())
    assert invariant_dim(w2d) == 1


def test_integral_images_hold_moved_rows_only():
    # A reflection moves about 4 * rank of the rank(2 rank - 1) rows of its
    # Wedge2(V + V) image; the dense A16 images took 31.5 MB.
    v = rep_reflection(_datum("A", 16))
    tracemalloc.start()
    try:
        w2d = rep_wedge2(rep_double(v))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w2d.dim == 496
    assert held < 2_000_000


# Dense reference systems: every equation (i, j), from the full matrices.


def _dense_fixed_rows(mats):
    n = mats[0].rows
    return [[g[i, j] - (i == j) for j in range(n)] for g in mats for i in range(n)]


def _dense_commutant_rows(mats):
    # Entry (i, j) of gX - Xg, on X flattened row-major.
    n = mats[0].rows
    rows = []
    for g in mats:
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for a in range(n):
                    row[a * n + j] += g[i, a]
                for b in range(n):
                    row[i * n + b] -= g[b, j]
                rows.append(row)
    return rows


def _random_images(seed):
    # Random generators over small values.  The first moves two rows: row 0
    # only off its diagonal, into column 2, and row 1, whose column is zero.
    rng = random.Random(900 + seed)
    n = rng.randint(3, 5)
    values = [0, 0, 0, 1, -1, 2, -3]
    first = [[int(i == j) for j in range(n)] for i in range(n)]
    first[0][2] = rng.choice([1, -1, 2])
    first[1] = [0] + [0] + [rng.choice(values) for _ in range(n - 2)]
    mats = [first]
    for _ in range(rng.randint(0, 2)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in rng.sample(range(n), rng.randint(1, n)):
            rows[k] = [rng.choice(values) for _ in range(n)]
        mats.append(rows)
    return [IntMatrix.from_rows(m) for m in mats]


def _block_double(m):
    n = m.rows
    return IntMatrix.from_rows(
        [[m[i % n, j % n] if i // n == j // n else 0 for j in range(2 * n)] for i in range(2 * n)]
    )


@pytest.mark.parametrize("seed", range(12))
def test_systems_match_dense_reference(seed):
    mats = _random_images(seed)
    rep = _rep(*mats)
    first = rep.generator_images[0]
    assert set(first) == {0, 1} and set(first[0]) == {0, 2} and first[0][0] == 1
    assert not any(1 in row for row in first.values())
    cases = [(rep, mats), (_rep(*mats[:1]), mats[:1])]
    cases += [(rep_double(r), [_block_double(m) for m in ms]) for r, ms in cases]
    for r, dense in cases:
        n = r.dim
        assert invariant_dim(r) == n - _rank(_dense_fixed_rows(dense))
        assert commutant_dimension(r) == n * n - _rank(_dense_commutant_rows(dense))

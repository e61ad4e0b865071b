from fractions import Fraction
from math import gcd

import pytest

import _rational as ref
import oracles
from roothk.exact_linalg import IntMatrix, integer_row_rank
from roothk.lattice_tower import tower_for_spec
from roothk.root_data import (
    RootDatum,
    RootSystemSpec,
    build_root_datum,
    simple_reflections,
    specs_up_to_rank,
    standard_table,
)

def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _reflect(v, alpha, alpha_norm):
    c = 2 * _dot(v, alpha) / alpha_norm
    return tuple(x - c * a for x, a in zip(v, alpha))


def _simple_roots(datum):
    """The ambient simple roots, as ``Fraction`` tuples."""
    return tuple(map(tuple, ref.divided(datum.simple_rows, datum.denominator)))


def _gram_scale(spec):
    # The rescale clears denominators and nothing more: only F4 needs it.
    return Fraction(1, 2) if spec.family == "F" else 1


SMALL_TABLE = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 2), ("C", 3),
    ("D", 3), ("D", 4), ("F", 4), ("G", 2),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        RootSystemSpec("A", 0)
    with pytest.raises(ValueError):
        RootSystemSpec("D", 2)
    with pytest.raises(ValueError):
        RootSystemSpec("E", 9)
    with pytest.raises(ValueError):
        RootSystemSpec("H", 3)
    assert RootSystemSpec("E", 7).label == "E7"


def _cartan(family, rank):
    return build_root_datum(RootSystemSpec(family, rank)).cartan


def test_cartan_a1():
    assert _cartan("A", 1).to_rows() == [[2]]


def test_cartan_a2():
    assert _cartan("A", 2).to_rows() == [[2, -1], [-1, 2]]


def test_cartan_g2():
    m = _cartan("G", 2)
    assert m.det() == 1
    assert m[0, 1] * m[1, 0] == 3
    assert m[0, 0] == m[1, 1] == 2


@pytest.mark.parametrize("family,rank", SMALL_TABLE)
def test_cartan_axioms_and_determinant(family, rank):
    spec = RootSystemSpec(family, rank)
    m = _cartan(family, rank)
    assert m.det() == spec.cartan_determinant
    for i in range(rank):
        assert m[i, i] == 2
        for j in range(rank):
            if i != j:
                assert m[i, j] <= 0


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 2, 6), ("D", 4, 24), ("E", 8, 240), ("E", 7, 126), ("E", 6, 72), ("F", 4, 48), ("G", 2, 12)],
)
def test_root_counts(family, rank, count):
    spec = RootSystemSpec(family, rank)
    datum = build_root_datum(spec)
    assert spec.root_count == count
    assert len(oracles.ambient_roots(datum.simple_rows, datum.denominator)) == count
    assert len(oracles.root_coords(datum.simple_rows, datum.denominator)) == count


@pytest.mark.parametrize("family,rank", SMALL_TABLE)
def test_gram_positive_definite_and_minimally_integral(family, rank):
    datum = build_root_datum(RootSystemSpec(family, rank))
    g = datum.gram
    assert g == g.transpose()
    simple = _simple_roots(datum)
    scale = _gram_scale(datum.spec)
    assert [[x * scale for x in row] for row in g] == [[_dot(a, b) for b in simple] for a in simple]
    # Positive definite: all leading principal minors positive.
    for k in range(1, rank + 1):
        sub = IntMatrix(k, k, (g[i, j] for i in range(k) for j in range(k)))
        assert sub.det() > 0


def test_reflection_a1_is_negation():
    datum = build_root_datum(RootSystemSpec("A", 1))
    assert simple_reflections(datum)[0].to_rows() == [[-1]]


def test_reflection_a2_matrix():
    datum = build_root_datum(RootSystemSpec("A", 2))
    assert simple_reflections(datum)[0].to_rows() == [[-1, 1], [0, 1]]


@pytest.mark.parametrize("spec", [RootSystemSpec("A", 2), RootSystemSpec("E", 7)], ids=lambda s: s.label)
def test_datum_holds_only_its_fields(spec):
    # The reflections are cached beside the datum, not in it: a fresh datum
    # holds its five constructor fields before and after they are built.
    datum = build_root_datum.__wrapped__(spec)
    fields = {"spec", "cartan", "simple_rows", "denominator", "gram"}
    assert set(vars(datum)) == fields
    assert simple_reflections(datum) is simple_reflections(datum)
    assert len(simple_reflections(datum)) == spec.rank
    assert set(vars(datum)) == fields


@pytest.mark.parametrize("family,rank", SMALL_TABLE)
def test_reflection_involution_gram_preservation_rank(family, rank):
    datum = build_root_datum(RootSystemSpec(family, rank))
    ident = IntMatrix.identity(rank)
    for s in simple_reflections(datum):
        assert s @ s == ident
        assert s.transpose() @ datum.gram @ s == datum.gram
        assert integer_row_rank(dict(enumerate(row)) for row in s - ident) == 1


@pytest.mark.parametrize("family,rank", SMALL_TABLE)
def test_gram_relates_to_cartan_by_half_norms(family, rank):
    # (a_i, a_j) = C[j][i] * (a_i, a_i) / 2, i.e. raw Gram = D @ C^T with
    # D = diag((a_i, a_i) / 2).
    datum = build_root_datum(RootSystemSpec(family, rank))
    simple = _simple_roots(datum)
    raw = [[_dot(a, b) for b in simple] for a in simple]
    ct = datum.cartan.transpose()
    assert raw == [[raw[i][i] / 2 * ct[i, j] for j in range(rank)] for i in range(rank)]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("D", 4), ("G", 2), ("F", 4)])
def test_roots_single_orbit_per_length(family, rank):
    datum = build_root_datum(RootSystemSpec(family, rank))
    simple = _simple_roots(datum)
    roots = oracles.ambient_roots(datum.simple_rows, datum.denominator)
    norms = [_dot(a, a) for a in simple]
    # Orbit of each simple root under the simple reflections.
    covered = set()
    for alpha in simple:
        orbit = {alpha}
        frontier = [alpha]
        while frontier:
            new = []
            for v in frontier:
                for s, nrm in zip(simple, norms):
                    w = _reflect(v, s, nrm)
                    if w not in orbit:
                        orbit.add(w)
                        new.append(w)
            frontier = new
        covered |= orbit
        # One orbit per root length: the orbit is exactly the roots of that norm.
        norm = _dot(alpha, alpha)
        assert orbit == {r for r in roots if _dot(r, r) == norm}
    assert covered == set(roots)


@pytest.mark.parametrize("spec", standard_table(), ids=lambda s: s.label)
def test_integer_root_data_matches_fraction_dots(spec):
    # Cartan, Gram and reflections come from integer dot products of the
    # rescaled simple roots; recompute each from Fraction dot products of the
    # ambient simple roots.
    datum = build_root_datum(spec)
    simple, n = _simple_roots(datum), spec.rank
    cartan = [[2 * _dot(a, b) / _dot(b, b) for b in simple] for a in simple]
    assert datum.cartan.to_rows() == cartan
    assert [[x * _gram_scale(spec) for x in row] for row in datum.gram] == [
        [_dot(a, b) for b in simple] for a in simple
    ]
    for i, alpha in enumerate(simple, start=1):
        # Column j holds the simple-root coordinates of s_i(a_j), which is a_j
        # minus a multiple of a_i: row i carries that multiple, the rest is I.
        expected = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        for j, beta in enumerate(simple):
            moved = _reflect(beta, alpha, _dot(alpha, alpha))
            expected[i - 1][j] += next(
                (x - y) / a for x, y, a in zip(moved, beta, alpha) if a
            )
        assert simple_reflections(datum)[i - 1].to_rows() == expected


@pytest.mark.parametrize("spec", standard_table(), ids=lambda s: s.label)
def test_simple_rows_over_least_denominator(spec):
    datum = build_root_datum(spec)
    den = datum.denominator
    assert den == (2 if spec.family in ("E", "F") else 1)
    assert gcd(den, *(x for row in datum.simple_rows for x in row)) == 1


@pytest.mark.parametrize("spec", standard_table(), ids=lambda s: s.label)
def test_all_roots_are_the_ambient_image_of_root_coords(spec):
    # The ambient roots, closed under the ambient reflections, in simple-root
    # coordinates: a closure that never reads the Cartan matrix.  There are
    # root_count of them, and each simple reflection, built from the Cartan
    # matrix, maps them onto themselves.
    datum = build_root_datum(spec)
    coords = oracles.root_coords(datum.simple_rows, datum.denominator)
    assert len(coords) == spec.root_count
    assert all(x.denominator == 1 for v in coords for x in v)
    roots = {tuple(int(x) for x in v) for v in coords}
    columns = IntMatrix.from_rows(sorted(roots)).transpose()
    for g in simple_reflections(datum):
        assert set((g @ columns).transpose()) == roots


@pytest.mark.parametrize("n", range(1, 9))
def test_dual_quotient_check_examples(n):
    # The model over the rationals: e_i projected to the sum-zero hyperplane
    # of Q^(n+1) has inner products delta_ij - 1/(n+1), and the partial sums
    # of the first i projections have the inverse A_n Gram.  The tower's top
    # member, A_n*, must carry that form in its own basis.
    k = n + 1
    projected = [[Fraction(int(a == i)) - Fraction(1, k) for a in range(k)] for i in range(k)]
    assert ref.matmul(projected, ref.transpose(projected)) == [
        [int(i == j) - Fraction(1, k) for j in range(k)] for i in range(k)
    ]
    weights = [[sum(col) for col in zip(*projected[:i])] for i in range(1, k)]
    weight_gram = ref.matmul(weights, ref.transpose(weights))
    gram = build_root_datum(RootSystemSpec("A", n)).gram
    assert weight_gram == ref.inverse(gram)
    assert ref.det(gram) == k
    tower = tower_for_spec(RootSystemSpec("A", n))
    assert tower.disc.invariant_factors == (k,)
    dual = tower.lattices[-1]
    assert dual.label == f"A{n}*"
    assert ref.divided(dual.scaled_gram, dual.gram_denominator) == weight_gram


def test_a_wrong_adjugate_fails_the_report_row(monkeypatch, capsys):
    # The A3 adjugate, conjugated by the swap of indices 0 and 1: symmetric
    # and of the same determinant, so the tower's det(B adj(G) B^T) check
    # still holds, but the weight lattice's form no longer matches the model.
    from roothk import cli

    real_adjugate = IntMatrix.adjugate
    a3 = build_root_datum(RootSystemSpec("A", 3)).gram
    swap = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def swapped(m):
        adj, det = real_adjugate(m)
        return (swap @ adj @ swap, det) if m == a3 else (adj, det)

    monkeypatch.setattr(IntMatrix, "adjugate", swapped)
    assert cli.main(["report", "--format", "tsv"]) == 1
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows if row[1:2] == ["fail"]] == ["dual-quotient/A3"]


@pytest.mark.parametrize(
    "n,rows",
    [
        (1, [[4]]),  # the A1 form doubled: det 4, not 2
        (2, [[2, 1], [1, 2]]),  # det 3, but its adjugate is not the weight Gram
    ],
)
def test_dual_quotient_check_rejects_a_wrong_gram(monkeypatch, capsys, n, rows):
    # The tower of A_n is built over the wrong Gram; every other row reads
    # the true datum.
    from roothk import cli, lattice_tower

    real = lattice_tower.build_root_datum

    def wrong_gram(spec):
        d = real(spec)
        if spec != RootSystemSpec("A", n):
            return d
        return RootDatum(
            spec=d.spec,
            cartan=d.cartan,
            simple_rows=d.simple_rows,
            denominator=d.denominator,
            gram=IntMatrix.from_rows(rows),
        )

    monkeypatch.setattr(lattice_tower, "build_root_datum", wrong_gram)
    assert cli.main(["report", "--format", "tsv"]) == 1
    report = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    _, status, values, _ = next(row for row in report if row[0] == f"dual-quotient/A{n}")
    assert status == "fail"
    assert "gram_match=0" in values.split(";")


def test_standard_table_contents():
    labels = [s.label for s in standard_table()]
    assert labels[:8] == ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"]
    assert "B7" in labels and "C7" in labels and "D8" in labels
    assert "E8" in labels and "F4" in labels and "G2" in labels
    assert len(labels) == 31


def test_specs_up_to_rank():
    labels = [s.label for s in specs_up_to_rank(1)]
    assert labels == ["A1"]
    labels4 = [s.label for s in specs_up_to_rank(4)]
    assert "B4" in labels4 and "F4" in labels4 and "G2" in labels4 and "E6" not in labels4

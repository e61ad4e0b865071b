import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest

import _rational as ref
from roothk import exact_linalg
from roothk.exact_linalg import (
    IntMatrix,
    _int_echelon,
    hermite_normal_form,
    integer_row_rank,
    smith_normal_form,
)
from roothk.invariant_theory import (
    _commutant_rows,
    _fixed_point_rows,
    rep_double,
    rep_reflection,
    rep_wedge2,
)
from roothk.root_data import RootSystemSpec, build_root_datum


def test_snf_a2_gram():
    # Row/column reduction by hand gives invariant factors (1, 3); det is 3.
    sf = smith_normal_form(IntMatrix.from_rows([[2, -1], [-1, 2]]))
    assert sf.diag == (1, 3)


def test_snf_identity():
    for n in (1, 2, 5):
        sf = smith_normal_form(IntMatrix.identity(n))
        assert sf.diag == (1,) * n


def test_snf_negative_entry_normalized():
    sf = smith_normal_form(IntMatrix.from_rows([[-2]]))
    assert sf.diag == (2,)


def _zeros(rows, cols):
    return IntMatrix(rows, cols, [0] * (rows * cols))


def test_snf_zero_matrix():
    sf = smith_normal_form(_zeros(2, 3))
    assert sf.diag == (0, 0)


def _minors_gcd(m, k):
    """Gcd of all k x k minors of m: its k-th determinantal divisor."""
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            g = gcd(g, IntMatrix.from_rows([[m[i, j] for j in cols] for i in rows]).det())
    return g


@pytest.mark.parametrize("seed", range(20))
def test_snf_reconstruction_on_random_matrices(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    m = IntMatrix(rows, cols, (rng.randint(-6, 6) for _ in range(rows * cols)))
    sf = smith_normal_form(m)
    # d_1 ... d_k is the gcd of the k x k minors (0 past the rank).
    for k in range(1, len(sf.diag) + 1):
        assert prod(sf.diag[:k]) == _minors_gcd(m, k)
    # A unimodular left transform whose rows of left @ m are multiples of d_i.
    assert abs(sf.left.det()) == 1
    reduced = sf.left @ m
    for i in range(rows):
        d = sf.diag[i] if i < len(sf.diag) else 0
        if d:
            assert all(x % d == 0 for x in reduced.row(i))
        else:
            assert not any(reduced.row(i))
    nonzero = [d for d in sf.diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # Transposing the input permutes nothing: same invariant factors.
    assert smith_normal_form(m.transpose()).diag == sf.diag


def _in_row_lattice(v, h):
    """Whether v is an integer combination of the echelon rows of h.

    Back-substitution along the pivots, with exact division.
    """
    v = list(v)
    for row in h:
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            break
        q, r = divmod(v[piv], row[piv])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def _assert_same_row_lattice(m, h):
    # L(m) is inside L(h), and both have the same rank and the same index in
    # their common saturation: the product of the nonzero invariant factors.
    assert all(_in_row_lattice(row, h) for row in m)
    factors_m = [d for d in smith_normal_form(m).diag if d]
    factors_h = [d for d in smith_normal_form(h).diag if d]
    assert len(factors_m) == len(factors_h)
    assert prod(factors_m) == prod(factors_h)


def test_hnf_row_lattice_basis():
    m = IntMatrix.from_rows([[2, 0], [1, 1], [3, 1]])
    h = hermite_normal_form(m)
    _assert_same_row_lattice(m, h)
    assert h.to_rows() == [[1, 1], [0, 2], [0, 0]]


@pytest.mark.parametrize("seed", range(10))
def test_hnf_random_properties(seed):
    rng = random.Random(100 + seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    m = IntMatrix(rows, cols, (rng.randint(-5, 5) for _ in range(rows * cols)))
    h = hermite_normal_form(m)
    assert (h.rows, h.cols) == (m.rows, m.cols)
    _assert_same_row_lattice(m, h)
    # Echelon structure with positive pivots and reduced entries above them.
    last = -1
    for i in range(h.rows):
        row = h.row(i)
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            assert all(not any(h.row(k)) for k in range(i, h.rows))
            break
        assert piv > last
        last = piv
        assert row[piv] > 0
        for k in range(i):
            assert 0 <= h[k, piv] < row[piv]


# Kernel dimensions: ncols - integer_row_rank, the nullity that invariant_dim
# and commutant_dimension read.


def _sparse(rows):
    """Dense rows as the ``{col: value}`` rows that integer_row_rank takes,
    zero entries kept: the echelon drops them."""
    return [dict(enumerate(row)) for row in rows]


def _nullity(rows, ncols):
    return ncols - integer_row_rank(_sparse(rows))


def test_kernel_zero_matrix():
    assert _nullity([[0, 0], [0, 0]], 2) == 2


def test_kernel_identity_empty():
    assert _nullity(IntMatrix.identity(3), 3) == 0


def test_kernel_rank_one_row():
    assert _nullity([[1, 1]], 2) == 1


@pytest.mark.parametrize("seed", range(15))
def test_kernel_annihilates_and_rank_nullity(seed):
    rng = random.Random(200 + seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
    # Each row scaled by the lcm of its denominators.
    cleared = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in m]
    # The reference kernel annihilates m and has as many vectors as the nullity.
    basis = ref.nullspace(m, cols)
    assert len(basis) == _nullity(cleared, cols)
    for v in basis:
        image = [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]
        assert all(x == 0 for x in image)


# Common kernels of several matrices: the kernel of their concatenated rows.


def test_common_kernel_identity_is_empty():
    assert _nullity(IntMatrix.identity(2), 2) == 0


def test_common_kernel_of_zeros_is_full():
    assert _nullity(_zeros(1, 3).to_rows() + _zeros(2, 3).to_rows(), 3) == 3


def test_common_kernel_complementary_projections():
    m1 = IntMatrix.from_rows([[1, 0], [0, 0]])
    m2 = IntMatrix.from_rows([[0, 0], [0, 1]])
    assert _nullity(m1.to_rows() + m2.to_rows(), 2) == 0


def test_det_and_rank():
    m = IntMatrix.from_rows([[2, -1], [-1, 2]])
    assert m.det() == 3
    assert integer_row_rank(_sparse(m)) == 2
    assert IntMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
    assert integer_row_rank(_sparse(IntMatrix.from_rows([[1, 2], [2, 4]]))) == 1


@pytest.mark.parametrize("seed", range(10))
def test_rat_inverse_roundtrip(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(1, 4)
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if ref.det(m) != 0:
            break
    # The reference inverse that the adjugate and Gram tests compare against.
    assert ref.matmul(m, ref.inverse(m)) == ref.identity(n)
    assert ref.matmul(ref.inverse(m), m) == ref.identity(n)


@pytest.mark.parametrize("seed", range(12))
def test_adjugate_random(seed):
    rng = random.Random(500 + seed)
    n = rng.randint(1, 8)
    while True:
        # Sparse entries make zero leading pivots, so row swaps get exercised.
        m = IntMatrix(n, n, (rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(n * n)))
        if m.det() != 0:
            break
    x, d = m.adjugate()
    scalar = IntMatrix(n, n, (d if i == j else 0 for i in range(n) for j in range(n)))
    assert x @ m == scalar
    assert m @ x == scalar
    assert d == m.det() == ref.det(m)
    # The adjugate over the determinant is the Gauss-Jordan inverse.
    assert ref.divided(x, d) == ref.inverse(m)


def test_adjugate_pivot_swap_and_singular():
    m = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert m.adjugate() == (IntMatrix.from_rows([[0, -1], [-1, 0]]), -1)
    assert _zeros(0, 0).adjugate() == (_zeros(0, 0), 1)
    for singular in ([[1, 2], [2, 4]], [[0, 0], [0, 3]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]):
        with pytest.raises(ValueError):
            IntMatrix.from_rows(singular).adjugate()
    with pytest.raises(ValueError):
        _zeros(2, 3).adjugate()


def test_int_matrix_rejects_non_integers():
    # A float used to be truncated to its integer part; it is refused now.
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.5]])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1, 2.0]])
    with pytest.raises(TypeError):
        IntMatrix(1, 1, [Fraction(1, 2)])
    with pytest.raises(TypeError):
        IntMatrix(1, 1, [Fraction(2)])
    # Anything with __index__ is an integer: numpy integers and bools.
    np = pytest.importorskip("numpy")
    m = IntMatrix(1, 3, [np.int8(3), True, np.int64(-7)])
    assert m.data == (3, 1, -7)
    assert all(type(x) is int for x in m.data)


def _entrywise(f):
    return lambda a, b: [[f(x, y) for x, y in zip(r, t)] for r, t in zip(a, b)]


# Each operation on IntMatrix, and the same operation on the Fraction rows.
_SHARED_OPERATIONS = {
    "from_rows": (lambda a, b: IntMatrix.from_rows(a.to_rows()), lambda a, b: a),
    "identity": (lambda a, b: IntMatrix.identity(a.rows), lambda a, b: ref.identity(len(a))),
    "zeros": (lambda a, b: _zeros(a.rows, a.cols), _entrywise(lambda x, y: 0)),
    "add": (lambda a, b: a + b, _entrywise(lambda x, y: x + y)),
    "sub": (lambda a, b: a - b, _entrywise(lambda x, y: x - y)),
    "neg": (lambda a, b: -a, _entrywise(lambda x, y: -x)),
    "matmul": (lambda a, b: a @ b.transpose(), lambda a, b: ref.matmul(a, ref.transpose(b))),
    "transpose": (lambda a, b: a.transpose(), lambda a, b: ref.transpose(a)),
    "hash": (lambda a, b: hash(a) == hash(IntMatrix(a.rows, a.cols, list(a.data))), lambda a, b: True),
}


@pytest.mark.parametrize("op", sorted(_SHARED_OPERATIONS))
def test_shared_operations_agree_on_both_entry_types(op):
    on_int, on_fractions = _SHARED_OPERATIONS[op]
    rng = random.Random(800)
    for _ in range(8):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a, b = (IntMatrix(rows, cols, (rng.randint(-5, 5) for _ in range(rows * cols))) for _ in range(2))
        got = on_int(a, b)
        if isinstance(got, IntMatrix):
            assert all(type(x) is int for x in got.data)
            got = got.to_rows()
        assert got == on_fractions(ref.rows(a), ref.rows(b))


def test_matmul_and_transpose():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]



def _dense_echelon(rows, columns=None):
    """Reference: a dense fraction-free echelon with the sparse kernel's rules.

    Columns are eliminated in the order ``columns``; by default, decreasing
    nonzero count in the input, ties by index.  The pivot is the entry of
    smallest magnitude; on a tie, the row with fewer nonzeros, then the first
    in current order; it is swapped into place, and each eliminated row is
    divided by its content.  Works on dense lists.
    """
    work = [list(row) for row in rows if any(row)]
    if not work:
        return [], []
    if columns is None:
        counts = [sum(1 for row in work if row[c]) for c in range(len(work[0]))]
        columns = sorted(range(len(counts)), key=lambda c: (-counts[c], c))
    pivots = []
    rank = 0
    for c in columns:
        candidates = [
            (abs(work[i][c]), sum(1 for x in work[i] if x), i) for i in range(rank, len(work)) if work[i][c]
        ]
        if not candidates:
            continue
        piv = min(candidates)[2]
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank][c]
        prow = work[rank]
        for i in range(rank + 1, len(work)):
            v = work[i][c]
            if v:
                g = gcd(p, v)
                pm, vm = p // g, v // g
                new = [pm * x - vm * y for x, y in zip(work[i], prow)]
                cg = 0
                for x in new:
                    if x:
                        cg = gcd(cg, x)
                if cg > 1:
                    new = [x // cg for x in new]
                work[i] = new
        pivots.append(c)
        rank += 1
        if rank == len(work):
            break
    return work[:rank], pivots


def _dense(row, ncols):
    out = [0] * ncols
    for c, x in row.items():
        out[c] = x
    return out


def _assert_echelon_matches_dense(dense_rows, sparse_rows, ncols):
    ref_rows, ref_pivots = _dense_echelon(dense_rows)
    for rows in (sparse_rows, _sparse(dense_rows)):
        before = [dict(r) for r in rows]
        echelon, pivots = _int_echelon(rows)
        assert pivots == ref_pivots
        assert [_dense(r, ncols) for r in echelon] == ref_rows
        # Only nonzero entries are stored, in copies: the input is unchanged.
        assert all(all(echelon_row.values()) for echelon_row in echelon)
        assert rows == before
    assert integer_row_rank(sparse_rows) == len(ref_pivots)
    # Rank does not depend on the column order, so an index-order
    # elimination checks the rank independently of the count order.
    assert len(ref_pivots) == len(_dense_echelon(dense_rows, range(ncols))[1])


def _random_sparse_rows(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in rng.sample(range(ncols), rng.randint(1, min(3, ncols))):
            row[c] = rng.choice((1, -1, 2, -3, 4, rng.randint(-9, 9)))
        rows.append({c: x for c, x in row.items() if x})
    extra = []
    for _ in range(nrows // 3):
        a, b = rng.choice(rows), rng.choice(rows)
        extra.append(dict(a))  # duplicate row
        k = rng.choice((2, 3, -6))
        extra.append({c: k * x for c, x in a.items()})  # content > 1
        # A combination of two rows: cancels exactly to zero in elimination.
        combo = {c: 2 * a.get(c, 0) - 3 * b.get(c, 0) for c in set(a) | set(b)}
        extra.append({c: x for c, x in combo.items() if x})
    rows += extra
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(25))
def test_sparse_echelon_matches_dense_reference(seed):
    rng = random.Random(600 + seed)
    ncols = rng.randint(2, 14)
    rows = _random_sparse_rows(rng, rng.randint(1, 18), ncols)
    dense_rows = [_dense(r, ncols) for r in rows]
    _assert_echelon_matches_dense(dense_rows, rows, ncols)


def _invariant_systems(n):
    """The w2d and commutant rank systems of A_n, with their column counts.

    w2d is the invariant two-form system on the doubled span.
    """
    v = rep_reflection(build_root_datum(RootSystemSpec("A", n)))
    w2d = rep_wedge2(rep_double(v))
    return [(_fixed_point_rows(w2d), w2d.dim), (_commutant_rows(v), v.dim * v.dim)]


def test_sparse_echelon_matches_dense_reference_on_a16_systems():
    for rows, ncols in _invariant_systems(16):
        _assert_echelon_matches_dense([_dense(r, ncols) for r in rows], rows, ncols)


def _permuted_systems(rng, rows, ncols, count):
    """``count`` copies of ``rows`` with shuffled rows and relabelled columns."""
    for _ in range(count):
        relabel = rng.sample(range(ncols), ncols)
        permuted = [{relabel[c]: x for c, x in row.items()} for row in rows]
        rng.shuffle(permuted)
        yield permuted


@pytest.mark.parametrize("seed", range(25))
def test_rank_is_invariant_under_row_and_column_permutations(seed):
    rng = random.Random(600 + seed)
    ncols = rng.randint(2, 14)
    rows = _random_sparse_rows(rng, rng.randint(1, 18), ncols)
    rank = integer_row_rank(rows)
    for permuted in _permuted_systems(rng, rows, ncols, 6):
        assert integer_row_rank(permuted) == rank


def test_rank_is_invariant_under_permutations_on_a16_systems():
    rng = random.Random(2816)
    for (rows, ncols), rank in zip(_invariant_systems(16), (495, 255)):
        assert integer_row_rank(rows) == rank
        for permuted in _permuted_systems(rng, rows, ncols, 3):
            assert integer_row_rank(permuted) == rank


def test_echelon_of_a24_w2d_keeps_fill_in_low(monkeypatch):
    # Deterministic, with no timing.  Every row operation of the kernel calls
    # gcd twice: once for the multipliers and once for the content.
    calls = []
    monkeypatch.setattr(exact_linalg, "gcd", lambda *args: calls.append(None) or gcd(*args))
    rows, ncols = _invariant_systems(24)[0]
    echelon, pivots = _int_echelon(rows)
    assert len(pivots) == ncols - 1
    # Index order with the old pivot rule: 3,490 nonzeros, entries up to
    # 1,430, 38,203 row operations.  Index order with the row-length
    # tiebreak: 34,060 row operations; count order without it: 29,193.  The
    # count order with the tiebreak: 2,351 nonzeros, entries up to 476,
    # 9,922 row operations.
    assert sum(map(len, echelon)) <= 2_500
    assert max(abs(x) for row in echelon for x in row.values()) <= 500
    assert 0 < len(calls) // 2 <= 12_000


def test_echelon_empty_and_zero_rows():
    assert _int_echelon([]) == ([], [])
    assert _int_echelon([{0: 0, 1: 0}, {}, {1: 0}]) == ([], [])
    assert _int_echelon([{3: 6, 5: -4}]) == ([{3: 6, 5: -4}], [3])

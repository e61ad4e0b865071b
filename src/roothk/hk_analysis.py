"""Quotient-level analysis for a Weyl group acting on a lattice tensored with
a topological abelian surface.

The abelian surface enters only through its rank-4 integer homology: fixed
loci of a lattice automorphism on (lattice) x (4-torus) are governed by the
kernel and cokernel of (w - 1), which the Smith normal form reads off
exactly.  Resolution verdicts are a cited lookup, not a computation.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .exact_linalg import IntMatrix, smith_normal_form
from .invariant_theory import InvariantReport, invariant_report
from .lattice_tower import tower_for_spec
from .root_data import RootSystemSpec, build_root_datum
from .weyl import (
    _ENTRY_BOUND,
    WeylGroup,
    generate_group,
    group_order_formula,
)

# Cost ceiling for analyze's generator-only work, three exact ranks: the
# Sym2, Wedge2 and commutant systems, with rank(rank + 1)/2, rank(rank - 1)/2
# and rank^2 unknowns (A24: 300, 276 and 576 unknowns in 576, 552 and 2,186
# rows).  On a 2-core Xeon, `analyze A 24 --lattice dual` takes about 0.10 s,
# interpreter start included; through the API with the ceiling lifted, A32,
# A48 and A64 take 0.10, 0.16 and 0.26 s (medians of eight fresh processes).
GENERATOR_ONLY_MAX_RANK = 24

# Bounds on the brute-force grid (2n int64 words a point) and on the freeness
# pass's trace blocks, 8,192 elements of V wide.  Only U's first block takes
# the n^2-wide product; every later block is its walk parent's traces plus a
# rank-n update, and a parent is held only until its last child.  A tile of
# blocks and the parents held beside it stay within 2^18 int16 traces where
# one block allows: W(E7)'s 1512 * 1920 traces are 56 blocks of 27 rows,
# counted two at a time beside at most 3 held; W(E8)'s 13,440 * 51,840 are
# 240 blocks of 56 rows in seven column blocks of V, at most 8 held (7.3 MB).
# An untiled trace array would be 5.8 MB for W(E7) and 1.4 GB for W(E8).
_GRID_MAX_POINTS = 1 << 16
_FREENESS_TILE = 1 << 18
_FREENESS_COLUMNS = 8192


# --- fixed loci on the torus model ---------------------------------------------


class FixedLocusEntry(NamedTuple):
    """Structure of the fixed locus of one group element on lattice x 4-torus.

    ``fix_dim`` is the complex fixed-space dimension on the rational span;
    the doubled codimension is twice the complementary rank.  Component data
    comes from the torsion of coker(w - 1): each invariant factor appears once
    per homology generator of the surface, i.e. four times.
    """

    fix_dim: int
    codim_doubled: int
    component_invariant_factors: tuple[int, ...]
    component_count: int


def fixed_locus_on_abelian(w: IntMatrix) -> FixedLocusEntry:
    """Fixed-locus data of a lattice automorphism acting on lattice x 4-torus.

    The fixed subgroup of the real torus is a subtorus of dimension
    4 * dim ker(w - 1) times a finite group isomorphic to the 4th power of the
    torsion of coker(w - 1).
    """
    if w.rows != w.cols:
        raise ValueError("automorphism matrix must be square")
    n = w.rows
    diff = w - IntMatrix.identity(n)
    sf = smith_normal_form(diff)
    fix_dim = sf.kernel_rank
    torsion = sf.torsion_factors
    component_factors = tuple(sorted(torsion * 4))
    count = 1
    for d in component_factors:
        count *= d
    return FixedLocusEntry(
        fix_dim=fix_dim,
        codim_doubled=2 * (n - fix_dim),
        component_invariant_factors=component_factors,
        component_count=count,
    )


def brute_force_fixed_point_count(w: IntMatrix, denominator: int) -> int:
    """Count (1/d)Z-points of the 4n-torus fixed by w x id4, d = denominator.

    The system ((w - 1) (x) id4) x = 0 mod 1 is four copies of (w - 1), so the
    count is K^4, K = #{x in (Z/d)^n : (w - 1) x = 0 mod d}, by enumerating
    the d^n grid.  If det(w - 1) != 0 divides d this is every fixed point; if
    every torsion factor of coker(w - 1) divides d it is d^(4 fix_dim) times
    the component count.
    """
    import numpy as np

    n = w.rows
    d = int(denominator)
    if d <= 0:
        raise ValueError("denominator must be positive")
    if d**n > _GRID_MAX_POINTS:
        raise ValueError("grid too large to enumerate")
    diff = np.array((w - IntMatrix.identity(n)).to_rows(), dtype=np.int64) % d
    grid = np.indices((d,) * n, dtype=np.int64).reshape(n, -1)
    return int(np.count_nonzero((diff @ grid % d == 0).all(axis=0))) ** 4


# --- freeness in codimension two ------------------------------------------------


class FreenessCheck(NamedTuple):
    """Codimension-two freeness: ``verified`` means the pass saw ``elements``
    elements (the group order), one identity and one reflection per positive
    root (``reflections``), so min_codim_doubled = 2."""

    status: str  # "verified" or "skipped"
    min_codim_doubled: int | None = None
    reason: str = ""
    reflections: int | None = None
    elements: int | None = None


def freeness_codim_check(group: WeylGroup) -> FreenessCheck:
    """Minimum fixed-space codimension 2 * rank(w - 1) over all w != 1.

    Elements have finite order, so trace n means w = 1, and trace n - 2 with
    w^2 = 1 means rank(w - 1) = 1 (and conversely).  One pass counts
    elements, identities and reflections, and raises AssertionError unless it
    sees the group order, one identity and one reflection per positive root,
    then the character sums of the reflection representation, which is
    irreducible and nontrivial: sum tr(w) = 0 and sum tr(w)^2 = |W|.  As
    w != 1 forces rank >= 1, the minimum is then 2, on every lattice of the
    tower (conjugates have equal ranks).

    The pass reads W as every product u * v of an element u of U and an
    element v of V, the two halves of ``group``, of about sqrt(|W|) elements
    each, in blocks of ``_FREENESS_COLUMNS`` elements of V.  As
    tr(u v) = <vec(u^T), vec(v)>, the traces of U's first block (see
    :class:`WeylGroup`) are one integer product.  Every later block of U's
    outermost walk (``group.walk``) must differ from its parent block in the
    stepped row i alone, which the pass asserts; then tr(u' v) = tr(u v) +
    (row i of u' - row i of u) . (column i of v), n multiply-adds a trace.  Only the pairs of trace n - 2 are multiplied out.
    """
    import numpy as np

    n = group.rank
    u, v = group.halves
    # Entries of u and v lie in [-6, 6] (the walk asserted it on every row),
    # so a trace is a sum of n^2 products of absolute value at most 36, which
    # int16 holds exactly up to n = 8.  So |tr| < 2^15 and tr^2 < 2^30: the
    # squares are exact in int32.
    if n * n * _ENTRY_BOUND**2 >= 1 << 15:
        raise AssertionError(f"traces of rank {n} could overflow the int16 accumulator")
    blocks = u.reshape(len(group.walk) + 1, -1, n, n)
    rows = len(blocks[0])
    parents, stepped = np.array(group.walk, dtype=np.intp).reshape(-1, 2).T
    # Block j + 1 against its parent: rows that differ must be the stepped row.
    steps = np.arange(len(parents))
    child, base = blocks[1:], blocks[parents]
    moved = (child != base).any(axis=(1, 3)) & (np.arange(n) != stepped[:, None])
    if moved.any():
        j = int(np.flatnonzero(moved.any(axis=1))[0])
        raise AssertionError(f"block {j + 1} of U differs from its parent block {parents[j]} outside row {stepped[j]}")
    # Row i of each block minus row i of its parent, (steps, rows, n) int16.
    shifts = child[steps, :, stepped].astype(np.int16) - base[steps, :, stepped]
    last_child = {parent: j for j, (parent, _) in enumerate(group.walk, 1)}
    first_t = blocks[0].transpose(0, 2, 1).reshape(rows, n * n).astype(np.int16)
    ident = np.eye(n, dtype=np.int32)
    width = min(v.shape[0], _FREENESS_COLUMNS)
    height = _FREENESS_TILE // width
    # Blocks of U counted together: with the most parents ever held, at most
    # one tile of traces, or else one block.
    held_at_most = max(sum(p <= j < c for p, c in last_child.items()) for j in range(len(blocks)))
    per_tile = max(1, height // rows - held_at_most)
    elements = identities = reflections = trace_sum = trace_square_sum = 0
    for lo in range(0, v.shape[0], width):
        block = v[lo : lo + width]
        # Element-last and C-contiguous: with the transposed strides that a
        # plain astype keeps, einsum runs about four times slower.
        v_t = block.reshape(-1, n * n).T.astype(np.int16, order="C")
        # columns[i] is column i of every element of the block, (n, width).
        columns = v_t.reshape(n, n, -1).swapaxes(0, 1)
        held = {}
        for first in range(0, len(blocks), per_tile):
            stop = min(first + per_tile, len(blocks))
            traces = np.empty((stop - first, rows, len(block)), dtype=np.int16)
            if first == 0:
                np.einsum("ux,xk->uk", first_t, v_t, out=traces[0])
            # Every later block: shift . column i, plus its parent's traces.
            derived = slice(max(first, 1) - 1, stop - 1)  # their steps
            np.einsum("juc,jck->juk", shifts[derived], columns[stepped[derived]], out=traces[derived.start + 1 - first :])
            for j, out in enumerate(traces, first):
                if j:
                    parent = group.walk[j - 1][0]
                    out += held[parent]
                    if last_child[parent] == j:
                        del held[parent]
                if j in last_child:
                    held[j] = out.copy()  # a view would keep the whole tile alive
            elements += traces.size
            identities += int(np.count_nonzero(traces == n))
            ui, vi = np.divmod(np.flatnonzero(traces == n - 2), len(block))
            w = u[first * rows + ui].astype(np.int32) @ block[vi]  # int8 entries; products fit int32
            reflections += int(np.count_nonzero((w @ w == ident).all(axis=(1, 2))))
            trace_sum += int(traces.sum(dtype=np.int64))
            trace_square_sum += int(np.square(traces, dtype=np.int32).sum(dtype=np.int64))
    if elements != group.order:
        raise AssertionError(f"the pass saw {elements} elements, expected order {group.order}")
    if identities != 1:
        raise AssertionError(f"identity appeared {identities} times in the element set")
    positive_roots = group.datum.spec.root_count // 2
    if reflections != positive_roots:
        raise AssertionError(f"found {reflections} reflections, expected {positive_roots} positive roots")
    if trace_sum != 0 or trace_square_sum != group.order:
        raise AssertionError(
            f"character sums {trace_sum} and {trace_square_sum}, expected 0 and {group.order}"
        )
    return FreenessCheck(status="verified", min_codim_doubled=2, reflections=reflections, elements=elements)


# --- verdict assembly -----------------------------------------------------------


class ResolutionVerdict(Enum):
    RESOLVABLE = "resolvable"
    NOT_RESOLVABLE = "not-resolvable"
    OUT_OF_SCOPE = "out-of-scope"


RESOLUTION_CITATION = (
    "classification of symplectic resolutions of Weyl-group quotient "
    "singularities: Kuznetsov 2007 (quiver varieties); Ginzburg-Kaledin 2004 "
    "(Poisson deformations)"
)

# Imported classification, a cited lookup never recomputed here: quotient
# singularities of types A, B, C admit a symplectic resolution; D, E, F, G do
# not.  Type H has no integral root lattice in this toolkit and is out of scope.
RESOLUTION_TABLE = {
    "A": ResolutionVerdict.RESOLVABLE,
    "B": ResolutionVerdict.RESOLVABLE,
    "C": ResolutionVerdict.RESOLVABLE,
    "D": ResolutionVerdict.NOT_RESOLVABLE,
    "E": ResolutionVerdict.NOT_RESOLVABLE,
    "F": ResolutionVerdict.NOT_RESOLVABLE,
    "G": ResolutionVerdict.NOT_RESOLVABLE,
    "H": ResolutionVerdict.OUT_OF_SCOPE,
}


def known_model(spec: RootSystemSpec, lattice_label: str) -> str | None:
    """Identification tag for the quotients with an established birational model.

    Type A with the full dual (weight) lattice gives a generalized Kummer
    variety; type B with the standard cubical lattice gives a symmetric power
    of the Kummer surface, a deformation of a Hilbert scheme of a K3 surface.
    Tags are identifications only; nothing geometric is computed.
    """
    n = spec.rank
    if spec.family == "A" and lattice_label == f"A{n}*":
        return f"generalized Kummer K_{n}(A) (birational)"
    if spec.family == "B" and lattice_label in (f"B{n}", f"Z^{n}"):
        return f"Sym^{n}(Kummer surface of A), Hilb^{n}(K3) deformation type (birational)"
    return None


class HKVerdict(NamedTuple):
    """Assembled report for one (group, lattice) pair; ``invariants`` is the
    datum's :func:`invariant_report`, irreducibility and two-forms included."""

    lattice_label: str
    invariants: InvariantReport
    freeness: FreenessCheck
    resolution: ResolutionVerdict
    known_model: str | None


def _select_lattice_label(spec: RootSystemSpec, selector: str) -> str:
    if selector == "root":
        return spec.label
    if selector == "dual":
        return f"{spec.label}*"
    if selector.startswith("index:"):
        try:
            k = int(selector.removeprefix("index:"))
        except ValueError:
            pass
        else:
            report = tower_for_spec(spec)
            if not 0 <= k < len(report.lattices):
                raise ValueError(
                    f"tower of {spec.label} has {len(report.lattices)} lattices; index {k} is out of range"
                )
            return report.lattices[k].label
    raise ValueError(f"unknown lattice selector {selector!r}; use root, dual, or index:k")


def analyze(spec: RootSystemSpec, lattice_selector: str, cap: int) -> HKVerdict:
    """Run the full verdict pipeline for one spec and lattice selection.

    Within the cap, the freeness pass reads W as the two halves of
    :func:`generate_group`; beyond it, freeness reports skipped.  Every
    other field is generator-only and always computed.  Ranks
    above ``GENERATOR_ONLY_MAX_RANK`` raise ValueError before any work.
    """
    if spec.rank > GENERATOR_ONLY_MAX_RANK:
        raise ValueError(
            f"{spec.label} is over the generator-only cost ceiling: rank {spec.rank} > "
            f"GENERATOR_ONLY_MAX_RANK = {GENERATOR_ONLY_MAX_RANK}"
        )
    datum = build_root_datum(spec)
    lattice_label = _select_lattice_label(spec, lattice_selector)

    invariants = invariant_report(datum)

    order = group_order_formula(spec)
    if order > cap:
        freeness = FreenessCheck(status="skipped", reason=f"order {order} exceeds cap {cap}")
    else:
        freeness = freeness_codim_check(generate_group(datum))

    return HKVerdict(
        lattice_label=lattice_label,
        invariants=invariants,
        freeness=freeness,
        resolution=RESOLUTION_TABLE[spec.family],
        known_model=known_model(spec, lattice_label),
    )

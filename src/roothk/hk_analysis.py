"""Quotient-level analysis for a Weyl group acting on a lattice tensored with
a topological abelian surface.

The abelian surface enters only through its rank-4 integer homology: fixed
loci of a lattice automorphism on (lattice) x (4-torus) are governed by the
kernel and cokernel of (w - 1), which the Smith normal form reads off
exactly.  Resolution verdicts are a cited lookup, not a computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import GroupTooLargeError
from .exact_linalg import IntMatrix, smith_normal_form
from .invariant_theory import (
    Representation,
    invariant_dim,
    irreducibility_check,
    rep_double,
    rep_reflection,
    rep_wedge2,
)
from .lattice_tower import bc_tower, invariant_intermediate_lattices
from .root_data import RootDatum, RootSystemSpec, build_root_datum
from .weyl import GroupCap, WeylGroup, generate_group, group_order_formula

_MINOR_CHUNK = 20_000

# Cost ceiling for analyze, whose generator-only work grows a little faster
# than rank^4: the invariant two-form system on the doubled span has
# rank(2 rank - 1) unknowns.  `analyze A 24` takes about 7 s and 310 MB on one
# core of a 2-core Xeon, `analyze A 28` about twice both.
GENERATOR_ONLY_MAX_RANK = 24

# One-slot cache for the brute-force grid: consecutive oracle calls for the
# elements of one group share the same denominator and dimension.
_GRID_CACHE: dict = {}


def _digit_grid(d: int, dim: int) -> np.ndarray:
    key = (d, dim)
    if key not in _GRID_CACHE:
        _GRID_CACHE.clear()
        _GRID_CACHE[key] = np.indices((d,) * dim, dtype=np.int8).reshape(dim, -1).T
    return _GRID_CACHE[key]


# --- fixed loci on the torus model ---------------------------------------------


@dataclass(frozen=True)
class FixedLocusEntry:
    """Structure of the fixed locus of one group element on lattice x 4-torus.

    ``fix_dim`` is the complex fixed-space dimension on the rational span;
    the doubled codimension is twice the complementary rank.  Component data
    comes from the torsion of coker(w - 1): each invariant factor appears once
    per homology generator of the surface, i.e. four times.
    """

    element_id: str
    fix_dim: int
    codim_doubled: int
    component_invariant_factors: tuple[int, ...]
    component_count: int


def fixed_locus_on_abelian(w: IntMatrix, element_id: str = "") -> FixedLocusEntry:
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
        element_id=element_id,
        fix_dim=fix_dim,
        codim_doubled=2 * (n - fix_dim),
        component_invariant_factors=component_factors,
        component_count=count,
    )


def brute_force_fixed_point_count(w: IntMatrix, denominator: int) -> int:
    """Count torus points with coordinates in (1/denominator)Z fixed by w x id4.

    Pure grid enumeration on the 4n-dimensional torus: a point x is counted
    iff ((w - 1) (x) id4) x = 0 modulo 1.  When det(w - 1) is nonzero and
    divides ``denominator``, every fixed point lies on this grid, so the count
    is the full number of fixed points.  The grid is filtered one congruence
    at a time (each row of the system touches few coordinates), all in exact
    bounded-integer arithmetic.
    """
    n = w.rows
    d = int(denominator)
    if d <= 0:
        raise ValueError("denominator must be positive")
    diff = w - IntMatrix.identity(n)
    m4 = np.kron(np.array(diff.to_rows(), dtype=np.int64), np.eye(4, dtype=np.int64))
    dim = 4 * n
    total = d**dim
    if total > (1 << 28):
        raise ValueError("grid too large to enumerate")
    survivors = _digit_grid(d, dim)
    for r in range(dim):
        row = [(j, int(m4[r, j]) % d) for j in range(dim) if m4[r, j] % d]
        if not row:
            continue
        res = np.zeros(survivors.shape[0], dtype=np.int64)
        for j, coeff in row:
            res += survivors[:, j].astype(np.int64) * coeff
        survivors = survivors[res % d == 0]
        if survivors.shape[0] == 0:
            return 0
    return int(survivors.shape[0])


# --- freeness in codimension two ------------------------------------------------


@dataclass(frozen=True)
class FreenessCheck:
    """Result of the exhaustive fixed-space codimension scan."""

    status: str  # "verified" or "skipped"
    min_codim_doubled: int | None = None
    reason: str = ""

    @property
    def verified_at_least_two(self) -> bool:
        return self.status == "verified" and self.min_codim_doubled is not None and self.min_codim_doubled >= 2


def _rank_le_mask(diffs: np.ndarray, r: int) -> np.ndarray:
    """Boolean mask of elements whose (w - 1) has rank <= r, via vanishing of
    all (r+1) x (r+1) minors.  Exact int64 arithmetic on bounded entries."""
    m, n, _ = diffs.shape
    k = r + 1
    if k > n:
        return np.ones(m, dtype=bool)
    mask = np.ones(m, dtype=bool)
    row_sets = list(combinations(range(n), k))
    col_sets = list(combinations(range(n), k))
    for rows in row_sets:
        sub_rows = diffs[:, rows, :]
        for cols in col_sets:
            sub = sub_rows[:, :, cols]
            dets = _batch_det(sub)
            mask &= dets == 0
            if not mask.any():
                return mask
    return mask


def _batch_det(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a batch of k x k int64 matrices, k <= 4 by cofactors,
    larger k by exact per-matrix elimination (never reached for Weyl groups)."""
    k = mats.shape[1]
    if k == 1:
        return mats[:, 0, 0]
    if k == 2:
        return mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    if k == 3:
        a = mats
        return (
            a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
            - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
            + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0])
        )
    if k == 4:
        total = np.zeros(mats.shape[0], dtype=np.int64)
        sign = 1
        for j in range(4):
            cols = [c for c in range(4) if c != j]
            minor = mats[:, 1:, :][:, :, cols]
            total += sign * mats[:, 0, j] * _batch_det(minor)
            sign = -sign
        return total
    out = np.empty(mats.shape[0], dtype=np.int64)
    for i in range(mats.shape[0]):
        out[i] = IntMatrix.from_rows([[int(x) for x in row] for row in mats[i]]).det()
    return out


def freeness_codim_check(group: WeylGroup, cap: GroupCap | None = None) -> FreenessCheck:
    """Minimum fixed-space codimension on the doubled space over all w != 1.

    Exhaustive over the enumerated group: the minimum of 2 * rank(w - 1) is
    located by a minors ladder (rank <= r iff all (r+1)-minors vanish).  The
    codimensions do not depend on which finite-index lattice in the tower the
    group acts on (conjugate matrices have equal ranks).  For groups beyond the
    cap the check reports skipped rather than certifying a universal claim from
    generators.
    """
    cap = cap if cap is not None else GroupCap()
    if group.elements is None or group.order > cap.max_elements:
        return FreenessCheck(
            status="skipped",
            reason=f"order {group.order} exceeds cap {cap.max_elements}"
            if group.order > cap.max_elements
            else "group not exhaustively enumerated",
        )
    n = group.rank
    ident = np.eye(n, dtype=np.int64)
    min_rank = n
    found = False
    nonid_total = 0
    for lo in range(0, group.order, _MINOR_CHUNK):
        diffs = group.elements[lo : lo + _MINOR_CHUNK].astype(np.int64) - ident
        nonid = diffs.any(axis=(1, 2))
        nonid_total += int(nonid.sum())
        if found and min_rank == 1:
            continue  # rank 1 is the floor for non-identity elements
        for r in range(1, min_rank + 1):
            candidates = _rank_le_mask(diffs, r) & nonid
            if candidates.any():
                min_rank = min(min_rank, r)
                found = True
                break
    if nonid_total != group.order - 1:
        raise AssertionError("identity appeared more than once in the element set")
    if not found:
        raise AssertionError("no non-identity elements found")
    return FreenessCheck(status="verified", min_codim_doubled=2 * min_rank)


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


def resolution_verdict(family: str) -> ResolutionVerdict:
    """Imported classification: quotient singularities of types A, B, C admit a
    symplectic resolution; D, E, F, G do not.

    This is a cited lookup (see RESOLUTION_CITATION), never recomputed here.
    Type H has no integral root lattice in this toolkit and is out of scope.
    """
    if family not in RESOLUTION_TABLE:
        raise ValueError(f"unknown family {family!r}")
    return RESOLUTION_TABLE[family]


def symplectic_form_dim(datum_or_rep: RootDatum | Representation) -> int:
    """Dimension of the invariant two-form space on the doubled lattice span.

    For an irreducible lattice representation this is 1: the unique invariant
    symmetric form pairs the two copies.
    """
    if isinstance(datum_or_rep, Representation):
        base = datum_or_rep
    else:
        base = rep_reflection(datum_or_rep)
    return invariant_dim(rep_wedge2(rep_double(base)))


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


@dataclass(frozen=True)
class HKVerdict:
    """Assembled report for one (group, lattice) pair."""

    spec: RootSystemSpec
    lattice_label: str
    irreducible: bool
    symplectic_form_dim: int
    freeness: FreenessCheck
    resolution: ResolutionVerdict
    known_model: str | None

    @property
    def passed(self) -> bool:
        form_ok = self.symplectic_form_dim == 1 if self.irreducible else True
        free_ok = self.freeness.status == "skipped" or self.freeness.verified_at_least_two
        return self.irreducible and form_ok and free_ok


def _select_lattice_label(spec: RootSystemSpec, selector: str) -> str:
    if selector == "root":
        return spec.label
    if selector == "dual":
        return f"{spec.label}*"
    if selector.startswith("index:"):
        k = int(selector.split(":", 1)[1])
        if spec.family in ("B", "C"):
            report = bc_tower(spec)
        else:
            report = invariant_intermediate_lattices(build_root_datum(spec))
        if not 0 <= k < len(report.lattices):
            raise ValueError(
                f"tower of {spec.label} has {len(report.lattices)} lattices; index {k} is out of range"
            )
        return report.lattices[k].label
    raise ValueError(f"unknown lattice selector {selector!r}; use root, dual, or index:k")


def analyze(
    spec: RootSystemSpec,
    lattice_selector: str = "root",
    cap: GroupCap | None = None,
    group: WeylGroup | None = None,
) -> HKVerdict:
    """Run the full verdict pipeline for one spec and lattice selection.

    Group enumeration failures only downgrade the freeness field to skipped;
    every other field is generator-only and always computed.  A pre-generated
    ``group`` may be supplied to share enumerations across calls.  Ranks above
    ``GENERATOR_ONLY_MAX_RANK`` raise ValueError before any work.
    """
    if spec.rank > GENERATOR_ONLY_MAX_RANK:
        raise ValueError(
            f"{spec.label} is over the generator-only cost ceiling: rank {spec.rank} > "
            f"GENERATOR_ONLY_MAX_RANK = {GENERATOR_ONLY_MAX_RANK}"
        )
    cap = cap if cap is not None else GroupCap()
    datum = build_root_datum(spec)
    lattice_label = _select_lattice_label(spec, lattice_selector)

    base = rep_reflection(datum)
    irreducible = irreducibility_check(base)
    form_dim = symplectic_form_dim(base)

    if group is not None and group.elements is not None:
        freeness = freeness_codim_check(group, cap=cap)
    else:
        try:
            generated = generate_group(datum, cap)
            freeness = freeness_codim_check(generated, cap=cap)
        except GroupTooLargeError:
            freeness = FreenessCheck(
                status="skipped",
                reason=f"order {group_order_formula(spec)} exceeds cap {cap.max_elements}",
            )

    return HKVerdict(
        spec=spec,
        lattice_label=lattice_label,
        irreducible=irreducible,
        symplectic_form_dim=form_dim,
        freeness=freeness,
        resolution=resolution_verdict(spec.family),
        known_model=known_model(spec, lattice_label),
    )

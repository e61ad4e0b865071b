"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything asserted here is exact; there are no tolerances anywhere.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import subprocess
import sys
from math import factorial

import numpy as np

import _rational as ref
from oracles import all_elements, ambient_matrices, invariant_dim_reynolds
from roothk.exact_linalg import IntMatrix
from roothk.hk_analysis import (
    RESOLUTION_TABLE,
    ResolutionVerdict,
    brute_force_fixed_point_count,
    fixed_locus_on_abelian,
    freeness_codim_check,
)
from roothk.invariant_theory import (
    invariant_dim,
    invariant_report,
    rep_reflection,
)
from roothk.lattice_tower import _isometry_search, tower_for_spec
from roothk.root_data import (
    RootSystemSpec,
    build_root_datum,
    dual_lattice_quotient_check,
    standard_table,
)
from roothk.weyl import element_iter, generate_group, group_order_formula

GROUP_CAP = 5_000_000
REYNOLDS_CAP = 100_000


def _verdict(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:2d} [{name}]: {status}{suffix}")
    assert ok, f"acceptance criterion {criterion} ({name}) failed {suffix}"


def test_criterion_01_lemma_suite():
    failures = []
    for spec in standard_table():
        report = invariant_report(build_root_datum(spec))
        if not (
            report.dim_sym2_inv == 1
            and report.dim_wedge2_inv == 0
            and report.dim_wedge2_doubled_inv == 1
            and report.irreducible
        ):
            failures.append(spec.label)
    _verdict(1, "lemma suite", not failures, f"{len(standard_table())} data" + (f"; failed: {failures}" if failures else ""))


def test_criterion_02_decomposition_identity():
    dims_ok = all(
        n * (2 * n - 1) == 3 * (n * (n - 1) // 2) + n * (n + 1) // 2 for n in range(1, 9)
    )
    invariants_ok = all(invariant_report(build_root_datum(spec)).decomposition_consistent for spec in standard_table())
    _verdict(2, "decomposition identity", dims_ok and invariants_ok, f"ranks 1..8, {len(standard_table())} data")


def test_criterion_03_reynolds_oracle_equivalence(groups, constructions):
    checked = 0
    failures = []
    for spec in standard_table():
        if group_order_formula(spec) > REYNOLDS_CAP:
            continue
        group = groups(spec.family, spec.rank)
        elements = all_elements(group)
        for chain, rep in constructions(rep_reflection(group.datum)):
            if invariant_dim_reynolds(chain, elements) != invariant_dim(rep):
                failures.append((spec.label, chain))
            checked += 1
        # The reported two-form dimension, read from Sym2 and Wedge2 alone.
        doubled = invariant_dim_reynolds(("wedge2", ("double", ("defining",))), elements)
        if invariant_report(group.datum).dim_wedge2_doubled_inv != doubled:
            failures.append((spec.label, "report"))
    _verdict(3, "Reynolds oracle equivalence", not failures and checked > 0, f"{checked} representations")


def test_criterion_04_group_orders(groups):
    failures = []
    count = 0
    for spec in standard_table():
        order = group_order_formula(spec)
        if order > GROUP_CAP:
            continue
        group = groups(spec.family, spec.rank)
        if group.element_count() != order:
            failures.append(spec.label)
        count += 1
    _verdict(4, "group orders by enumeration", not failures and count > 0, f"{count} groups incl. E7")


def test_criterion_05_signed_permutations():
    # W(B_n) in the orthonormal ambient basis: every element a signed
    # permutation matrix (integer rows and columns of absolute sum 1), n!
    # permutations, each with all 2^n sign patterns.
    failures = []
    for n in range(2, 6):
        datum = build_root_datum(RootSystemSpec("B", n))
        ambient = np.abs(ambient_matrices(all_elements(generate_group(datum)), datum.simple_rows))
        perms, signs = np.unique(ambient.argmax(axis=1), axis=0, return_counts=True)
        if not (
            (ambient.sum(axis=1) == 1).all()
            and (ambient.sum(axis=2) == 1).all()
            and len(perms) == factorial(n)
            and set(signs.tolist()) == {2**n}
        ):
            failures.append(n)
    _verdict(5, "signed-permutation structure", not failures, "n = 2..5")


def test_criterion_06_dual_quotient_model():
    failures = [n for n in range(1, 7) if not dual_lattice_quotient_check(n).passed]
    _verdict(6, "dual-lattice quotient model", not failures, "n = 1..6")


def test_criterion_07_sublattice_towers():
    failures = []
    for n in range(1, 9):
        tower = tower_for_spec(RootSystemSpec("A", n))
        divisors = sum(1 for d in range(1, n + 2) if (n + 1) % d == 0)
        if len(tower.lattices) != divisors:
            failures.append(f"A{n}")
    for family in ("B", "C"):
        for n in range(3, 8):
            tower = tower_for_spec(RootSystemSpec(family, n))
            if tower.labels != (f"D{n}", f"Z^{n}", f"D{n}*"):
                failures.append(f"{family}{n}:labels")
                continue
            d_datum = build_root_datum(RootSystemSpec("D", n))
            gram = d_datum.gram
            root_l, middle, dual_l = tower.lattices
            # Root member: its basis rows must span the root lattice, i.e.
            # basis = U @ gram with U unimodular; the inherited form is then
            # the datum Gram in the exhibited basis.
            # Each inherited form, B G^-1 B^T, is recomputed over Fraction.
            root_form, middle_form, dual_form = (
                ref.divided(lat.scaled_gram, lat.gram_denominator) for lat in tower.lattices
            )
            u = ref.matmul(root_l.basis, ref.inverse(gram))
            if not (all(x.denominator == 1 for row in u for x in row) and abs(ref.det(u)) == 1):
                failures.append(f"{family}{n}:root-gram")
            elif root_form != ref.matmul(ref.matmul(u, gram), ref.transpose(u)):
                failures.append(f"{family}{n}:root-gram")
            # Middle member: a unimodular integral form isometric to the cube.
            if not (
                all(x.denominator == 1 for row in middle_form for x in row)
                and ref.det(middle_form) == 1
                and _isometry_search(
                    IntMatrix.from_rows([[x.numerator for x in row] for row in middle_form]), IntMatrix.identity(n)
                )
                is True
            ):
                failures.append(f"{family}{n}:middle-gram")
            # Dual member: the full preimage is the whole dual lattice, whose
            # canonical basis is the identity, so the Gram is exactly the
            # inverse of the datum Gram.
            if dual_form != ref.inverse(gram):
                failures.append(f"{family}{n}:dual-gram")
    _verdict(7, "sublattice towers", not failures, str(failures) if failures else "A1..A8, B/C 3..7")


def test_criterion_08_freeness_min_codim(groups):
    failures = []
    count = 0
    for spec in standard_table():
        if group_order_formula(spec) > GROUP_CAP:
            continue
        check = freeness_codim_check(groups(spec.family, spec.rank))
        if check.status != "verified" or check.min_codim_doubled != 2:
            failures.append(spec.label)
        count += 1
    _verdict(8, "freeness min codim = 2", not failures and count > 0, f"{count} groups")


def test_criterion_09_fixed_locus_oracle(groups):
    failures = []
    compared = 0
    for family, rank in (("A", 1), ("A", 2), ("B", 2), ("A", 3)):
        group = groups(family, rank)
        for w in element_iter(group):
            det = (w - IntMatrix.identity(rank)).det()
            if det == 0 or abs(det) > 8:
                continue
            entry = fixed_locus_on_abelian(w)
            if brute_force_fixed_point_count(w, abs(det)) != entry.component_count:
                failures.append((family, rank))
            compared += 1
    _verdict(9, "fixed-locus oracle", not failures and compared > 0, f"{compared} elements")


def test_criterion_10_resolution_table():
    ok = (
        all(RESOLUTION_TABLE[f] is ResolutionVerdict.RESOLVABLE for f in "ABC")
        and all(RESOLUTION_TABLE[f] is ResolutionVerdict.NOT_RESOLVABLE for f in "DEFG")
    )
    _verdict(10, "resolution verdict table", ok, "A,B,C resolvable; D,E,F,G not")


def test_criterion_11_cli_report_determinism():
    cmd = [sys.executable, "-m", "roothk.cli", "report", "--suite", "default"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    detail = f"exit codes {first.returncode}/{second.returncode}, {len(first.stdout)} bytes"
    if ok:
        doc = json.loads(first.stdout)
        ok = all(c["status"] in ("pass", "skipped") for c in doc["checks"])
        detail += f", {len(doc['checks'])} checks"
    _verdict(11, "CLI report determinism", ok, detail)

import re
import tracemalloc

import numpy as np
import pytest

from roothk import hk_analysis, weyl
import oracles
from roothk.exact_linalg import IntMatrix, integer_row_rank
from roothk.hk_analysis import (
    RESOLUTION_TABLE,
    FreenessCheck,
    ResolutionVerdict,
    analyze,
    brute_force_fixed_point_count,
    fixed_locus_on_abelian,
    freeness_codim_check,
    known_model,
)
from roothk.invariant_theory import invariant_report
from roothk.root_data import RootSystemSpec, build_root_datum, simple_reflections, standard_table
from roothk.weyl import WeylGroup, element_iter


def test_fixed_locus_identity():
    entry = fixed_locus_on_abelian(IntMatrix.identity(3))
    assert entry.fix_dim == 3
    assert entry.codim_doubled == 0
    assert entry.component_count == 1
    assert entry.component_invariant_factors == ()


def test_fixed_locus_negation_rank1():
    # w = -1 on a rank-1 lattice: coker(-2) = Z/2, so 2^4 = 16 components,
    # the 2-torsion of the surface.
    entry = fixed_locus_on_abelian(IntMatrix.from_rows([[-1]]))
    assert entry.fix_dim == 0
    assert entry.codim_doubled == 2
    assert entry.component_invariant_factors == (2, 2, 2, 2)
    assert entry.component_count == 16


def test_fixed_locus_a2_coxeter(groups):
    s1, s2 = simple_reflections(groups("A", 2).datum)
    cox = s1 @ s2
    diff = cox - IntMatrix.identity(2)
    assert abs(diff.det()) == 3
    entry = fixed_locus_on_abelian(cox)
    assert entry.fix_dim == 0
    assert entry.component_count == 81


def test_brute_force_matches_formula_a1():
    w = IntMatrix.from_rows([[-1]])
    assert brute_force_fixed_point_count(w, 2) == 16
    assert fixed_locus_on_abelian(w).component_count == 16


def test_brute_force_matches_formula_a2_coxeter(groups):
    s1, s2 = simple_reflections(groups("A", 2).datum)
    cox = s1 @ s2
    assert brute_force_fixed_point_count(cox, 3) == 81


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_brute_force_oracle_small_groups(family, rank, groups):
    group = groups(family, rank)
    for w in element_iter(group):
        det = (w - IntMatrix.identity(rank)).det()
        if det == 0 or abs(det) > 8:
            continue
        entry = fixed_locus_on_abelian(w)
        assert entry.component_count == abs(det) ** 4
        assert brute_force_fixed_point_count(w, abs(det)) == entry.component_count


def test_brute_force_fixed_dim_half(groups):
    # Every element, singular det(w - 1) included: each component factor
    # divides 12, so at d = 12 and d = 24 the grid count is d^(4 fix_dim)
    # times the component count.
    singular = 0
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]:
        for w in element_iter(groups(family, rank)):
            entry = fixed_locus_on_abelian(w)
            assert all(12 % t == 0 for t in entry.component_invariant_factors)
            singular += entry.fix_dim > 0
            for d in (12, 24):
                expected = d ** (4 * entry.fix_dim) * entry.component_count
                assert brute_force_fixed_point_count(w, d) == expected
    assert singular == 101


def test_brute_force_rejects_oversized_grid_before_allocating():
    # 2^17 points would fit in memory, so only the guard can raise here.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="grid too large"):
            brute_force_fixed_point_count(IntMatrix.identity(17), 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def _rank(m):
    # integer_row_rank of a matrix, as {col: value} rows.
    return integer_row_rank(dict(enumerate(row)) for row in m)


def test_codim_doubles_rank_on_each_element(groups):
    # The doubled fixed-space codimension is twice the rank of (w - 1): the
    # doubled action is two independent copies of the same lattice action.
    group = groups("B", 2)
    for w in element_iter(group):
        diff = w - IntMatrix.identity(2)
        doubled = IntMatrix.from_rows(
            [list(diff.row(i)) + [0, 0] for i in range(2)]
            + [[0, 0] + list(diff.row(i)) for i in range(2)]
        )
        assert _rank(doubled) == 2 * _rank(diff)
        assert fixed_locus_on_abelian(w).codim_doubled == 2 * _rank(diff)


@pytest.mark.parametrize(
    "family,rank,expected_min",
    [("A", 1, 2), ("A", 2, 2), ("B", 2, 2), ("A", 3, 2), ("D", 4, 2), ("F", 4, 2)],
)
def test_freeness_min_codim_is_two(family, rank, expected_min, groups):
    group = groups(family, rank)
    check = freeness_codim_check(group)
    assert check.status == "verified"
    assert check.min_codim_doubled == expected_min
    datum = group.datum
    assert check.reflections == len(oracles.ambient_roots(datum.simple_rows, datum.denominator)) // 2
    assert check.elements == group.order


def _stored(group):
    """The same group held as the identity and every element, the way a
    group whose whole element array is stored would be read."""
    eye = np.eye(group.rank, dtype=np.int8)[None]
    return WeylGroup(group.datum, group.order, (eye, oracles.all_elements(group)), [])


@pytest.mark.parametrize("family,rank", [("A", 1), ("G", 2), ("B", 3), ("D", 4), ("F", 4), ("E", 6)])
def test_streamed_freeness_matches_stored(family, rank, groups):
    group = groups(family, rank)
    streamed = freeness_codim_check(group)
    expected = freeness_codim_check(_stored(group))
    assert streamed.status == expected.status == "verified"
    assert (streamed.elements, streamed.reflections) == (expected.elements, expected.reflections)



@pytest.mark.parametrize("stored", [False, True], ids=["streamed", "stored"])
def test_freeness_blocks_split_chunks(monkeypatch, groups, stored):
    # Blocks of 5 elements split the 24 elements of W(D4)'s second half,
    # and the 192 of the stored group, into several blocks, the last one
    # short; the counts and character sums must not notice.
    monkeypatch.setattr(hk_analysis, "_FREENESS_COLUMNS", 5)
    group = groups("D", 4)
    check = freeness_codim_check(_stored(group) if stored else group)
    assert (check.status, check.elements, check.reflections) == ("verified", 192, 12)


@pytest.mark.parametrize("family,rank", [("B", 3), ("F", 4)])
def test_freeness_ragged_tiles_match(monkeypatch, family, rank):
    # Tiles of 7 rows by 5 columns leave a short last tile both ways: W(B3)
    # is 8 * 6 and W(F4) is 24 * 48.
    group = weyl.generate_group(build_root_datum(RootSystemSpec(family, rank)))
    expected = freeness_codim_check(group)
    monkeypatch.setattr(hk_analysis, "_FREENESS_COLUMNS", 5)
    monkeypatch.setattr(hk_analysis, "_FREENESS_TILE", 35)
    assert freeness_codim_check(group) == expected


def _b3_with_overwrite(groups, source_is_reflection, replacement):
    """Stored W(B3) with the first (non-)reflection of its second half
    overwritten."""
    group = _stored(groups("B", 3))
    eye, elements = group.halves
    for i, w in enumerate(element_iter(group)):
        is_reflection = fixed_locus_on_abelian(w).codim_doubled == 2
        if i > 0 and is_reflection == source_is_reflection:
            elements[i] = replacement
            break
    return WeylGroup(group.datum, group.order, (eye, elements), [])


def test_freeness_rejects_extra_reflection(groups):
    reflection = simple_reflections(groups("B", 3).datum)[0].to_rows()
    mutated = _b3_with_overwrite(groups, False, reflection)
    with pytest.raises(AssertionError, match="found 10 reflections"):
        freeness_codim_check(mutated)


def test_freeness_rejects_second_identity(groups):
    mutated = _b3_with_overwrite(groups, True, IntMatrix.identity(3).to_rows())
    with pytest.raises(AssertionError, match="identity appeared 2 times"):
        freeness_codim_check(mutated)


def test_freeness_rejects_missing_element(groups):
    # Dropping the longest element (-1, neither identity nor reflection) from
    # the second half of the stored group leaves only the element count to
    # notice.
    group = _stored(groups("B", 3))
    eye, elements = group.halves
    truncated = WeylGroup(group.datum, group.order, (eye, elements[:-1]), [])
    with pytest.raises(AssertionError, match="saw 47 elements"):
        freeness_codim_check(truncated)


def test_freeness_rejects_wrong_character_sums(groups):
    # Overwriting the longest element (-1, trace -3) of the stored group's
    # second half with the rotation s1 s2 (trace 0) keeps the element count,
    # the single identity and the nine reflections; only the character sums
    # notice.
    group = _stored(groups("B", 3))
    eye, elements = group.halves
    assert elements[-1].tolist() == [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    s1, s2, _ = simple_reflections(group.datum)
    elements[-1] = (s1 @ s2).to_rows()
    mutated = WeylGroup(group.datum, group.order, (eye, elements), [])
    with pytest.raises(AssertionError, match="character sums 3 and 39, expected 0 and 48"):
        freeness_codim_check(mutated)


@pytest.mark.parametrize("edit", ["drop", "duplicate"])
def test_freeness_rejects_wrong_coset_representatives(monkeypatch, edit):
    # W(B3) streams as the chain R_1 R_2 R_3 = 6 * 4 * 2, split as U = R_1
    # and V = R_2 R_3: one walk step dropped or duplicated, first in R_1 and
    # then in R_2 alone, leaves only the element count to notice.
    real = weyl._walk
    datum = build_root_datum(RootSystemSpec("B", 3))
    for edited_k, seen in ((2, {"drop": 40, "duplicate": 56}), (1, {"drop": 36, "duplicate": 60})):

        def edited(datum, k, edited_k=edited_k):
            steps = real(datum, k)
            if k != edited_k:
                return steps
            return steps[:-1] if edit == "drop" else steps + steps[-1:]

        monkeypatch.setattr(weyl, "_walk", edited)
        u, v, walk = weyl.coset_halves(datum)
        with pytest.raises(AssertionError, match=f"saw {seen[edit]} elements"):
            freeness_codim_check(WeylGroup(datum, 48, (u, v), walk))


def _first_failure(counts, group):
    """The message of the first check of the pass that counts ``counts``
    (identities, reflections, sum tr, sum tr^2) fail, or None."""
    identities, reflections, trace_sum, trace_square_sum = counts
    if identities != 1:
        return f"identity appeared {identities} times"
    if reflections != group.datum.spec.root_count // 2:
        return f"found {reflections} reflections"
    if (trace_sum, trace_square_sum) != (0, group.order):
        return f"character sums {trace_sum} and {trace_square_sum},"
    return None


@pytest.mark.parametrize(
    "spec", [s for s in standard_table() if weyl.group_order_formula(s) <= 51_840], ids=lambda s: s.label
)
def test_freeness_counts_match_the_product_oracle(spec, groups):
    # The pass reads the traces of all but U's first block from their walk
    # parents; the oracle multiplies every product out.  On the group they
    # agree on the count and the reflections, and the oracle's identities
    # and character sums are the ones the pass asserts.  With row i of U's
    # last block negated (still one row from its parent) the products are
    # no longer W: the pass must fail the first check the oracle's counts
    # fail, printing the oracle's numbers, and pass only where they pass
    # (E6, whose counts and sums happen to survive the edit).
    group = groups(spec.family, spec.rank)
    u, v = group.halves
    check = freeness_codim_check(group)
    assert (check.elements, check.reflections) == (len(oracles.all_elements(group)), spec.root_count // 2)
    assert _first_failure(oracles.trace_counts(u, v), group) is None
    if not group.walk:
        return
    rows = len(u) // (len(group.walk) + 1)
    mutated = u.copy()
    mutated[-rows:, group.walk[-1][1]] *= -1
    counts = oracles.trace_counts(mutated, v)
    message = _first_failure(counts, group)
    edited = WeylGroup(group.datum, group.order, (mutated, v), group.walk)
    if message is None:
        assert freeness_codim_check(edited).reflections == counts[1]
    else:
        with pytest.raises(AssertionError, match=re.escape(message)):
            freeness_codim_check(edited)


@pytest.mark.parametrize("edit", ["entry", "walk"])
@pytest.mark.parametrize("j", [1, 26])
def test_freeness_rejects_a_block_that_differs_outside_its_row(groups, edit, j):
    # W(E6)'s U is 27 blocks of 16 elements; block j is s_i times its parent
    # block.  One entry changed outside row i, or a walk that names another
    # row, breaks the one-row difference the traces of block j are read by.
    group = groups("E", 6)
    u, v = group.halves
    walk = list(group.walk)
    parent, i = walk[j - 1]
    other = (i + 1) % 6
    if edit == "entry":
        u = u.copy()
        u[16 * j, other, 0] += 1
        row = i
    else:
        walk[j - 1] = (parent, other)
        row = other
    with pytest.raises(AssertionError, match=f"block {j} of U differs from its parent block {parent} outside row {row}$"):
        freeness_codim_check(WeylGroup(group.datum, group.order, (u, v), walk))


@pytest.mark.parametrize(
    "bound,message",
    [(1, "group element entries exceeded the root-coordinate bound"), (61, "overflow the int16 accumulator")],
)
def test_freeness_bounds_are_asserted(monkeypatch, bound, message):
    # The halves of W(B3) have entries 2, over a bound of 1, which the walk
    # asserts.  With entries up to 61 a rank-3 trace could reach
    # 9 * 61^2 = 33489 >= 2^15, which the pass asserts.
    monkeypatch.setattr(weyl if bound == 1 else hk_analysis, "_ENTRY_BOUND", bound)
    datum = build_root_datum(RootSystemSpec("B", 3))
    with pytest.raises(AssertionError, match=message):
        freeness_codim_check(weyl.generate_group(datum))


@pytest.fixture
def no_group_building(monkeypatch):
    def build(*args):
        raise AssertionError("generate_group called over the cap")

    monkeypatch.setattr(hk_analysis, "generate_group", build)


def test_freeness_skipped_over_cap(no_group_building):
    # At the default cap analyze skips W(E8) before it builds the group.
    check = analyze(RootSystemSpec("E", 8), "root", weyl.DEFAULT_GROUP_CAP).freeness
    assert check.status == "skipped"
    assert "696729600" in check.reason


def test_freeness_exhaustive_but_over_cap(no_group_building):
    # W(A3) is small, but over a cap of 10 analyze skips freeness before it
    # builds the group.
    check = analyze(RootSystemSpec("A", 3), "root", 10).freeness
    assert check.status == "skipped"
    assert check.reason == "order 24 exceeds cap 10"


def test_resolution_table():
    assert RESOLUTION_TABLE["A"] is ResolutionVerdict.RESOLVABLE
    assert RESOLUTION_TABLE["B"] is ResolutionVerdict.RESOLVABLE
    assert RESOLUTION_TABLE["C"] is ResolutionVerdict.RESOLVABLE
    for fam in "DEFG":
        assert RESOLUTION_TABLE[fam] is ResolutionVerdict.NOT_RESOLVABLE
    assert RESOLUTION_TABLE["H"] is ResolutionVerdict.OUT_OF_SCOPE


def test_symplectic_form_dim_from_datum():
    # analyze reads irreducibility and the two-form dimension from one report.
    for family, rank in (("A", 3), ("F", 4)):
        spec = RootSystemSpec(family, rank)
        invariants = analyze(spec, "root", weyl.DEFAULT_GROUP_CAP).invariants
        assert invariants == invariant_report(build_root_datum(spec))
        assert invariants.dim_wedge2_doubled_inv == 1 and invariants.decomposition_consistent


def test_known_model_tags():
    assert known_model(RootSystemSpec("A", 3), "A3*") == "generalized Kummer K_3(A) (birational)"
    assert known_model(RootSystemSpec("B", 3), "Z^3") is not None
    assert known_model(RootSystemSpec("B", 3), "B3") is not None
    assert known_model(RootSystemSpec("F", 4), "F4") is None
    assert known_model(RootSystemSpec("A", 3), "A3") is None


def test_analyze_a2_root():
    verdict = analyze(RootSystemSpec("A", 2), "root", weyl.DEFAULT_GROUP_CAP)
    assert verdict.invariants.irreducible
    assert verdict.invariants.dim_wedge2_doubled_inv == 1
    assert verdict.freeness.min_codim_doubled == 2
    assert verdict.resolution is ResolutionVerdict.RESOLVABLE
    assert verdict.freeness.status == "verified"
    assert verdict.known_model is None


def test_analyze_a3_dual_has_kummer_tag():
    verdict = analyze(RootSystemSpec("A", 3), "dual", weyl.DEFAULT_GROUP_CAP)
    assert verdict.lattice_label == "A3*"
    assert "Kummer" in verdict.known_model


def test_analyze_b3_tower_member():
    verdict = analyze(RootSystemSpec("B", 3), "index:1", weyl.DEFAULT_GROUP_CAP)
    assert verdict.lattice_label == "Z^3"
    assert "Hilb" in verdict.known_model
    assert verdict.resolution is ResolutionVerdict.RESOLVABLE


def test_analyze_e6_full_pipeline():
    verdict = analyze(RootSystemSpec("E", 6), "root", weyl.DEFAULT_GROUP_CAP)
    assert verdict.invariants.irreducible
    assert verdict.invariants.dim_wedge2_doubled_inv == 1
    assert verdict.freeness.status == "verified"
    assert verdict.freeness.min_codim_doubled == 2
    assert verdict.resolution is ResolutionVerdict.NOT_RESOLVABLE
    assert verdict.known_model is None


def test_analyze_e8_skips_freeness():
    verdict = analyze(RootSystemSpec("E", 8), "root", weyl.DEFAULT_GROUP_CAP)
    assert verdict.invariants.irreducible
    assert verdict.invariants.dim_wedge2_doubled_inv == 1
    assert verdict.freeness.status == "skipped"
    assert verdict.resolution is ResolutionVerdict.NOT_RESOLVABLE


def test_analyze_bad_selector():
    with pytest.raises(ValueError):
        analyze(RootSystemSpec("A", 2), "weights", weyl.DEFAULT_GROUP_CAP)
    with pytest.raises(ValueError):
        analyze(RootSystemSpec("A", 2), "index:9", weyl.DEFAULT_GROUP_CAP)
    with pytest.raises(ValueError, match=r"^unknown lattice selector 'index:x'; use root, dual, or index:k$"):
        analyze(RootSystemSpec("A", 2), "index:x", weyl.DEFAULT_GROUP_CAP)

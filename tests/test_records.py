"""Semantics of the package's records: value equality where a cache is keyed
on it, unchanged validation errors, immutability, and pickling."""

import pickle
from fractions import Fraction

import pytest

from roothk.cli import CheckRecord, ReportDocument
from roothk.exact_linalg import IntMatrix, smith_normal_form
from roothk.hk_analysis import analyze, fixed_locus_on_abelian, freeness_codim_check
from roothk.invariant_theory import Representation, invariant_report, rep_reflection
from roothk.lattice_tower import Ratio, tower_for_spec
from roothk.root_data import RootSystemSpec, build_root_datum, dual_lattice_quotient_check
from roothk.weyl import generate_group


def test_spec_equality_and_hash_key_the_datum_cache():
    a, b = RootSystemSpec("A", 3), RootSystemSpec("A", 3)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != RootSystemSpec("A", 4) and a != RootSystemSpec("B", 3)
    assert a != ("A", 3)
    assert build_root_datum(a) is build_root_datum(b)
    assert repr(a) == "RootSystemSpec(family='A', rank=3)"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RootSystemSpec("X", 2), "unknown family 'X'; expected one of ('A', 'B', 'C', 'D', 'E', 'F', 'G')"),
        (lambda: RootSystemSpec("A", 0), "family A requires rank >= 1, got 0"),
        (lambda: RootSystemSpec("E", 9), "family E requires rank 6..8, got 9"),
        (
            lambda: Representation(2, ({0: {2: 1}},)),
            "generator image has an index out of range",
        ),
        (
            lambda: Representation(2, ({2: {0: 1}},)),
            "generator image has an index out of range",
        ),
    ],
)
def test_validation_errors(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def _a1():
    return build_root_datum(RootSystemSpec("A", 1))


RECORDS = {
    "RootSystemSpec": lambda: RootSystemSpec("A", 1),
    "RootDatum": _a1,
    "Representation": lambda: rep_reflection(_a1()),
    "SmithForm": lambda: smith_normal_form(IntMatrix.from_rows([[2]])),
    "DualQuotientReport": lambda: dual_lattice_quotient_check(1),
    "InvariantReport": lambda: invariant_report(_a1()),
    "TowerReport": lambda: tower_for_spec(RootSystemSpec("A", 1)),
    "DiscriminantGroup": lambda: tower_for_spec(RootSystemSpec("A", 1)).disc,
    "IntermediateLattice": lambda: tower_for_spec(RootSystemSpec("A", 1)).lattices[0],
    "FixedLocusEntry": lambda: fixed_locus_on_abelian(IntMatrix.from_rows([[-1]])),
    "FreenessCheck": lambda: freeness_codim_check(generate_group(_a1())),
    "HKVerdict": lambda: analyze(RootSystemSpec("A", 1), "root", 1),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = next(iter(getattr(record, "_fields", None) or vars(record)))
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value


def test_check_records_survive_a_pickle_round_trip():
    doc = ReportDocument(command={})
    doc.add("a/A1", "pass", {"n": 2, "q": Fraction(1, 2), "s": "x"})
    doc.add("b/A2", "skipped", {"reason": "order exceeds cap 1"}, citation="cited")
    back = pickle.loads(pickle.dumps(doc.checks))
    assert [type(c) for c in back] == [CheckRecord, CheckRecord]
    assert [vars(c) for c in back] == [vars(c) for c in doc.checks]
    assert back[0].rendered_values() == {"n": 2, "q": "1/2", "s": "x"}


@pytest.mark.parametrize("exact", [Fraction, Ratio], ids=["Fraction", "Ratio"])
def test_rationals_render_as_an_integer_or_p_over_q(exact):
    record = CheckRecord("r", "pass", {"whole": exact(-6, 1), "part": exact(-3, 4)})
    assert record.rendered_values() == {"whole": -6, "part": "-3/4"}


@pytest.mark.parametrize("inexact", [0.5, (1, 2), None])
def test_inexact_values_do_not_render(inexact):
    with pytest.raises(TypeError, match="exact integers, rationals or strings"):
        CheckRecord("r", "pass", {"v": inexact}).rendered_values()


def test_spec_pickles():
    spec = RootSystemSpec("B", 3)
    assert pickle.loads(pickle.dumps(spec)) == spec


def _datum_fields():
    d = build_root_datum(RootSystemSpec("A", 3))
    return d.spec, d.cartan, d.simple_rows, d.denominator, d.gram


@pytest.mark.parametrize(
    "make",
    [
        lambda: IntMatrix.from_rows([[2, -1], [-1, 2]]),
        lambda: smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])),
        lambda: tower_for_spec(RootSystemSpec("D", 4)),
        _datum_fields,
    ],
    ids=["IntMatrix", "SmithForm", "TowerReport", "RootDatum-fields"],
)
def test_matrix_records_survive_a_pickle_round_trip(make):
    record = make()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record

import pytest

from roothk.invariant_theory import rep_double, rep_sym2, rep_wedge2
from roothk.root_data import RootSystemSpec, build_root_datum
from roothk.weyl import generate_group


@pytest.fixture(scope="session")
def groups():
    """Session-wide cache of Weyl groups from ``generate_group``; every test
    that needs a group shares one copy."""
    cache = {}

    def get(family: str, rank: int):
        key = (family, rank)
        if key not in cache:
            datum = build_root_datum(RootSystemSpec(family, rank))
            cache[key] = generate_group(datum)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def constructions():
    """The five constructions on a defining representation V that the
    Reynolds oracle assembles, each with the chain it was built by:
    V, V + V, Sym2 V, Wedge2 V and Wedge2(V + V)."""

    def build(v):
        defining = ("defining",)
        doubled = ("double", defining)
        return (
            (defining, v),
            (doubled, rep_double(v)),
            (("sym2", defining), rep_sym2(v)),
            (("wedge2", defining), rep_wedge2(v)),
            (("wedge2", doubled), rep_wedge2(rep_double(v))),
        )

    return build

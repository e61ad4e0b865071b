import pytest

from roothk.invariant_theory import Representation, rep_sym2, rep_wedge2
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


def _doubled(rep):
    """V + V: each generator image as block-diagonal diag(g, g), its moved
    rows those of g in the first copy, then in the second."""
    n = rep.dim
    images = tuple(
        {**g, **{k + n: {c + n: x for c, x in row.items()} for k, row in g.items()}} for g in rep.generator_images
    )
    return Representation(2 * n, images)


@pytest.fixture(scope="session")
def double():
    """Doubling of a representation, built here and not in ``roothk``, which
    reads the doubled span's invariants from Sym2 V and Wedge2 V alone."""
    return _doubled


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
            (doubled, _doubled(v)),
            (("sym2", defining), rep_sym2(v)),
            (("wedge2", defining), rep_wedge2(v)),
            (("wedge2", doubled), rep_wedge2(_doubled(v))),
        )

    return build

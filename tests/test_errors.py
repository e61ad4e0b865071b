import pickle

import pytest

from roothk import errors
from roothk.errors import (
    DiscriminantTooLargeError,
    GroupTooLargeError,
    LatticeActionError,
    RootHKError,
)

INSTANCES = [
    RootHKError("worker ended"),
    GroupTooLargeError("E8", 696729600, 5000000),
    DiscriminantTooLargeError(4096, 2048),
    LatticeActionError("reflection in (1, 0) does not preserve the dual lattice"),
]


def test_every_error_class_is_covered():
    classes = {obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == {type(exc) for exc in INSTANCES}


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda e: type(e).__name__)
def test_errors_survive_a_pickle_round_trip(exc):
    # report's worker sends its errors to the parent through a pipe.
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert vars(back) == vars(exc)
    assert str(back) == str(exc)


def test_error_messages():
    assert str(GroupTooLargeError("E8", 696729600, 5000000)) == (
        "group E8 has 696729600 elements, exceeding the cap of 5000000; use generator-only methods"
    )
    assert str(DiscriminantTooLargeError(4096, 2048)) == "discriminant group of order 4096 exceeds the cap of 2048"

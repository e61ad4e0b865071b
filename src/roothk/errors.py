"""Exception types shared across the package.

Every constructor argument is passed on to ``Exception.__init__`` and the
message is built in ``__str__``, so each error pickles and unpickles to an
equal one (``report`` sends its worker's errors through a pipe).
"""


class RootHKError(Exception):
    """Base class for all roothk-specific errors."""


class GroupTooLargeError(RootHKError):
    """Raised when exhaustive group enumeration would exceed the element cap."""

    def __init__(self, label: str, predicted: int, cap: int):
        super().__init__(label, predicted, cap)
        self.label = label
        self.predicted = predicted
        self.cap = cap

    def __str__(self) -> str:
        return (
            f"group {self.label} has {self.predicted} elements, exceeding the cap of {self.cap}; "
            "use generator-only methods"
        )


class DiscriminantTooLargeError(RootHKError):
    """Raised when a discriminant group is too large for subgroup enumeration."""

    def __init__(self, order: int, cap: int):
        super().__init__(order, cap)
        self.order = order
        self.cap = cap

    def __str__(self) -> str:
        return f"discriminant group of order {self.order} exceeds the cap of {self.cap}"


class LatticeActionError(RootHKError):
    """Raised when a group generator fails to preserve a lattice it should preserve."""

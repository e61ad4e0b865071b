"""Exception types shared across the package.

Every constructor argument is passed on to ``Exception.__init__`` and the
message is built in ``__str__``, so that, as for the built-in exceptions,
copying or serialising an error rebuilds an equal one.
"""


class RootHKError(Exception):
    """Base class for all roothk-specific errors."""


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

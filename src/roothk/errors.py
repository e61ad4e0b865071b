"""Exception types shared across the package."""


class RootHKError(Exception):
    """Base class for all roothk-specific errors."""


class DiscriminantTooLargeError(RootHKError):
    """Raised when a discriminant group is too large for subgroup enumeration."""

    def __init__(self, order: int, cap: int):
        super().__init__(f"discriminant group of order {order} exceeds the cap of {cap}")


class LatticeActionError(RootHKError):
    """Raised when a group generator fails to preserve a lattice it should preserve."""

"""Exception types shared across the toolkit.

The CLI maps these onto exit codes (usage 1, data 2, numerical 3); library
callers can catch them individually.
"""


class StpnRcaError(Exception):
    """Base class for all toolkit errors."""


class UsageError(StpnRcaError):
    """Bad command-line usage or configuration."""


class DataError(StpnRcaError):
    """Malformed, insufficient, or inconsistent input data."""


class DegeneratePartitionError(DataError):
    """A channel cannot be partitioned; `channel` is its index, when known."""

    def __init__(self, message: str, channel: int | None = None):
        super().__init__(message)
        self.channel = channel


class NumericalError(StpnRcaError):
    """A numerical procedure failed (instability, rank deficiency, divergence)."""

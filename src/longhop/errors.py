"""Exception types shared across the package."""


class LongHopError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LongHopError, ValueError):
    """An argument is outside the domain an operation is defined on.

    Covers structural problems too: duplicate hops, dimensions above the
    supported limit, stored metrics no hop set can have, and so on.
    """


class FormatError(LongHopError, ValueError):
    """A file or text blob does not match the expected on-disk format."""


class BudgetExceeded(LongHopError, RuntimeError):
    """A search was asked to do more work than its configured budget."""


class DisconnectedGraph(DomainError):
    """The hops do not span Z_2^d, so their graph is disconnected; only
    `GeneratorSet` raises it, when it is built."""

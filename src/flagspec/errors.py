"""Exception types shared across the library."""

from __future__ import annotations


class FlagspecError(Exception):
    """Base class for all domain errors raised by this library."""


class NonIntegralParams(FlagspecError):
    """The replication or block count implied by (v, k, lambda) is not an integer."""


class UnequalBlockSizes(FlagspecError):
    """Not all blocks of a design have the same size."""


class PairCountMismatch(FlagspecError):
    """Some point pair is covered by the wrong number of block instances."""

    def __init__(self, pair: tuple[int, int], found: int, expected: int):
        self.pair = pair
        self.found = found
        self.expected = expected
        super().__init__(
            f"pair {pair} lies in {found} block(s), expected {expected}"
        )


class RepeatedBlock(FlagspecError):
    """A block occurs more than once while the design forbids repeats."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"block at index {index} repeats an earlier block")


class TrivialDesign(FlagspecError):
    """The design is trivial: block size must satisfy 1 < k < v."""


class NotABiplane(FlagspecError):
    """The operation requires a symmetric design with lambda = 2."""


class UnknownCatalogId(FlagspecError):
    """No catalog entry with the requested id."""


class UnknownGraphName(FlagspecError):
    """No reference graph with the requested name."""


class NonIntegralClaim(FlagspecError):
    """A spectrum claim does not expand to an integer-coefficient polynomial."""


class TooManyVertices(FlagspecError):
    """A graph reader or a dense n x n kernel was given more vertices than
    it accepts; `what` names the limit that was hit."""

    def __init__(self, n: int, limit: int, what: str):
        self.n = n
        self.limit = limit
        super().__init__(f"{n} vertices exceed {what} of {limit}")


class SelfCheckFailed(FlagspecError):
    """A computed result failed one of the library's own consistency checks.

    These checks guard verdicts, so they are explicit raises rather than
    asserts, which python -O would remove.
    """

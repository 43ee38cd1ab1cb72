"""Exception types shared across the package."""


class RingParseError(ValueError):
    """A ring spec string does not match the grammar Z | Z/<n> | Z/<n>[x]/(<monic poly>)."""


class InfiniteRingError(ValueError):
    """An operation that needs enumeration was asked of an infinite ring."""


class EnumerationLimitError(ValueError):
    """An enumeration was refused up front: it would exceed rings.MAX_ENUMERATION."""


class MixedRingError(ValueError):
    """Two operands live in different rings (or algebras)."""


class MonoidError(ValueError):
    """A monoid table or homomorphism fails validation; the message names a witness."""


class InternalCheckError(AssertionError):
    """An invariant the library guarantees was violated; indicates a bug, not bad input."""

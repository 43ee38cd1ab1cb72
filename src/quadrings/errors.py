"""Exception types shared across the package."""

from __future__ import annotations


class RingParseError(ValueError):
    """A ring spec string does not match the grammar Z | Z/<n> | Z/<n>[x]/(<monic poly>)."""


class InfiniteRingError(ValueError):
    """An operation that needs enumeration was asked of an infinite ring."""


class EnumerationLimitError(ValueError):
    """An enumeration was refused up front: it would exceed rings.MAX_ENUMERATION."""


class MixedRingError(ValueError):
    """Two operands live in different rings (or algebras)."""


class MonoidError(ValueError):
    """A monoid table fails validation, or its Grothendieck relation is not a
    congruence; witness, if given, is a JSON-ready dict of the check's kind
    and the labels or indices involved."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness


class InternalCheckError(AssertionError):
    """An invariant the library guarantees was violated; indicates a bug, not bad input.

    witness, if given, is a JSON-ready dict that locates the failure (ring
    spec, discriminant, class label, AS class, ...).
    """

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness

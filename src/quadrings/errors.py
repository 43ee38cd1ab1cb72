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
    """A monoid table fails validation, or has no absorbing element to read
    its Grothendieck group off; witness, if given, is a JSON-ready dict of
    the check's kind and the labels or indices involved.  It is the error
    of a table a caller builds: the package's own tables (the disc monoid,
    quad_monoid) raise a failed check as InternalCheckError.over, with this
    message and witness and the ring."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness


class InternalCheckError(AssertionError):
    """An invariant the library guarantees was violated; indicates a bug, not bad input.

    witness, if given, is a JSON-ready dict that locates the failure.  Every
    check of the package raises through over(), so its witness names the
    ring's spec under "ring", then where the check failed (discriminant,
    class label, AS class, ...); a failed monoid-table check keeps the
    MonoidError's kind, indices and labels or value beside the ring.
    """

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness

    @classmethod
    def over(cls, ring, message: str, **where) -> InternalCheckError:
        """The error of a check that failed over ring: its witness is
        {"ring": ring.spec_string(), **where}, each value JSON-ready."""
        return cls(message, {"ring": ring.spec_string(), **where})

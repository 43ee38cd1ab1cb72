"""Exact multivariate polynomials over the integers.

A polynomial is a map from monomials to nonzero arbitrary-precision integer
coefficients.  A monomial is the tuple of its (name, power) pairs in name
order, every power nonzero, so the constant monomial is ().  The canonical
form stores no zero coefficients, so structural equality is mathematical
equality; the variables are read off the monomials, sorted, and a variable
whose terms cancel is gone with them.  A sum merges two dicts and a product
merges monomials pair by pair, so no variable order is shared or realigned.
Coefficients go through operator.index, so a float or a Fraction is a
TypeError, never truncated.  Everything in this package stays below a
handful of variables and single-digit degrees.  The verifier needs only the
ring operations, equality and term counts; a substitution such as
w -> w + 2n is written as arithmetic on w + 2n.
"""

from __future__ import annotations

import operator
from types import MappingProxyType


class MultiPoly:
    """Integer-coefficient polynomial in named variables, immutable: terms
    is a read-only view (types.MappingProxyType) of the monomial map.

    MultiPoly(variables, terms) reads terms keyed by exponent tuples, one
    power per name in variables; a name given twice adds its powers.
    """

    __slots__ = ("terms",)

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        merged: dict = {}
        for exp, coeff in dict(terms or {}).items():
            exp = tuple(exp)
            if len(exp) != len(variables):
                raise ValueError("exponent length does not match variable count")
            mono = _times((), zip(variables, exp))
            merged[mono] = merged.get(mono, 0) + operator.index(coeff)
        object.__setattr__(self, "terms",
                           MappingProxyType({m: c for m, c in merged.items() if c}))

    @classmethod
    def _of(cls, terms: dict) -> MultiPoly:
        """A polynomial over terms already in canonical form, not checked
        again; it keeps a read-only view of terms, which no caller holds."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", MappingProxyType(terms))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @property
    def vars(self) -> tuple:
        return tuple(sorted({name for mono in self.terms for name, _ in mono}))

    @classmethod
    def variable(cls, name: str) -> MultiPoly:
        return cls._of({((name, 1),): 1})

    @classmethod
    def const(cls, c: int) -> MultiPoly:
        c = operator.index(c)
        return cls._of({(): c} if c else {})

    @classmethod
    def coerce(cls, value) -> MultiPoly:
        if isinstance(value, MultiPoly):
            return value
        return cls.const(value)

    def term_count(self) -> int:
        return len(self.terms)

    def __add__(self, other):
        if not isinstance(other, (int, MultiPoly)):
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in MultiPoly.coerce(other).terms.items():
            c += terms.get(mono, 0)
            if c:
                terms[mono] = c
            else:
                del terms[mono]
        return MultiPoly._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, MultiPoly)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (int, MultiPoly)):
            return NotImplemented
        right = MultiPoly.coerce(other).terms
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in right.items():
                mono = _times(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return MultiPoly._of({m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.const(1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        names = self.vars
        out = ""
        for mono in sorted(self.terms, reverse=True, key=lambda m: (
                sum(p for _, p in m), tuple(dict(m).get(v, 0) for v in names))):
            coeff = self.terms[mono]
            factors = [name if power == 1 else f"{name}^{power}"
                       for name, power in mono if power > 0]
            if abs(coeff) != 1 or not factors:
                factors.insert(0, str(abs(coeff)))
            out += ("-" if coeff < 0 else "+") + "*".join(factors)
        return out.removeprefix("+") or "0"

    def __repr__(self):
        return f"MultiPoly({self})"


def _times(m1, m2) -> tuple:
    """The product of two monomials, their powers added name by name.  m2 may
    be any (name, power) pairs, which come out sorted, summed and pruned."""
    if not m2:
        return m1
    powers = dict(m1)
    for name, power in m2:
        powers[name] = powers.get(name, 0) + power
    return tuple(sorted(item for item in powers.items() if item[1]))


def variables(*names: str) -> list[MultiPoly]:
    return [MultiPoly.variable(n) for n in names]

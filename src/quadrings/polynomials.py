"""Exact multivariate polynomials over the integers.

A polynomial is a map from exponent vectors to nonzero arbitrary-precision
integer coefficients, over an alphabetically sorted variable tuple.  The
canonical form stores no zero coefficients and no unused variables, so
structural equality is mathematical equality.  Coefficients go through
operator.index, so a float or a Fraction is a TypeError, never truncated.
Representation is dense in variables and sparse in terms; everything in
this package stays below a handful of variables and single-digit degrees.
The verifier needs only the ring operations, equality and term counts; a
substitution such as w -> w + 2n is written as arithmetic on w + 2n.
"""

from __future__ import annotations

import operator


class MultiPoly:
    """Integer-coefficient polynomial in named variables, immutable."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables=(), terms=None):
        vars_tuple, terms_dict = _normalize(tuple(variables), dict(terms or {}))
        object.__setattr__(self, "vars", vars_tuple)
        object.__setattr__(self, "terms", terms_dict)

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @classmethod
    def variable(cls, name: str) -> MultiPoly:
        return cls((name,), {(1,): 1})

    @classmethod
    def const(cls, c: int) -> MultiPoly:
        return cls((), {(): c})

    @classmethod
    def coerce(cls, value) -> MultiPoly:
        if isinstance(value, MultiPoly):
            return value
        return cls.const(value)

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def _aligned(self, other: MultiPoly):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        union = tuple(sorted(set(self.vars) | set(other.vars)))
        return union, _embed(self, union), _embed(other, union)

    def __add__(self, other):
        if not isinstance(other, (int, MultiPoly)):
            return NotImplemented
        other = MultiPoly.coerce(other)
        union, left, right = self._aligned(other)
        terms = dict(left)
        for exp, c in right.items():
            terms[exp] = terms.get(exp, 0) + c
        return MultiPoly(union, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, MultiPoly)):
            return NotImplemented
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (int, MultiPoly)):
            return NotImplemented
        other = MultiPoly.coerce(other)
        union, left, right = self._aligned(other)
        terms: dict = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return MultiPoly(union, terms)

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
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self.terms[exp]
            factors = []
            for name, power in zip(self.vars, exp):
                if power == 1:
                    factors.append(name)
                elif power > 1:
                    factors.append(f"{name}^{power}")
            body = "*".join(factors)
            if not body:
                piece = str(abs(coeff))
            elif abs(coeff) == 1:
                piece = body
            else:
                piece = f"{abs(coeff)}*{body}"
            parts.append(("-" if coeff < 0 else "+", piece))
        sign, first = parts[0]
        out = ("-" if sign == "-" else "") + first
        for sign, piece in parts[1:]:
            out += sign + piece
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


def _normalize(variables: tuple, terms: dict):
    clean = {}
    for exp, coeff in terms.items():
        exp = tuple(exp)
        if len(exp) != len(variables):
            raise ValueError("exponent length does not match variable count")
        clean[exp] = clean.get(exp, 0) + operator.index(coeff)
    clean = {e: c for e, c in clean.items() if c}
    if not clean:
        return (), {}
    # Sort variables and drop the ones with all-zero exponents.
    used = [i for i in range(len(variables))
            if any(e[i] for e in clean)]
    order = sorted(used, key=lambda i: variables[i])
    new_vars = tuple(variables[i] for i in order)
    new_terms = {tuple(e[i] for i in order): c for e, c in clean.items()}
    return new_vars, new_terms


def _embed(poly: MultiPoly, union: tuple) -> dict:
    pos = {name: i for i, name in enumerate(union)}
    out = {}
    for exp, coeff in poly.terms.items():
        new_exp = [0] * len(union)
        for name, power in zip(poly.vars, exp):
            new_exp[pos[name]] = power
        out[tuple(new_exp)] = coeff
    return out


def variables(*names: str) -> list[MultiPoly]:
    return [MultiPoly.variable(n) for n in names]

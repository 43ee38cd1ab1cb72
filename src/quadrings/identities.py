"""Verification of the package's algebraic identities as exact polynomial laws.

Every law the quadratic-algebra machinery relies on is checked here as an
identity of integer polynomials, with zero tolerance: both sides are brought
to canonical form and compared structurally.  The catalogue is keyed by
name; ``verify_all`` runs it all.

The laws are proved on the package's own QuadraticAlgebra, AlgebraElement
(products and conjugate), star_product and disc(), run over the ring of
integer polynomials, so a wrong formula there fails here.  S (x) T is the
package's algebra over an algebra, S[y]/(y^2 - sy + m) with
S = Z[t, n, s, m][x]/(x^2 - tx + n); the joint involution x -> t - x,
y -> s - y is the conjugate of y followed by that of x on both
coefficients.  Only wp-closure, a law about r + r^2, is written out by hand.
"""

from __future__ import annotations

from collections import namedtuple

from .polynomials import MultiPoly, variables
from .quadratic import AlgebraElement, QuadraticAlgebra, star_product
from .rings import Ring, RingElement


class _ValueRing(Ring):
    """A Ring whose values do their own exact arithmetic: the MultiPolys of
    Z[t, n, ...], or the AlgebraElements of an algebra over them.  Any other
    value (an int, a polynomial, a base-ring element) is brought in as
    zero + value."""

    def __init__(self, zero, name: str):
        self._zero = zero
        self._name = name

    def canonicalize(self, value):
        if isinstance(value, type(self._zero)):
            return value
        return self._zero + value

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def spec_string(self) -> str:
        return self._name


_POLYS = _ValueRing(MultiPoly.const(0), "Z[...]")


def _algebra(t, n) -> QuadraticAlgebra:
    return QuadraticAlgebra(_POLYS, t, n)


def _tensor_model():
    """S (x) T as S[y]/(y^2 - sy + m) over S = Z[t, n, s, m][x]/(x^2 - tx + n).

    An element A + B*y, with A and B in S, has the four polynomial
    coefficients of the basis 1(x)1, x(x)1, 1(x)y, x(x)y as A.a, A.b, B.a
    and B.b.  Returns S and S (x) T.
    """
    t, n, s, m = variables("t", "n", "s", "m")
    inner = _algebra(t, n)
    return inner, QuadraticAlgebra(_ValueRing(inner.element(0, 0), repr(inner)), s, m)


def _swap(e: AlgebraElement) -> AlgebraElement:
    """The joint involution x -> t - x, y -> s - y of S (x) T: y's
    conjugate, then x's conjugate on both coefficients."""
    c = e.conjugate()
    return c.algebra.element(c.a.value.conjugate(), c.b.value.conjugate())


def _terms(*elements) -> int:
    """Total term count of ring or algebra elements over _POLYS, summed over
    every polynomial coefficient they are built from."""
    total = 0
    for e in elements:
        if isinstance(e, RingElement):
            e = e.value
        if isinstance(e, AlgebraElement):
            total += _terms(e.a, e.b)
        else:
            total += e.term_count()
    return total


# A namedtuple, not a dataclass, so that the verify command does not import
# dataclasses (and with it inspect) at start-up.
IdentityResult = namedtuple("IdentityResult", "name passed lhs_terms rhs_terms")


def _check_disc_multiplicativity() -> tuple[bool, int, int]:
    t, n, s, m = variables("t", "n", "s", "m")
    lhs = star_product(_algebra(t, n), _algebra(s, m)).disc().value
    rhs = (t ** 2 - 4 * n) * (s ** 2 - 4 * m)
    return lhs == rhs, lhs.term_count(), rhs.term_count()


def _check_star_associativity() -> tuple[bool, int, int]:
    t, n, s, m, p, q = variables("t", "n", "s", "m", "p", "q")
    a, b, c = _algebra(t, n), _algebra(s, m), _algebra(p, q)
    left = star_product(star_product(a, b), c)
    right = star_product(a, star_product(b, c))
    return left == right, _terms(*left.pair()), _terms(*right.pair())


def _check_change_of_basis() -> tuple[bool, int, int]:
    # Generator substitutions x = u*x' + r and y = v*y' + q transport the
    # defining data by t = u*t' + 2r, n = u^2*n' + t*r - r^2 (and likewise
    # for s, m): expand (u*x' + r)^2 = t(u*x' + r) - n and compare
    # coefficients.  The product functoriality witness w, an element of the
    # product of the primed algebras, then satisfies the defining equation
    # of the product of the unprimed ones; it is polynomial in u and v, so
    # no inversion is ever needed.
    u, v, r, q = variables("u", "v", "r", "q")
    tp, np_, sp, mp = variables("t'", "n'", "s'", "m'")
    t = u * tp + 2 * r
    n = u ** 2 * np_ + t * r - r ** 2
    s = v * sp + 2 * q
    m = v ** 2 * mp + s * q - q ** 2
    primed = star_product(_algebra(tp, np_), _algebra(sp, mp))
    big = star_product(_algebra(t, n), _algebra(s, m))
    w = primed.element(q * t + r * s - 2 * q * r, u * v)
    lhs = w * w
    rhs = w * big.t - big.n
    return lhs == rhs, _terms(lhs), _terms(rhs)


def _check_fixed_element_square() -> tuple[bool, int, int]:
    # z = xy + swap(xy) is fixed by the joint involution and satisfies the
    # defining equation of S * T = (t, n) * (s, m).
    s, m = variables("s", "m")
    inner, tensor = _tensor_model()
    xy = tensor.element(0, inner.x)
    z = xy + _swap(xy)
    product = star_product(inner, _algebra(s, m))
    lhs = z * z
    rhs = z * product.t - product.n
    return lhs == rhs, _terms(lhs), _terms(rhs)


def _check_wp_closure() -> tuple[bool, int, int]:
    r, s = variables("r", "s")
    combo = r + s + 2 * r * s
    lhs = combo + combo ** 2
    pr = r + r ** 2
    ps = s + s ** 2
    rhs = pr + ps + 4 * pr * ps
    return lhs == rhs, lhs.term_count(), rhs.term_count()


def _check_as_action_norm() -> tuple[bool, int, int]:
    # The AS class m acts as the product with (1, m): trace t, norm n + d*m.
    t, n, m = variables("t", "n", "m")
    a = _algebra(t, n)
    acted = star_product(a, _algebra(1, m))
    rhs = a.n + a.disc() * m
    return acted.t == a.t and acted.n == rhs, _terms(acted.n), _terms(rhs)


def _check_square_product() -> tuple[bool, int, int]:
    t, n, w = variables("t", "n", "w")
    a = _algebra(t, n)
    square = star_product(a, a)
    st, norm = square.t.value, square.n.value
    disc_lhs = square.disc().value
    disc_rhs = (t ** 2 - 4 * n) ** 2
    # the minimal polynomial w^2 - st w + norm of the square, at w + 2n
    shifted = (w + 2 * n) ** 2 - st * (w + 2 * n) + norm
    target = w ** 2 - (t ** 2 - 4 * n) * w
    passed = (st == t ** 2 and norm == 2 * n * (t ** 2 - 2 * n)
              and disc_lhs == disc_rhs and shifted == target)
    return (passed, disc_lhs.term_count() + shifted.term_count(),
            disc_rhs.term_count() + target.term_count())


# Each check returns (passed, lhs_terms, rhs_terms); its key is its name.
IDENTITY_CHECKS = {
    "disc-multiplicativity": _check_disc_multiplicativity,
    "star-associativity": _check_star_associativity,
    "change-of-basis-functoriality": _check_change_of_basis,
    "fixed-element-z-squared": _check_fixed_element_square,
    "wp-closure": _check_wp_closure,
    "as-action-norm": _check_as_action_norm,
    "square-product": _check_square_product,
}

IDENTITY_NAMES = list(IDENTITY_CHECKS)


def verify_named_identity(name: str) -> IdentityResult:
    if name not in IDENTITY_CHECKS:
        known = ", ".join(IDENTITY_NAMES)
        raise KeyError(f"unknown identity {name!r}; known: {known}")
    return IdentityResult(name, *IDENTITY_CHECKS[name]())


def verify_all() -> list[IdentityResult]:
    return [IdentityResult(name, *check()) for name, check in IDENTITY_CHECKS.items()]

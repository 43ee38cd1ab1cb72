"""Verification of the package's algebraic identities as exact polynomial laws.

Every law the quadratic-algebra machinery relies on is checked here as an
identity of integer polynomials (or of components in a rank-4 tensor model),
with zero tolerance: both sides are brought to canonical form and compared
structurally.  The catalogue is keyed by name; ``verify_all`` runs it all.

The laws of the star product, the discriminant and basis changes are proved
on the package's own QuadraticAlgebra, AlgebraElement, star_product and
disc(), run over the ring of integer polynomials, so a wrong formula there
fails here.

The tensor model represents elements of S (x) T on the basis

    1(x)1,  x(x)1,  1(x)y,  x(x)y

over the base ring of integer polynomials in t, n, s, m, with the reductions
x^2 = t*x - n and y^2 = s*y - m.  The involution swap sends x -> t - x and
y -> s - y simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomials import MultiPoly, variables
from .quadratic import QuadraticAlgebra, star_product
from .rings import Ring


class _PolyRing(Ring):
    """Z[t, n, ...] as a Ring: elements are MultiPolys."""

    def canonicalize(self, value):
        return MultiPoly.coerce(value)

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def spec_string(self) -> str:
        return "Z[...]"


_POLYS = _PolyRing()


def _algebra(t, n) -> QuadraticAlgebra:
    return QuadraticAlgebra(_POLYS, t, n)


def _terms(*elements) -> int:
    """Total term count of ring elements of _POLYS."""
    return sum(e.value.term_count() for e in elements)


class TensorElement:
    """Element of the rank-4 tensor algebra, as four polynomial coefficients."""

    __slots__ = ("c",)

    BASIS = ("1(x)1", "x(x)1", "1(x)y", "x(x)y")

    def __init__(self, c11=0, cx1=0, c1y=0, cxy=0):
        object.__setattr__(self, "c", (MultiPoly.coerce(c11),
                                       MultiPoly.coerce(cx1),
                                       MultiPoly.coerce(c1y),
                                       MultiPoly.coerce(cxy)))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def __add__(self, other):
        return TensorElement(*[a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        return TensorElement(*[a - b for a, b in zip(self.c, other.c)])

    def __mul__(self, other):
        if isinstance(other, (int, MultiPoly)):
            k = MultiPoly.coerce(other)
            return TensorElement(*[k * a for a in self.c])
        out = [MultiPoly.const(0)] * 4
        for i, ci in enumerate(self.c):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.c):
                if cj.is_zero():
                    continue
                for k, weight in _basis_product(i, j):
                    out[k] = out[k] + ci * cj * weight
        return TensorElement(*out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.c == other.c

    def swap_involution(self) -> TensorElement:
        """Apply x -> t - x and y -> s - y."""
        t, s = variables("t", "s")
        a, b, c, d = self.c
        return TensorElement(a + t * b + s * c + t * s * d,
                             -b - s * d,
                             -c - t * d,
                             d)

    def term_count(self) -> int:
        return sum(p.term_count() for p in self.c)

    def __repr__(self):
        body = " + ".join(f"({p})*{lbl}" for p, lbl in zip(self.c, self.BASIS)
                          if not p.is_zero())
        return body or "0"


def _basis_product(i: int, j: int):
    """Expansion of basis element i times basis element j."""
    t, n, s, m = variables("t", "n", "s", "m")
    one = MultiPoly.const(1)
    if i > j:
        i, j = j, i
    if i == 0:
        return [(j, one)]
    if (i, j) == (1, 1):
        return [(1, t), (0, -n)]
    if (i, j) == (1, 2):
        return [(3, one)]
    if (i, j) == (1, 3):
        return [(3, t), (2, -n)]
    if (i, j) == (2, 2):
        return [(2, s), (0, -m)]
    if (i, j) == (2, 3):
        return [(3, s), (1, -m)]
    return [(3, t * s), (1, -t * m), (2, -n * s), (0, n * m)]


@dataclass
class IdentityResult:
    name: str
    passed: bool
    lhs_terms: int
    rhs_terms: int


def _check_disc_multiplicativity() -> IdentityResult:
    t, n, s, m = variables("t", "n", "s", "m")
    lhs = star_product(_algebra(t, n), _algebra(s, m)).disc().value
    rhs = (t ** 2 - 4 * n) * (s ** 2 - 4 * m)
    return IdentityResult("disc-multiplicativity", lhs == rhs,
                          lhs.term_count(), rhs.term_count())


def _check_star_associativity() -> IdentityResult:
    t, n, s, m, p, q = variables("t", "n", "s", "m", "p", "q")
    a, b, c = _algebra(t, n), _algebra(s, m), _algebra(p, q)
    left = star_product(star_product(a, b), c)
    right = star_product(a, star_product(b, c))
    return IdentityResult("star-associativity", left == right,
                          _terms(*left.pair()), _terms(*right.pair()))


def _check_change_of_basis() -> IdentityResult:
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
    return IdentityResult("change-of-basis-functoriality", lhs == rhs,
                          _terms(lhs.a, lhs.b), _terms(rhs.a, rhs.b))


def _check_fixed_element_square() -> IdentityResult:
    t, n, s, m = variables("t", "n", "s", "m")
    xy = TensorElement(0, 0, 0, 1)
    z = xy + xy.swap_involution()
    lhs = z * z
    rhs = (s * t) * z - TensorElement(m * t ** 2 + n * s ** 2 - 4 * n * m, 0, 0, 0)
    return IdentityResult("fixed-element-z-squared", lhs == rhs,
                          lhs.term_count(), rhs.term_count())


def _check_wp_closure() -> IdentityResult:
    r, s = variables("r", "s")
    combo = r + s + 2 * r * s
    lhs = combo + combo ** 2
    pr = r + r ** 2
    ps = s + s ** 2
    rhs = pr + ps + 4 * pr * ps
    return IdentityResult("wp-closure", lhs == rhs,
                          lhs.term_count(), rhs.term_count())


def _check_as_action_norm() -> IdentityResult:
    t, n, m = variables("t", "n", "m")
    lhs = m * t ** 2 + n - 4 * n * m
    rhs = n + (t ** 2 - 4 * n) * m
    return IdentityResult("as-action-norm", lhs == rhs,
                          lhs.term_count(), rhs.term_count())


def _check_square_product() -> IdentityResult:
    t, n, w = variables("t", "n", "w")
    a = _algebra(t, n)
    square = star_product(a, a)
    st, norm = square.t.value, square.n.value
    disc_lhs = square.disc().value
    disc_rhs = (t ** 2 - 4 * n) ** 2
    minimal = w ** 2 - st * w + norm
    shifted = minimal.substitute({"w": w + 2 * n})
    target = w ** 2 - (t ** 2 - 4 * n) * w
    passed = (st == t ** 2 and norm == 2 * n * (t ** 2 - 2 * n)
              and disc_lhs == disc_rhs and shifted == target)
    return IdentityResult("square-product", passed,
                          disc_lhs.term_count() + shifted.term_count(),
                          disc_rhs.term_count() + target.term_count())


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
    return IDENTITY_CHECKS[name]()


def verify_all() -> list[IdentityResult]:
    return [check() for check in IDENTITY_CHECKS.values()]

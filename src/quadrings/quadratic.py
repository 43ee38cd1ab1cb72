"""Free quadratic algebras with basis over a commutative ring.

An algebra is encoded by the pair (t, n) meaning R[x]/(x^2 - tx + n); t is
the trace of x and n its norm.  The module provides element arithmetic, the
standard involution, discriminants, the monoid product

    (t, n) * (s, m) = (s t, m t^2 + n s^2 - 4 n m),

basis changes x -> u(x + r) acting by (t, n) -> (u(t+2r), u^2(n+tr+r^2)),
isomorphism testing, and full classification over finite rings as orbits of
that action on R^2.
"""

from __future__ import annotations

import math

from .errors import InfiniteRingError, InternalCheckError, MixedRingError
from .monoids import FiniteCommMonoid, find_absorbing, require_valid_monoid
from .rings import IntegerRing, Ring, RingElement, require_enumerable


class QuadraticAlgebra:
    """R[x]/(x^2 - tx + n), immutable."""

    __slots__ = ("ring", "t", "n")

    def __init__(self, ring: Ring, t, n):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "t", ring.element(t))
        object.__setattr__(self, "n", ring.element(n))

    def __setattr__(self, name, value):
        raise AttributeError("algebras are immutable")

    def disc(self) -> RingElement:
        """Discriminant t^2 - 4n; always a square mod 4R, witnessed by t."""
        return self.t * self.t - self.ring.element(4) * self.n

    def is_separable(self) -> bool:
        return self.ring.is_unit(self.disc())

    def element(self, a, b) -> AlgebraElement:
        return AlgebraElement(self, a, b)

    @property
    def x(self) -> AlgebraElement:
        return AlgebraElement(self, 0, 1)

    @property
    def one(self) -> AlgebraElement:
        return AlgebraElement(self, 1, 0)

    def star(self, other: QuadraticAlgebra) -> QuadraticAlgebra:
        return star_product(self, other)

    def pair(self):
        return (self.t, self.n)

    def label(self) -> str:
        return f"({self.t},{self.n})"

    def __eq__(self, other):
        return (isinstance(other, QuadraticAlgebra)
                and self.ring == other.ring
                and self.t == other.t and self.n == other.n)

    def __hash__(self):
        return hash((self.ring, self.t, self.n))

    def __repr__(self):
        return f"QuadraticAlgebra{self.label()} over {self.ring!r}"


class AlgebraElement:
    """a + b*x in a quadratic algebra; closed under x^2 = tx - n."""

    __slots__ = ("algebra", "a", "b")

    def __init__(self, algebra: QuadraticAlgebra, a, b):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "a", algebra.ring.element(a))
        object.__setattr__(self, "b", algebra.ring.element(b))

    def __setattr__(self, name, value):
        raise AttributeError("algebra elements are immutable")

    def _coerce(self, other) -> AlgebraElement:
        if isinstance(other, AlgebraElement):
            if other.algebra != self.algebra:
                raise MixedRingError("elements of different algebras")
            return other
        return AlgebraElement(self.algebra, other, 0)

    def __add__(self, other):
        other = self._coerce(other)
        return AlgebraElement(self.algebra, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return AlgebraElement(self.algebra, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        t, n = self.algebra.t, self.algebra.n
        a, b, c, d = self.a, self.b, other.a, other.b
        return AlgebraElement(self.algebra,
                              a * c - b * d * n,
                              a * d + b * c + b * d * t)

    __rmul__ = __mul__

    def conjugate(self) -> AlgebraElement:
        """Standard involution x -> t - x."""
        return AlgebraElement(self.algebra,
                              self.a + self.b * self.algebra.t, -self.b)

    def trace(self) -> RingElement:
        """self + conjugate(self), landing in R."""
        return self.a + self.a + self.b * self.algebra.t

    def norm(self) -> RingElement:
        """self * conjugate(self), landing in R."""
        t, n = self.algebra.t, self.algebra.n
        return self.a * self.a + self.a * self.b * t + self.b * self.b * n

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return (self.algebra == other.algebra
                    and self.a == other.a and self.b == other.b)
        return NotImplemented

    def __hash__(self):
        return hash((self.algebra, self.a, self.b))

    def __repr__(self):
        return f"({self.a}) + ({self.b})x in {self.algebra!r}"


class BasisChange:
    """The substitution x -> u(x + r) with u a unit."""

    __slots__ = ("u", "r")

    def __init__(self, u: RingElement, r: RingElement):
        if not u.ring.is_unit(u):
            raise ValueError(f"basis change requires a unit, got {u!r}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "r", r.ring.element(r))

    def __setattr__(self, name, value):
        raise AttributeError("basis changes are immutable")

    def __eq__(self, other):
        return (isinstance(other, BasisChange)
                and self.u == other.u and self.r == other.r)

    def __repr__(self):
        return f"BasisChange(u={self.u}, r={self.r})"


def star_product(s: QuadraticAlgebra, t: QuadraticAlgebra) -> QuadraticAlgebra:
    """Monoid product: (t,n)*(s,m) = (st, mt^2 + ns^2 - 4nm)."""
    if s.ring != t.ring:
        raise MixedRingError("product requires algebras over the same ring")
    four = s.ring.element(4)
    tt, nn = s.t, s.n
    ss, mm = t.t, t.n
    return QuadraticAlgebra(s.ring, ss * tt,
                            mm * tt * tt + nn * ss * ss - four * nn * mm)


def apply_basis_change(s: QuadraticAlgebra, g: BasisChange) -> QuadraticAlgebra:
    """(t, n) -> (u(t+2r), u^2(n + tr + r^2))."""
    u, r = g.u, g.r
    t, n = s.t, s.n
    two = s.ring.element(2)
    return QuadraticAlgebra(s.ring, u * (t + two * r),
                            u * u * (n + t * r + r * r))


def basis_change_group(ring: Ring) -> list[BasisChange]:
    """All basis changes of a finite ring, in canonical order."""
    if not ring.is_finite:
        raise InfiniteRingError("enumeration requires a finite ring")
    return [BasisChange(u, r) for u in ring.units() for r in ring.elements()]


def is_isomorphic(s: QuadraticAlgebra, t: QuadraticAlgebra):
    """A BasisChange g with apply_basis_change(s, g) = t, or None.

    Finite rings are searched exhaustively.  Over Z the search is bounded:
    u is +/-1 and r is forced by u*t' = t + 2r.
    """
    if s.ring != t.ring:
        raise MixedRingError("isomorphism testing requires a common ring")
    ring = s.ring
    if ring.is_finite:
        for g in basis_change_group(ring):
            if apply_basis_change(s, g) == t:
                return g
        return None
    if isinstance(ring, IntegerRing):
        tv, nv = s.t.value, s.n.value
        for uv in (1, -1):
            num = uv * t.t.value - tv
            if num % 2:
                continue
            rv = num // 2
            if t.n.value == nv + tv * rv + rv * rv:
                return BasisChange(ring.element(uv), ring.element(rv))
        return None
    raise InfiniteRingError("isomorphism testing needs a finite ring or Z")


class IsoClass:
    """One isomorphism class from a classification."""

    def __init__(self, rep: QuadraticAlgebra, orbit_pairs):
        self.rep = rep
        self.orbit_pairs = orbit_pairs
        self.orbit_size = len(orbit_pairs)
        self.disc = rep.disc()
        self.separable = rep.is_separable()

    @property
    def label(self) -> str:
        return self.rep.label()

    def __repr__(self):
        return f"IsoClass({self.label}, orbit_size={self.orbit_size})"


class Classification:
    """All isomorphism classes of quadratic algebras over a finite ring.

    Classes are sorted by the canonical representative, the lexicographically
    least (t, n) in the orbit, so output is deterministic.
    """

    def __init__(self, ring: Ring, classes: list[IsoClass]):
        self.ring = ring
        self.classes = classes
        self._index = {}
        for i, cls in enumerate(classes):
            for pair in cls.orbit_pairs:
                self._index[pair] = i

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def index_of(self, algebra: QuadraticAlgebra) -> int:
        return self._index[(algebra.t, algebra.n)]

    def class_of(self, algebra: QuadraticAlgebra) -> IsoClass:
        return self.classes[self.index_of(algebra)]


def classify(ring: Ring) -> Classification:
    """Orbits of the basis-change group G acting on all pairs (t, n) in R^2.

    G is a group, since x -> u1(x + r1) followed by x -> u2(x + r2) is the
    basis change (u1 u2, r1 + u1^-1 r2), so G applied to one seed is its whole
    orbit; the cost is (number of classes) * |G| basis changes.
    """
    if not ring.is_finite:
        raise InfiniteRingError("classification requires a finite ring")
    require_enumerable(ring.size ** 2, f"pairs (t, n) over {ring!r}")
    group = basis_change_group(ring)
    elements = ring.elements()
    pending = {(t, n) for t in elements for n in elements}
    classes = []
    while pending:
        seed = QuadraticAlgebra(ring, *next(iter(pending)))
        orbit = {apply_basis_change(seed, g).pair() for g in group}
        pending -= orbit
        pairs = sorted(orbit, key=lambda p: (p[0].sort_key(), p[1].sort_key()))
        classes.append(IsoClass(QuadraticAlgebra(ring, *pairs[0]), pairs))
    classes.sort(key=lambda c: (c.rep.t.sort_key(), c.rep.n.sort_key()))
    # Overlapping orbits (G not a group) would push the sum above |R|^2.
    total = sum(c.orbit_size for c in classes)
    if total != len(elements) ** 2:
        raise InternalCheckError(
            f"orbit sizes sum to {total}, expected {len(elements) ** 2}"
        )
    return Classification(ring, classes)


def quad_monoid(ring: Ring, classification: Classification) -> FiniteCommMonoid:
    """The commutative monoid of isomorphism classes under the star product.

    The table is induced by the product on canonical representatives; the
    result is validated before being returned, and the class of (0, 0) is
    checked to be absorbing.
    """
    labels = [c.label for c in classification]
    table = []
    for ci in classification:
        row = []
        for cj in classification:
            row.append(classification.index_of(star_product(ci.rep, cj.rep)))
        table.append(row)
    identity = classification.index_of(QuadraticAlgebra(ring, 1, 0))
    monoid = FiniteCommMonoid(labels, table, identity)
    require_valid_monoid(monoid)
    if find_absorbing(monoid) != classification.index_of(QuadraticAlgebra(ring, 0, 0)):
        raise InternalCheckError("class of (0,0) is not absorbing")
    return monoid


def separable_square_check(s: QuadraticAlgebra) -> bool:
    """For separable S, S*S must be isomorphic to the identity algebra (1, 0)."""
    if not s.is_separable():
        raise ValueError(f"{s!r} is not separable")
    identity = QuadraticAlgebra(s.ring, 1, 0)
    return is_isomorphic(star_product(s, s), identity) is not None


def integer_algebra_for_disc(d: int) -> QuadraticAlgebra:
    """The standard quadratic algebra over Z of discriminant d = 0, 1 mod 4.

    d = 0 gives Z[x]/(x^2); a nonzero square d gives Z[x]/(x^2 - sqrt(d)x);
    otherwise Z[(d + sqrt(d))/2], i.e. (t, n) = (d, (d^2 - d)/4).
    """
    if d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a discriminant over Z")
    ring = IntegerRing()
    if d == 0:
        return QuadraticAlgebra(ring, 0, 0)
    if d > 0:
        root = math.isqrt(d)
        if root * root == d:
            return QuadraticAlgebra(ring, root, 0)
    return QuadraticAlgebra(ring, d, (d * d - d) // 4)

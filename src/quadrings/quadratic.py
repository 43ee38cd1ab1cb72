"""Free quadratic algebras with basis over a commutative ring.

An algebra is encoded by the pair (t, n) meaning R[x]/(x^2 - tx + n); t is
the trace of x and n its norm.  The module provides element arithmetic, the
standard involution, discriminants, the monoid product

    (t, n) * (s, m) = (s t, m t^2 + n s^2 - 4 n m),

basis changes x -> u(x + r) acting by (t, n) -> (u(t+2r), u^2(n+tr+r^2)),
isomorphism testing, and full classification over finite rings as orbits of
that action on R^2.

The orbit loops (classify, the class index, the star table of the classes)
run on the int codes of the ring's kernel (rings.Kernel), not on element
objects: an element's code is its index in ring.elements(), and a pair
(t, n) is the int t*|R| + n.  RingElement and QuadraticAlgebra stay the
input and output types.  The sums in the orbit loops and the star table
are add-row lookups, and each ring product is taken once per call: classify
composes the unit rows (at most log2|U|*|R| products) and builds translates
once per distinct trace (|R| products each), and the star table multiplies
each distinct row value by each distinct column value once.
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

    The trace fixes r up to the unit: u(t + 2r) = t' forces 2r = u^-1 t' - t.
    Over a finite ring only those r are tried, for each unit in order, on
    canonical values, so the witness is the first one in basis_change_group
    order and only the norm u^2(n + tr + r^2) = n' is left to test.  Over Z,
    u is +/-1 and r is the one solution of that equation, if any.
    """
    if s.ring != t.ring:
        raise MixedRingError("isomorphism testing requires a common ring")
    ring = s.ring
    if ring.is_finite:
        mul, add, neg = ring._mul, ring._add, ring._neg
        halves: dict = {}
        for r in ring._values():
            halves.setdefault(add(r, r), []).append(r)
        tv, nv, t2, n2 = s.t.value, s.n.value, t.t.value, t.n.value
        for u in ring._unit_values():
            unit = RingElement(ring, u)
            inverse = ring.inverse_of_unit(unit).value
            uu = mul(u, u)
            for r in halves.get(add(mul(inverse, t2), neg(tv)), ()):
                # The norm of apply_basis_change(s, BasisChange(u, r)).
                if mul(uu, add(nv, add(mul(tv, r), mul(r, r)))) == n2:
                    return BasisChange(unit, RingElement(ring, r))
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
    """One isomorphism class from a classification.

    A class keeps its canonical representative, its orbit size and its
    discriminant.  The orbit itself lives only in the classification's
    ClassMap; orbit_pairs lists it, sorted, on first read.
    """

    def __init__(self, rep: QuadraticAlgebra, orbit_size: int,
                 disc: RingElement, class_map: ClassMap, index: int):
        """disc is rep.disc(), which classify computes on canonical values."""
        self.rep = rep
        self.orbit_size = orbit_size
        self.disc = disc
        self.separable = rep.ring.is_unit(disc)
        self._class_map = class_map
        self._index = index

    @property
    def orbit_pairs(self) -> list:
        """The pairs (t, n) of the class, in (t, n) sort-key order."""
        return self._class_map.pairs()[self._index]

    @property
    def label(self) -> str:
        return self.rep.label()

    def __repr__(self):
        return f"IsoClass({self.label}, orbit_size={self.orbit_size})"


class ClassMap:
    """The class index of every pair (t, n) over a finite ring: class_at is
    a flat list over pair codes t*|R| + n, and code maps canonical values to
    element codes.  It is the only record of the orbits; the first call of
    codes() or pairs() lists every class's orbit from it in one pass, as
    increasing pair codes or as sorted (t, n) pairs of ring elements.

    It holds no class, so an IsoClass reaches its orbit through it without
    a reference cycle, and a classification is freed as soon as it is
    dropped.
    """

    def __init__(self, ring: Ring, code: dict, class_at: list[int]):
        self.ring, self.code, self.class_at = ring, code, class_at
        self._codes = self._pairs = None

    def codes(self) -> list[list[int]]:
        if self._codes is None:
            orbits = [[] for _ in range(max(self.class_at) + 1)]
            appends = [orbit.append for orbit in orbits]
            for c, k in enumerate(self.class_at):
                appends[k](c)
            self._codes = orbits
        return self._codes

    def pairs(self) -> list[list[tuple[RingElement, RingElement]]]:
        if self._pairs is None:
            elements = [RingElement(self.ring, v) for v in self.code]
            size = len(elements)
            self._pairs = [[(elements[c // size], elements[c % size])
                            for c in codes] for codes in self.codes()]
        return self._pairs


class Classification:
    """All isomorphism classes of quadratic algebras over a finite ring.

    Classes are sorted by the canonical representative, the lexicographically
    least (t, n) in the orbit, so output is deterministic.  Classes are
    looked up in class_map, which also lists the orbits on first use.  The
    star table is built once, on first use.
    """

    def __init__(self, ring: Ring, classes: list[IsoClass],
                 class_map: ClassMap):
        self.ring = ring
        self.classes = classes
        self.class_map = class_map
        self._star = None

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def index_of(self, algebra: QuadraticAlgebra) -> int:
        if algebra.ring is not self.ring and algebra.ring != self.ring:
            raise KeyError(f"{algebra!r} is not over {self.ring!r}")
        return self.index_of_values(algebra.t.value, algebra.n.value)

    def index_of_values(self, t, n) -> int:
        """Class index of the pair of canonical values (t, n) of this ring."""
        code = self.class_map.code
        return self.class_map.class_at[code[t] * len(code) + code[n]]

    def class_of(self, algebra: QuadraticAlgebra) -> IsoClass:
        return self.classes[self.index_of(algebra)]

    def star_table(self) -> tuple[tuple[int, ...], ...]:
        """Class index of rep_i * rep_j, for every pair of classes.

        The star product of the representatives is taken on canonical values
        as (t, n) * (s, m) = (st, d*m + n*s^2), with d = t^2 - 4n the class's
        stored disc and s^2 read from the ring's kernel.  Many classes share a
        trace, a disc or a norm, so each distinct row value is multiplied by
        each distinct column value once, and rows with equal values share the
        product list; the sum d*m + n*s^2 is one add-row lookup.  The table is
        built once per classification; its rows are tuples, so every caller
        reads the same table.
        """
        if self._star is not None:
            return self._star
        ring = self.ring
        kernel, mul = ring.kernel(), ring._mul
        code, class_at = kernel.code, self.class_map.class_at
        add_row, size = kernel.add_row, len(code)
        ts = [c.rep.t.value for c in self.classes]
        ns = [c.rep.n.value for c in self.classes]
        columns = {"s": ts, "m": ns,
                   "ss": [kernel.values[kernel.square[code[s]]] for s in ts]}
        memo: dict = {}

        def times(a, name):
            """[code(a * c) for c in the column], one product per distinct c."""
            row = memo.get((a, name))
            if row is None:
                column = columns[name]
                by_value = {c: code[mul(a, c)] for c in set(column)}
                row = memo[(a, name)] = [by_value[c] for c in column]
            return row

        self._star = tuple(
            tuple([class_at[st * size + add_row(dm)[nss]]
                   for st, dm, nss in zip(times(t, "s"), times(c.disc.value, "m"),
                                          times(n, "ss"))])
            for t, n, c in zip(ts, ns, self.classes))
        return self._star


def classify(ring: Ring) -> Classification:
    """Orbits of the basis changes x -> u(x + r) on all pairs (t, n) in R^2.

    The basis changes form a group, since x -> u1(x + r1) followed by
    x -> u2(x + r2) is (u1 u2, r1 + u1^-1 r2), so the orbit of one seed is
    its whole class.  It is the union over units u of u.T, where
    T = {(t+2r, n+tr+r^2) : r in R} are the seed's translates and u acts by
    (a, b) -> (ua, u^2 b).  Everything runs on the int codes of the ring's
    kernel, whose table of r^2 costs |R| products when first built, and
    each ring product is taken once per call:

    - The multiplication rows row_u[c] = code(u * x_c) compose, as
      row_uk = row_u o row_k.  A unit outside the subgroup K of units whose
      rows are known costs one direct row of |R| products; K is then closed
      under it by index lookups, since <K, u> = {k u^j}.  Each direct row
      at least doubles K, so the rows cost at most log2|U| * |R| products.
    - Seeds come in increasing pair code, so in runs of equal trace t.  The
      codes of t + 2r come from t's add row, and tr + r^2 = r(t + r) costs
      |R| products once per distinct trace; each seed then reads its
      translates off n's add row, with no ring operation.
    - Each u.T is the translate orbit of u.seed, so it is either new or
      already in the orbit: |U| membership tests and one row lookup per
      orbit pair.

    Each seed is the least code of its orbit, the canonical representative,
    so classes come out sorted.  Per orbit pair only its class index is
    written to the class map; orbit_pairs is listed from that map on demand.
    """
    if not ring.is_finite:
        raise InfiniteRingError("classification requires a finite ring")
    require_enumerable(ring.size ** 2, f"pairs (t, n) over {ring!r}")
    kernel = ring.kernel()
    values, code, square, add_row = (kernel.values, kernel.code, kernel.square,
                                     kernel.add_row)
    size = len(values)
    mul, add, neg = ring._mul, ring._add, ring._neg
    four = ring.element(4).value
    units = kernel.units
    rows = {code[ring.one.value]: add_row(0)}    # x -> 1*x = 0 + x
    for cu in units:
        if cu in rows:
            continue
        u = values[cu]
        row_u = [code[mul(u, x)] for x in values]
        coset = list(rows)
        # The cosets K u^j are disjoint until the first one that is K again.
        while row_u[coset[0]] not in rows:
            for k in coset:
                rows[row_u[k]] = [row_u[c] for c in rows[k]]
            coset = [row_u[k] for k in coset]
    actions = [(rows[cu], rows[rows[cu][cu]]) for cu in units]    # u, u^2
    doubles = kernel.multiple_row(2)
    class_at = [-1] * (size * size)
    classes: list[IsoClass] = []
    class_map = ClassMap(ring, code, class_at)
    a_prev = -1
    for seed in range(size * size):
        if class_at[seed] >= 0:
            continue
        a0, b0 = divmod(seed, size)
        if a0 != a_prev:
            a_prev, plus_t = a0, add_row(a0)
            # apply_basis_change with u = 1: (t + 2r, n + tr + r^2), and
            # tr + r^2 = r(t + r).
            t_codes = [plus_t[r2] for r2 in doubles]
            n_shifts = [code[mul(r, values[tr])] for r, tr in zip(values, plus_t)]
        plus_n = add_row(b0)
        translates = {(a, plus_n[v]) for a, v in zip(t_codes, n_shifts)}
        orbit = set()
        for row_t, row_n in actions:
            # u.T is the translate orbit of u.seed, as u(x + r) = ux + ur,
            # so it is already in the orbit or disjoint from it.
            if row_t[a0] * size + row_n[b0] not in orbit:
                orbit.update([row_t[a] * size + row_n[b] for a, b in translates])
        index = len(classes)
        for c in orbit:
            class_at[c] = index
        disc = RingElement(ring, add(values[square[a0]], neg(mul(four, values[b0]))))
        rep = QuadraticAlgebra(ring, RingElement(ring, values[a0]),
                               RingElement(ring, values[b0]))
        classes.append(IsoClass(rep, len(orbit), disc, class_map, index))
    # Overlapping orbits (G not a group) would push the sum above |R|^2.
    total = sum(c.orbit_size for c in classes)
    if total != size ** 2:
        raise InternalCheckError(
            f"orbit sizes sum to {total}, expected {size ** 2}",
            {"ring": ring.spec_string(), "total": total, "expected": size ** 2})
    return Classification(ring, classes, class_map)


def quad_monoid(ring: Ring, classification: Classification) -> FiniteCommMonoid:
    """The commutative monoid of isomorphism classes under the star product.

    The table is classification.star_table(), induced by the product on
    canonical representatives; the result is validated before being
    returned, and the class of (0, 0) is checked to be absorbing.
    """
    labels = [c.label for c in classification]
    table = classification.star_table()
    identity = classification.index_of(QuadraticAlgebra(ring, 1, 0))
    monoid = FiniteCommMonoid(labels, table, identity)
    require_valid_monoid(monoid)
    zero = classification.index_of(QuadraticAlgebra(ring, 0, 0))
    absorbing = find_absorbing(monoid)
    if absorbing != zero:
        raise InternalCheckError(
            "class of (0,0) is not absorbing",
            {"ring": ring.spec_string(), "zero_class": labels[zero],
             "absorbing": None if absorbing is None else labels[absorbing]})
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

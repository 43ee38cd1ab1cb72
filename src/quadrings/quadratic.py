"""Free quadratic algebras with basis over a commutative ring.

An algebra is encoded by the pair (t, n) meaning R[x]/(x^2 - tx + n); t is
the trace of x and n its norm.  The module provides element arithmetic, the
standard involution, discriminants, the monoid product

    (t, n) * (s, m) = (s t, m t^2 + n s^2 - 4 n m),

basis changes x -> u(x + r) acting by (t, n) -> (u(t+2r), u^2(n+tr+r^2)),
isomorphism testing, and full classification over finite rings as orbits of
that action on R^2.

The orbit loops (classify, the class map, the star table of the classes)
run on the int codes of the ring's kernel (rings.Kernel), not on element
objects: an element's code is its index in ring.elements().  RingElement
and QuadraticAlgebra stay the input and output types.  classify splits the
pairs into trace orbits and one slice {t0} x R per orbit, so it classifies
|R| * (trace orbits) slice points, not |R|^2 pairs, and its class map keeps
O(|R|) ints per trace orbit; other modules read classes only through
ClassMap.row.  Sums are add-row lookups, and each ring product is taken
once per call: classify composes the unit rows (at most log2|U|*|R|
products) and takes |2R| + log2|R[2]| products per trace orbit, and the
star table multiplies each distinct row value by each distinct column
value once.
"""

from __future__ import annotations

import math
import operator

from .errors import InfiniteRingError, InternalCheckError, MixedRingError
from .rings import (IntegerRing, Ring, RingElement, _walk_cosets, require_enumerable,
                    require_ring)


class QuadraticAlgebra:
    """R[x]/(x^2 - tx + n), immutable."""

    __slots__ = ("ring", "t", "n")

    def __init__(self, ring: Ring, t, n):
        _set_algebra_ring(self, ring)
        _set_t(self, ring.element(t))
        _set_n(self, ring.element(n))

    def __setattr__(self, name, value):
        raise AttributeError("algebras are immutable")

    def disc(self) -> RingElement:
        """Discriminant t^2 - 4n; always a square mod 4R, witnessed by t."""
        ring, t, n = self.ring, self.t.value, self.n.value
        mul = ring._mul
        return RingElement(ring, ring._sub(mul(t, t), mul(ring.canonicalize(4), n)))

    def is_separable(self) -> bool:
        return self.ring.is_unit(self.disc())

    def element(self, a, b) -> AlgebraElement:
        return AlgebraElement(self, a, b)

    @property
    def x(self) -> AlgebraElement:
        return AlgebraElement(self, 0, 1)

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
    """a + b*x in a quadratic algebra; closed under x^2 = tx - n.

    Sums, differences, negation, products, the conjugate, the trace and the
    norm are computed on canonical values with the ring's _add, _sub, _neg
    and _mul, and the result's slots are filled with those values, so no
    intermediate RingElement is built.  An operand that is not an element
    of this algebra goes through _coerce, which raises MixedRingError for
    another algebra and, through the ring's canonicalize, TypeError for a
    float.  A ring element or an int on the left is taken by the reflected
    operators, since a ring element's own operator returns NotImplemented.
    """

    __slots__ = ("algebra", "a", "b")

    def __init__(self, algebra: QuadraticAlgebra, a, b):
        ring = algebra.ring
        _set_algebra(self, algebra)
        _set_a(self, ring.element(a))
        _set_b(self, ring.element(b))

    def __setattr__(self, name, value):
        raise AttributeError("algebra elements are immutable")

    def _coerce(self, other) -> AlgebraElement:
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise MixedRingError("elements of different algebras")
            return other
        return AlgebraElement(self.algebra, other, 0)

    def __add__(self, other):
        other = self._coerce(other)
        algebra = self.algebra
        add = algebra.ring._add
        return _element_of(algebra, add(self.a.value, other.a.value),
                           add(self.b.value, other.b.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        algebra = self.algebra
        sub = algebra.ring._sub
        return _element_of(algebra, sub(self.a.value, other.a.value),
                           sub(self.b.value, other.b.value))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        algebra = self.algebra
        neg = algebra.ring._neg
        return _element_of(algebra, neg(self.a.value), neg(self.b.value))

    def __mul__(self, other):
        """(a + bx)(c + dx) = (ac - bd n) + (ad + bc + bd t)x."""
        other = self._coerce(other)
        algebra = self.algebra
        ring = algebra.ring
        mul, add = ring._mul, ring._add
        a, b, c, d = self.a.value, self.b.value, other.a.value, other.b.value
        bd = mul(b, d)
        return _element_of(algebra, ring._sub(mul(a, c), mul(bd, algebra.n.value)),
                           add(add(mul(a, d), mul(b, c)), mul(bd, algebra.t.value)))

    __rmul__ = __mul__

    def conjugate(self) -> AlgebraElement:
        """Standard involution x -> t - x: a + bx -> (a + bt) - bx."""
        algebra = self.algebra
        ring = algebra.ring
        a, b = self.a.value, self.b.value
        return _element_of(algebra, ring._add(a, ring._mul(b, algebra.t.value)),
                           ring._neg(b))

    def trace(self) -> RingElement:
        """self + conjugate(self) = 2a + bt, landing in R."""
        algebra = self.algebra
        ring, a = algebra.ring, self.a.value
        return RingElement(ring, ring._add(ring._add(a, a),
                                           ring._mul(self.b.value, algebra.t.value)))

    def norm(self) -> RingElement:
        """self * conjugate(self) = a(a + bt) + b^2 n, landing in R."""
        algebra = self.algebra
        ring = algebra.ring
        mul, add = ring._mul, ring._add
        a, b = self.a.value, self.b.value
        return RingElement(ring, add(mul(a, add(a, mul(b, algebra.t.value))),
                                     mul(mul(b, b), algebra.n.value)))

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return (self.algebra == other.algebra
                    and self.a == other.a and self.b == other.b)
        return NotImplemented

    def __hash__(self):
        return hash((self.algebra, self.a, self.b))

    def __repr__(self):
        return f"({self.a}) + ({self.b})x in {self.algebra!r}"


# The slots' own setters, as for RingElement: __init__ fills the slots
# without the blocked __setattr__ or object.__setattr__'s lookup by name.
_set_algebra_ring = QuadraticAlgebra.ring.__set__
_set_t = QuadraticAlgebra.t.__set__
_set_n = QuadraticAlgebra.n.__set__
_set_algebra = AlgebraElement.algebra.__set__
_set_a = AlgebraElement.a.__set__
_set_b = AlgebraElement.b.__set__


def _element_of(algebra: QuadraticAlgebra, a, b) -> AlgebraElement:
    """The element a + bx of algebra from canonical values a and b of its ring."""
    ring, element = algebra.ring, object.__new__(AlgebraElement)
    _set_algebra(element, algebra)
    _set_a(element, RingElement(ring, a))
    _set_b(element, RingElement(ring, b))
    return element


class BasisChange:
    """The substitution x -> u(x + r) with u a unit."""

    __slots__ = ("u", "r")

    def __init__(self, u: RingElement, r: RingElement):
        """r is read in u's ring: an int, or an element of an equal ring."""
        if not u.ring.is_unit(u):
            raise ValueError(f"basis change requires a unit, got {u!r}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "r", u.ring.element(r))

    def __setattr__(self, name, value):
        raise AttributeError("basis changes are immutable")

    def __eq__(self, other):
        return (isinstance(other, BasisChange)
                and self.u == other.u and self.r == other.r)

    def __repr__(self):
        return f"BasisChange(u={self.u}, r={self.r})"


def star_product(s: QuadraticAlgebra, t: QuadraticAlgebra) -> QuadraticAlgebra:
    """Monoid product: (t,n)*(s,m) = (st, mt^2 + ns^2 - 4nm), on canonical values."""
    require_ring(s.ring, t)
    ring, tt, nn, ss, mm = s.ring, s.t.value, s.n.value, t.t.value, t.n.value
    mul = ring._mul
    n = ring._sub(ring._add(mul(mm, mul(tt, tt)), mul(nn, mul(ss, ss))),
                  mul(ring.canonicalize(4), mul(nn, mm)))
    return QuadraticAlgebra(ring, RingElement(ring, mul(ss, tt)), RingElement(ring, n))


def apply_basis_change(s: QuadraticAlgebra, g: BasisChange) -> QuadraticAlgebra:
    """(t, n) -> (u(t+2r), u^2(n + tr + r^2)), on canonical values; u and r
    must lie in s's ring (MixedRingError otherwise)."""
    ring = s.ring
    mul, add = ring._mul, ring._add
    u, r, t, n = ring.canonicalize(g.u), ring.canonicalize(g.r), s.t.value, s.n.value
    return QuadraticAlgebra(
        ring, RingElement(ring, mul(u, add(t, add(r, r)))),
        RingElement(ring, mul(mul(u, u), add(add(n, mul(t, r)), mul(r, r)))))


def basis_change_group(ring: Ring) -> list[BasisChange]:
    """All basis changes of a finite ring, in canonical order."""
    if not ring.is_finite:
        raise InfiniteRingError("enumeration requires a finite ring")
    return [BasisChange(u, r) for u in ring.units() for r in ring.elements()]


def is_isomorphic(s: QuadraticAlgebra, t: QuadraticAlgebra):
    """A BasisChange g with apply_basis_change(s, g) = t, or None.

    A basis change x -> u(x + r) multiplies the discriminant by u^2, and the
    trace fixes r up to the unit: u(t + 2r) = t' forces 2r = u^-1 t' - t.
    Over a finite ring the values u are walked in canonical order, and one
    is kept only if u^2 disc(s) = disc(t) (two products, or u^2 alone when
    disc(s) is a unit), then only if it is a unit (ring._inverse, which
    builds no table); for it, with v = u^-1, the solutions r of the trace
    equation 2r = v t' - t (ring._halves, in canonical order) are tried,
    and only the norm n + tr + r^2 = v^2 n' is left to test, one product
    per r.  The first unit to meet a right-hand side y = v t' - t walks
    its solutions up to the first witness, and a walk that finds none
    keeps each norm with its least r, so every later unit with that y
    takes one lookup: where 2 is a zero divisor, many units share a y
    with many solutions.  Every witness meets the first two conditions,
    so the one returned is the first in basis_change_group order.  The
    loop runs on canonical values, and elements are built for the witness
    alone.  Over Z, u is +/-1 and r is the one solution of the trace
    equation, if any.
    """
    ring = s.ring
    require_ring(ring, t)
    if ring.is_finite:
        mul, add, inverse, halves = ring._mul, ring._add, ring._inverse, ring._halves
        tv, nv, t2, n2 = s.t.value, s.n.value, t.t.value, t.n.value
        disc_s, disc_t, minus_t = s.disc().value, t.disc().value, ring._neg(tv)
        w = inverse(disc_s)    # then u^2 disc(s) = disc(t) iff u^2 = disc(t) w
        target = disc_t if w is None else mul(disc_t, w)
        walked: dict = {}    # y -> {n + tr + r^2: its least r} over 2r = y
        for u in ring._values():
            uu = mul(u, u)
            if (uu if w is not None else mul(uu, disc_s)) != target:
                continue
            v = inverse(u)
            if v is None:
                continue
            y, want = add(mul(v, t2), minus_t), mul(mul(v, v), n2)
            norms = walked.get(y)
            if norms is None:
                norms = walked[y] = {}
                for r in halves(y):
                    # v^2 times the norm of apply_basis_change(s, BasisChange(u, r))
                    norms.setdefault(add(nv, mul(add(tv, r), r)), r)
                    if want in norms:
                        break
            if want in norms:
                return BasisChange(RingElement(ring, u), RingElement(ring, norms[want]))
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
    ClassMap; orbit_pairs lists it, sorted, on first read.  The label is
    formatted on first read and kept, so the reports of a classification
    format each label once.
    """

    _label = None

    def __init__(self, rep: QuadraticAlgebra, orbit_size: int,
                 disc: RingElement, class_map: ClassMap, index: int):
        """disc is rep.disc(), which classify reads off the kernel's codes."""
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
        label = self._label
        if label is None:
            label = self._label = self.rep.label()
        return label

    def __repr__(self):
        return f"IsoClass({self.label}, orbit_size={self.orbit_size})"


class ClassMap:
    """The class index of every pair (t, n) over a finite ring, held as one
    slice per trace orbit instead of |R|^2 indices.

    The least trace t0 of the k-th trace orbit owns slices[k], the class of
    (t0, n) for every code n.  For every trace y the trace table holds
    slice_of[y], its orbit, and the move of one basis change (u, r) that
    takes t0 to y: back[y], the multiplication row of u^-2, and shift[y],
    the code of -c with c = t0 r + r^2.  That basis change takes (t0, n) to
    (y, u^2 (n + c)), so (y, m) lies in the class of (t0, u^-2 m - c).

    row(y) lists the class of every (y, m) from 2|R| lookups with no ring
    operation, on first use, and keeps it; every class lookup, the fiber
    reports' included, goes through it.  The first call of pairs() lists
    every class's orbit from the rows in one pass, as (t, n) pairs of ring
    elements in code order, which is sort-key order.  It holds no class, so
    an IsoClass reaches its orbit through it without a reference cycle,
    and a classification is freed as soon as it is dropped.
    """

    def __init__(self, ring: Ring, slice_of: list[int], back: list,
                 shift: list[int], slices: list[list[int]]):
        self.ring, self.slices = ring, slices
        self.slice_of, self.back, self.shift = slice_of, back, shift
        self._rows: list = [None] * len(slice_of)
        self._pairs = None

    def row(self, y: int) -> list[int]:
        """The class of (y, m) for every code m."""
        row = self._rows[y]
        if row is None:
            plus = self.ring.kernel().add_row(self.shift[y])
            slice_ = self.slices[self.slice_of[y]]
            row = self._rows[y] = [slice_[plus[x]] for x in self.back[y]]
        return row

    def pairs(self) -> list[list[tuple[RingElement, RingElement]]]:
        if self._pairs is None:
            elements = [RingElement(self.ring, v) for v in self.ring.kernel().values]
            self._pairs = [[] for _ in range(1 + max(map(max, self.slices)))]
            appends = [orbit.append for orbit in self._pairs]
            for y, t in enumerate(elements):
                for n, k in zip(elements, self.row(y)):
                    appends[k]((t, n))
        return self._pairs


class Classification:
    """All isomorphism classes of quadratic algebras over a finite ring.

    Classes are sorted by the canonical representative, the lexicographically
    least (t, n) in the orbit, so output is deterministic.  Classes are
    looked up in class_map, which also lists the orbits on first use.  The
    star table is built once, on first use.

    derived is the slot where discriminants and artin_schreier keep what
    they read off this classification, each built on first use: the disc
    map (the disc class of each class and the fibre of each disc class),
    the disc-hom verdict, and the fibre report over each disc class, with
    its orbit count and bound, checked and kept with no disc class.  It
    holds only ints, strings, bools and lists, dicts, tuples and fibre
    reports of them, so it keeps no reference to the ring or a class.
    """

    def __init__(self, ring: Ring, classes: list[IsoClass],
                 class_map: ClassMap):
        self.ring = ring
        self.classes = classes
        self.class_map = class_map
        self._star = None
        self.derived: dict = {}

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def index_of(self, algebra: QuadraticAlgebra) -> int:
        """Class index of an algebra over this ring, read off the class
        map; an algebra over another ring raises MixedRingError."""
        require_ring(self.ring, algebra)
        code = self.ring.kernel().code
        return self.class_map.row(code[algebra.t.value])[code[algebra.n.value]]

    def labels(self) -> list[str]:
        """Every class's label, the text of IsoClass.label.

        Classes share many traces and norms, so each distinct value is
        formatted once per call; each class keeps its label, as on a first
        read of IsoClass.label.
        """
        texts, element_text, labels = {}, self.ring.element_text, []
        for c in self.classes:
            label = c._label
            if label is None:
                t, n = c.rep.t.value, c.rep.n.value
                t_text = texts.get(t)
                if t_text is None:
                    t_text = texts[t] = element_text(t)
                n_text = texts.get(n)
                if n_text is None:
                    n_text = texts[n] = element_text(n)
                label = c._label = f"({t_text},{n_text})"
            labels.append(label)
        return labels

    def star_table(self) -> tuple[tuple[int, ...], ...]:
        """Class index of rep_i * rep_j, for every pair of classes.

        The star product of the representatives is taken on canonical values
        as (t, n) * (s, m) = (st, n*s^2 + d*m), with d = t^2 - 4n the class's
        stored disc and s^2 read from the ring's kernel.  Classes share many
        traces, norms and discs, so their codes are numbered once and each
        distinct pair of codes is multiplied once, into plain lists that the
        numbers index: st as class rows and n*s^2 as add rows, so an entry
        is the class, in the row of st, of d*m read in the add row of n*s^2.
        The table is built once per classification; its rows are tuples, so
        every caller reads the same table.
        """
        if self._star is not None:
            return self._star
        kernel, mul = self.ring.kernel(), self.ring._mul
        code, values = kernel.code, kernel.values

        def products(rows, columns, read=None):
            """read(code(a * b)), or the code, for each a in rows and b in columns."""
            columns = [values[b] for b in columns]
            table = [[code[mul(values[a], b)] for b in columns] for a in rows]
            return [list(map(read, got)) for got in table] if read else table

        classes = self.classes
        traces = [code[c.rep.t.value] for c in classes]
        (ts, t_of), (ss, s_of), (ns, n_of), (ds, d_of) = map(_numbered, (
            traces, [kernel.square[t] for t in traces],
            [code[c.rep.n.value] for c in classes], [code[c.disc.value] for c in classes]))
        st, nss, dm = (products(ts, ts, self.class_map.row),
                       products(ns, ss, kernel.add_row), products(ds, ns))
        numbers = list(zip(t_of, s_of, n_of))
        self._star = tuple(
            tuple([crow[t][plus[s][dmrow[n]]] for t, s, n in numbers])
            for crow, plus, dmrow in zip([st[k] for k in t_of], [nss[k] for k in n_of],
                                         [dm[k] for k in d_of]))
        return self._star


def _numbered(codes: list[int]) -> tuple[list[int], list[int]]:
    """The distinct codes, in order of first appearance, and each code's number."""
    number = {c: k for k, c in enumerate(dict.fromkeys(codes))}
    return list(number), [number[c] for c in codes]


def classify(ring: Ring) -> Classification:
    """Orbits of the basis changes x -> u(x + r) on all pairs (t, n) in R^2.

    The basis changes form a group G, since x -> u1(x + r1) followed by
    x -> u2(x + r2) is (u1 u2, r1 + u1^-1 r2).  G moves traces by
    t -> u(t + 2r), so the trace orbits are unions of cosets u(t0 + 2R),
    and by orbit and stabilizer each orbit of pairs is the trace orbit of
    its least trace t0 times one orbit of the stabilizer H of t0 on the
    slice {t0} x R.  Everything runs on the int codes of the ring's kernel,
    and each ring product is taken once per call:

    - The multiplication rows row_u[c] = code(u * x_c) compose, as
      row_uk = row_u o row_k.  A unit outside the subgroup K of units whose
      rows are known costs one direct row of |R| products; K is then closed
      under it by index lookups, since <K, u> = {k u^j}.  Each direct row
      at least doubles K, so the rows cost at most log2|U| * |R| products.
    - Traces come in increasing code, so the first one not yet placed is
      the least t0 of its orbit.  A unit u that reaches a new coset places
      each y = u(t0 + 2r) in the class map's trace table with the move
      (u^-2, -c), c = t0 r + r^2 = r(t0 + r).  c depends on 2r alone, as r
      is the least half of 2r, so it costs |2R| products per trace orbit.
    - H = {(u, r) : u(t0 + 2r) = t0}.  Its members (1, a) with 2a = 0
      translate n by S = {t0 a + a^2}, an additive subgroup, so H acts on
      the cosets n + S.  Each is labelled by its least member from one add
      row per generator of S, at one product per generator of R[2].
    - The rest of H acts through the group of units v with v t0 in t0 + 2R:
      the trace table's move for v^-1 sends n to v^2 n - c.  Each slice
      orbit is the closure of its least coset under the moves of the
      generators of that group, |R| lookups each.

    A class is (t0, least n of its slice orbit), the canonical
    representative, so classes come out sorted, and its orbit size is
    |trace orbit| * |slice orbit|.  The class map keeps the trace table and
    one slice table per trace orbit, and lists the orbits on demand.
    """
    if not ring.is_finite:
        raise InfiniteRingError("classification requires a finite ring")
    require_enumerable(ring.size ** 2, "pairs (t, n) over {!r}".format, ring)
    kernel = ring.kernel()
    values, code, square, add_row = (kernel.values, kernel.code, kernel.square,
                                     kernel.add_row)
    size = len(values)
    mul = ring._mul
    units, one = kernel.units, code[ring.one.value]
    rows = {one: add_row(0)}    # x -> 1*x = 0 + x
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
    doubles, negative = kernel.multiple_row(2), kernel.multiple_row(-1)
    half: dict = {}    # code(2r) -> code of the least r
    for r, d in enumerate(doubles):
        half.setdefault(d, r)
    # the members of R[2] that grow its span generate it
    torsion = kernel.span([a for a, d in enumerate(doubles) if d == 0])[1]
    # the RingElement of a code, made when a rep or disc first needs it and
    # shared by the classes that hold that value
    elements: list = [None] * size

    def element(c: int) -> RingElement:
        e = elements[c]
        if e is None:
            e = elements[c] = RingElement(ring, values[c])
        return e

    minus_four = kernel.multiple_row(-4)
    slice_of, back, shift = [-1] * size, [None] * size, [0] * size
    slices: list = []
    classes: list[IsoClass] = []
    class_map = ClassMap(ring, slice_of, back, shift, slices)
    for t0 in range(size):
        if slice_of[t0] >= 0:
            continue
        plus_t0 = add_row(t0)
        # 2r -> code of -c, c = t0 r + r^2 = r(t0 + r) with r the least half
        minus_c = {d: negative[code[mul(values[r], values[plus_t0[r]])]]
                   for d, r in half.items()}
        coset = [plus_t0[d] for d in minus_c]    # t0 + 2r, in minus_c's order
        moves = list(minus_c.values())
        orbit = 0
        for u in units:
            row_u = rows[u]
            if slice_of[row_u[t0]] < 0:    # u(t0 + 2R) is a new coset
                row_back = rows[square[kernel.inverse[u]]]
                for z, c in zip(coset, moves):
                    y = row_u[z]
                    slice_of[y], back[y], shift[y] = len(slices), row_back, c
                orbit += len(coset)
        least, width = list(range(size)), 1    # least member of n + S, |S|
        for a in torsion:
            s = code[mul(values[a], values[plus_t0[a]])]    # t0 a + a^2
            if least[s]:
                least = list(map(min, least, [least[x] for x in add_row(s)]))
                width *= 2
        members, minus_t0 = set(coset), add_row(negative[t0])
        stabilizer, steps = {one}, []
        for v in units:
            row_v = rows[v]
            if v in stabilizer or row_v[t0] not in members:
                continue
            # v t0 = t0 + 2r, so (v^-1, r) fixes t0 and moves n to v^2 n - c
            plus = add_row(minus_c[minus_t0[row_v[t0]]])
            steps.append([least[plus[x]] for x in rows[square[v]]])
            _walk_cosets(stabilizer, row_v)
        label, plus_tt = [-1] * size, add_row(square[t0])
        for n, first in enumerate(least):
            if first != n or label[n] >= 0:
                continue
            index, found = len(classes), [n]
            label[n] = index
            for x in found:
                for step in steps:
                    y = step[x]
                    if label[y] < 0:
                        label[y] = index
                        found.append(y)
            rep = QuadraticAlgebra(ring, element(t0), element(n))
            disc = element(plus_tt[minus_four[n]])    # t0^2 - 4n
            classes.append(IsoClass(rep, orbit * width * len(found), disc,
                                    class_map, index))
        slices.append([label[x] for x in least])
    # A slip in the trace table or a slice would push the sum off |R|^2.
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
    returned, and the class of (0, 0) is checked to be absorbing.  A
    classification built for another ring raises MixedRingError.
    """
    from .monoids import FiniteCommMonoid, find_absorbing, require_valid_monoid
    require_ring(ring, classification)
    labels = classification.labels()
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
    otherwise Z[(d + sqrt(d))/2], i.e. (t, n) = (d, (d^2 - d)/4).  d is
    read through operator.index, so a float or a Fraction is a TypeError.
    """
    d = operator.index(d)
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

"""The Artin-Schreier group of a ring and its action on discriminant fibers.

AS(R) is the additive quotient R[4] / P(R)[4], where R[4] is the 4-torsion
{a : 4a = 0} and P(R)[4] = {r + r^2 : (1+2r)^2 = 1}.  It is an elementary
abelian 2-group.  The class of m embeds into quadratic classes as the algebra
(1, m), and m in R[4] acts on an algebra S = (t, n) of discriminant d by

    (t, n) -> (t, n + d*m),

which agrees exactly with S * (1, m).  On each fiber of the discriminant map
the action kernel contains the image of ann(d)[4] = {a : a*d = 0, 4a = 0}.

"sec" (square even cancellative) elements are the nonzerodivisors t for which
r^2, 2r in tR forces r in tR.  Over Z and finite rings an algebra is sec iff
its discriminant is a nonzerodivisor, and on sec algebras the fiber action is
free.

The group and the fiber reports run on canonical values with the ring's
_mul/_add/_neg; fiber_report's docstring gives what one report costs, none
of it a product per orbit pair.  Every check of the action runs on every
call, check_freeness's report included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discriminants import DiscClass
from .errors import InfiniteRingError, InternalCheckError
from .monoids import FiniteCommMonoid
from .quadratic import Classification, QuadraticAlgebra
from .rings import IntegerRing, Ring, RingElement


def four_torsion(ring: Ring) -> list[RingElement]:
    """R[4] = {a : 4a = 0} in canonical order."""
    if ring.is_finite:
        mul, four, zero = ring._mul, ring.element(4).value, ring.zero.value
        return [a for a in ring.elements() if mul(four, a.value) == zero]
    if isinstance(ring, IntegerRing):
        return [ring.zero]
    raise InfiniteRingError("4-torsion needs a finite ring or Z")


def wp4_subgroup(ring: Ring) -> list[RingElement]:
    """P(R)[4] = {r + r^2 : (1+2r)^2 = 1}, verified to be a subgroup of R[4].

    Computed and verified on canonical values.
    """
    mul, add, neg = ring._mul, ring._add, ring._neg
    if ring.is_finite:
        one, two = ring.one.value, ring.element(2).value
        members = set()
        for r in ring.elements():
            g = add(one, mul(two, r.value))
            if mul(g, g) == one:
                members.add(add(r.value, mul(r.value, r.value)))
        out = [ring.element(v) for v in sorted(members, key=ring.sort_key)]
    elif isinstance(ring, IntegerRing):
        out = [ring.zero]
    else:
        raise InfiniteRingError("needs a finite ring or Z")
    # Re-verify the subgroup axioms inside R[4].
    tors = {a.value for a in four_torsion(ring)}
    group = {a.value for a in out}
    if ring.zero.value not in group or not group <= tors:
        raise InternalCheckError("P(R)[4] is not a subset of R[4] containing 0")
    for a in out:
        if neg(a.value) not in group:
            raise InternalCheckError(f"P(R)[4] not closed under negation at {a}")
        for b in out:
            if add(a.value, b.value) not in group:
                raise InternalCheckError(f"P(R)[4] not closed under + at ({a}, {b})")
    return out


class ASGroup:
    """AS(R) = R[4] / P(R)[4] with canonical coset representatives."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.four_torsion = four_torsion(ring)
        self.wp4 = wp4_subgroup(ring)
        # Cosets are formed on canonical values; P(R)[4] lies in R[4], so
        # each coset member is one of the four_torsion elements.
        add = ring._add
        wp4_values = [w.value for w in self.wp4]
        torsion_at = {a.value: a for a in self.four_torsion}
        class_at: dict = {}
        self._class_of: dict[RingElement, int] = {}
        self.classes: list[RingElement] = []
        for a in self.four_torsion:
            if a.value in class_at:
                continue
            idx = len(self.classes)
            coset = sorted({add(a.value, w) for w in wp4_values}, key=ring.sort_key)
            for v in coset:
                class_at[v] = idx
                self._class_of[torsion_at[v]] = idx
            self.classes.append(torsion_at[coset[0]])
        zero_class = class_at[ring.zero.value]
        for rep in self.classes:
            if class_at.get(add(rep.value, rep.value)) != zero_class:
                raise InternalCheckError(
                    f"AS class of {rep} does not have order dividing 2"
                )

    @property
    def order(self) -> int:
        return len(self.classes)

    def class_of(self, a: RingElement) -> int:
        if a not in self._class_of:
            raise ValueError(f"{a!r} is not 4-torsion")
        return self._class_of[a]

    def add(self, i: int, j: int) -> int:
        return self.class_of(self.classes[i] + self.classes[j])

    @property
    def identity(self) -> int:
        return self.class_of(self.ring.zero)

    def invariant_factors(self) -> list[int]:
        count = self.order.bit_length() - 1
        if (1 << count) != self.order:
            raise InternalCheckError(
                f"AS group order {self.order} is not a power of 2"
            )
        return [2] * count

    def to_monoid(self) -> FiniteCommMonoid:
        labels = [str(rep) for rep in self.classes]
        table = [[self.add(i, j) for j in range(self.order)]
                 for i in range(self.order)]
        return FiniteCommMonoid(labels, table, self.identity)

    def __repr__(self):
        return f"ASGroup({self.ring!r}, order={self.order})"


def as_group(ring: Ring) -> ASGroup:
    return ASGroup(ring)


def as_embed(ring: Ring, m: RingElement) -> QuadraticAlgebra:
    """The algebra (1, m) representing the class of m."""
    return QuadraticAlgebra(ring, ring.one, m)


def as_act(s: QuadraticAlgebra, m: RingElement) -> QuadraticAlgebra:
    """Act by 4-torsion m: (t, n) -> (t, n + disc(S)*m); equals S * (1, m)."""
    ring = s.ring
    ring._check_mine(m)
    if ring.element(4) * m != ring.zero:
        raise ValueError(f"{m!r} is not 4-torsion")
    return QuadraticAlgebra(ring, s.t, s.n + s.disc() * m)


def annihilator_four_torsion(ring: Ring, d: RingElement) -> list[RingElement]:
    """ann(d)[4] = {a : a*d = 0 and 4a = 0}."""
    zero = ring.zero
    return [a for a in four_torsion(ring) if a * d == zero]


@dataclass
class FiberReport:
    """AS-action data on the fiber of the discriminant map over one class."""

    disc_class: DiscClass
    fiber: list[int]
    fiber_labels: list[str]
    orbits: list[list[int]]
    kernel: list[int]
    free: bool
    transitive: bool
    basis_orbit_count: int
    basis_orbit_bound: int


class _ValueTables:
    """t^2 and -4n for each code of a finite ring's elements, and the norm
    map 4n -> [n] on canonical values, with each list in canonical order.

    One fiber report builds these once, in 2|R| products, and its action
    check, basis orbit count and index bound all read them.
    """

    def __init__(self, ring: Ring):
        mul, neg, four = ring._mul, ring._neg, ring.element(4).value
        self.values = ring._values()
        self.square = [mul(t, t) for t in self.values]
        self.minus_four = []
        self.norms: dict = {}
        for n in self.values:
            q = mul(four, n)
            self.minus_four.append(neg(q))
            self.norms.setdefault(q, []).append(n)


def fiber_report(ring: Ring, d: DiscClass, classification: Classification,
                 group: ASGroup) -> FiberReport:
    """Compute the AS(R)-orbit structure of the fiber over a disc class.

    The fiber is the classes whose discriminant is u^2 d for a unit u.  Also
    re-derives, and insists on, the guarantees that come with the action: it
    descends to isomorphism classes, its kernel contains the image of
    ann(d)[4], and the with-basis orbit count over d equals
    |{t : t^2 = d mod 4R}| * |R[4] / dR[4]|.

    Everything runs on canonical values, and the fiber's orbits are read as
    pair codes from the classification's class map.  Besides the |U| + |U^2|
    products that find the fiber and the 2|R| of _ValueTables, a report takes
    |R[4]| products for dR[4] and one per distinct orbit-pair discriminant
    d' and AS class m for the shift d'*m; each orbit pair then costs one
    addition for its discriminant and one per AS class for its image.
    """
    cl, asg = classification, group
    mul, add = ring._mul, ring._add
    dv = d.d.value
    unit_squares = {mul(u, u) for u in ring._unit_values()}
    discs = {mul(s, dv) for s in unit_squares}

    fiber = [i for i, c in enumerate(cl) if c.disc.value in discs]
    fiber_pos = {ci: k for k, ci in enumerate(fiber)}

    # The action must not depend on the chosen orbit member: every orbit
    # pair (t, n) of disc d' is sent by m to (t, n + d'*m), and all the
    # images of a class must lie in one class of the fiber.
    tables = _ValueTables(ring)
    square, minus_four = tables.square, tables.minus_four
    ms = [m.value for m in asg.classes]
    shifts: dict = {}    # d' -> [d' * m for each AS class m]
    # The orbits are walked as pair codes c = a*|R| + b, with t = values[a]
    # and n = values[b]; the image (t, n + d'*m) has code c - b + code(...).
    class_map = cl.class_map
    values, code, class_at = tables.values, class_map.code, class_map.class_at
    size = len(code)
    orbit_codes = class_map.codes()
    action: list[dict[int, int]] = [{} for _ in ms]
    for ci in fiber:
        codes = orbit_codes[ci]
        bs = [c % size for c in codes]
        pair_discs = [add(square[c // size], minus_four[b])
                      for c, b in zip(codes, bs)]
        for disc in set(pair_discs).difference(shifts):
            shifts[disc] = [mul(disc, m) for m in ms]
        rows = [shifts[disc] for disc in pair_discs]
        for k, (m, images) in enumerate(zip(asg.classes, action)):
            found = {class_at[c - b + code[add(values[b], row[k])]]
                     for c, b, row in zip(codes, bs, rows)}
            if len(found) != 1:
                raise InternalCheckError(
                    f"action of {m} is not constant on class {cl[ci].label}"
                )
            target = found.pop()
            if target not in fiber_pos:
                raise InternalCheckError(
                    f"action of {m} moved {cl[ci].label} off the fiber"
                )
            images[ci] = target

    # Orbit partition of the fiber under the whole group.
    orbits: list[list[int]] = []
    placed: set[int] = set()
    for ci in fiber:
        if ci in placed:
            continue
        orbit = sorted({images[ci] for images in action})
        orbits.append([fiber_pos[c] for c in orbit])
        placed.update(orbit)

    kernel = [m_idx for m_idx, images in enumerate(action)
              if all(images[ci] == ci for ci in fiber)]
    # ann(d)[4] and dR[4], read off the group's R[4] with one product each.
    zero = ring.zero.value
    torsion_shifts = [mul(dv, a.value) for a in asg.four_torsion]
    ann_classes = {asg.class_of(a)
                   for a, s in zip(asg.four_torsion, torsion_shifts) if s == zero}
    if not ann_classes <= set(kernel):
        raise InternalCheckError(
            f"kernel misses annihilator classes for d = {d.d}"
        )

    free = all(images[ci] != ci
               for m_idx, images in enumerate(action) if m_idx != asg.identity
               for ci in fiber)
    transitive = len(orbits) == 1

    image = set(torsion_shifts)
    count = _basis_orbit_count(ring, dv, image, tables)
    bound = _basis_orbit_bound(ring, dv, len(asg.four_torsion), image, tables)
    if count != bound:
        raise InternalCheckError(
            f"with-basis orbit count {count} != index bound {bound} for d = {d.d}"
        )

    return FiberReport(disc_class=d,
                       fiber=fiber,
                       fiber_labels=[cl[i].label for i in fiber],
                       orbits=orbits,
                       kernel=kernel,
                       free=free,
                       transitive=transitive,
                       basis_orbit_count=count,
                       basis_orbit_bound=bound)


def _basis_orbit_count(ring: Ring, d, shifts: set, tables: _ValueTables) -> int:
    """Orbits of R[4] acting by (t, n) -> (t, n + d*m) on pairs of disc exactly d.

    d is a canonical value and shifts the set dR[4].  The action fixes t,
    and the norms of a trace t are {n : 4n = t^2 - d}, so the orbits among
    them depend only on t^2 - d and are walked once per distinct value.
    """
    add, minus_d = ring._add, ring._neg(d)
    norms = tables.norms
    per_key: dict = {}
    count = 0
    for tt in tables.square:
        key = add(tt, minus_d)
        orbits = per_key.get(key)
        if orbits is None:
            orbits, seen = 0, set()
            for n in norms.get(key, ()):
                if n not in seen:
                    orbits += 1
                    seen.update([add(n, s) for s in shifts])
            per_key[key] = orbits
        count += orbits
    return count


def _basis_orbit_bound(ring: Ring, d, torsion_size: int, shifts: set,
                       tables: _ValueTables) -> int:
    """|{t : t^2 = d mod 4R}| * |R[4] / dR[4]|, with shifts = dR[4].

    Counted on canonical values: t^2 = d mod 4R iff t^2 - d lies in 4R,
    the keys of the norm map.
    """
    add, minus_d = ring._add, ring._neg(d)
    norms = tables.norms
    traces = sum(1 for tt in tables.square if add(tt, minus_d) in norms)
    return traces * (torsion_size // len(shifts))


def is_sec_element(ring: Ring, t: RingElement) -> bool:
    """Nonzerodivisor t with: r^2, 2r in tR implies r in tR, for all r.

    Over Z this is t != 0 and 4 not dividing t: for t = 4m, r = 2m breaks the
    rule, and for odd t or t = 2 mod 4 it holds.  In a finite ring a
    nonzerodivisor is a unit, so tR = R and the rule holds for every r.
    """
    ring._check_mine(t)
    if isinstance(ring, IntegerRing):
        return t.value != 0 and t.value % 4 != 0
    if ring.is_finite:
        return ring.is_nonzerodivisor(t)
    raise InfiniteRingError("sec testing needs a finite ring or Z")


def is_sec_algebra(s: QuadraticAlgebra) -> bool:
    """Discriminant is a nonzerodivisor and some basis gives a sec trace.

    Over Z and over finite rings the first condition implies the second.
    Over Z the reachable traces u(t + 2r) include 1 or 2, and both are sec.
    A finite ring is a product of local rings, and its nonzerodivisors are
    its units.  In a factor where 2 is a unit some r gives t + 2r = 1; where
    2 is not a unit, a unit t^2 - 4n forces the trace t to be a unit.
    """
    ring = s.ring
    if ring.is_finite or isinstance(ring, IntegerRing):
        return ring.is_nonzerodivisor(s.disc())
    raise InfiniteRingError("sec testing needs a finite ring or Z")


def check_freeness(ring: Ring, d: DiscClass, classification: Classification,
                   group: ASGroup) -> bool:
    """True iff AS(R) acts freely on the sec members of the fiber (vacuous ok).

    Its discriminants are d times unit squares: all members are sec, or none.
    """
    report = fiber_report(ring, d, classification, group)
    return report.free or not ring.is_nonzerodivisor(d.d)

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .discriminants import DiscClass, coset_representative
from .errors import InfiniteRingError, InternalCheckError
from .monoids import FiniteCommMonoid
from .quadratic import Classification, QuadraticAlgebra
from .rings import IntegerRing, Ring, RingElement


def four_torsion(ring: Ring) -> list[RingElement]:
    """R[4] = {a : 4a = 0} in canonical order."""
    if ring.is_finite:
        four = ring.element(4)
        zero = ring.zero
        return [a for a in ring.elements() if four * a == zero]
    if isinstance(ring, IntegerRing):
        return [ring.zero]
    raise InfiniteRingError("4-torsion needs a finite ring or Z")


def wp4_subgroup(ring: Ring) -> list[RingElement]:
    """P(R)[4] = {r + r^2 : (1+2r)^2 = 1}, verified to be a subgroup of R[4]."""
    if ring.is_finite:
        one = ring.one
        two = ring.element(2)
        members = set()
        for r in ring.elements():
            g = one + two * r
            if g * g == one:
                members.add(r + r * r)
        out = sorted(members, key=lambda e: e.sort_key())
    elif isinstance(ring, IntegerRing):
        out = [ring.zero]
    else:
        raise InfiniteRingError("needs a finite ring or Z")
    # Re-verify the subgroup axioms inside R[4].
    tors = set(four_torsion(ring))
    group = set(out)
    if ring.zero not in group or not group <= tors:
        raise InternalCheckError("P(R)[4] is not a subset of R[4] containing 0")
    for a in out:
        if -a not in group:
            raise InternalCheckError(f"P(R)[4] not closed under negation at {a}")
        for b in out:
            if a + b not in group:
                raise InternalCheckError(f"P(R)[4] not closed under + at ({a}, {b})")
    return out


class ASGroup:
    """AS(R) = R[4] / P(R)[4] with canonical coset representatives."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.four_torsion = four_torsion(ring)
        self.wp4 = wp4_subgroup(ring)
        wp4_set = set(self.wp4)
        self._class_of: dict[RingElement, int] = {}
        self.classes: list[RingElement] = []
        for a in self.four_torsion:
            if a in self._class_of:
                continue
            idx = len(self.classes)
            coset = sorted({a + w for w in wp4_set}, key=lambda e: e.sort_key())
            for member in coset:
                self._class_of[member] = idx
            self.classes.append(coset[0])
        for rep in self.classes:
            if self.class_of(rep + rep) != self.class_of(self.ring.zero):
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


def fiber_report(ring: Ring, d: DiscClass, classification: Classification,
                 group: ASGroup) -> FiberReport:
    """Compute the AS(R)-orbit structure of the fiber over a disc class.

    The fiber is the classes whose discriminant is u^2 d for a unit u.  Also
    re-derives, and insists on, the guarantees that come with the action: it
    descends to isomorphism classes, its kernel contains the image of
    ann(d)[4], and the with-basis orbit count over d equals
    |{t : t^2 = d mod 4R}| * |R[4] / dR[4]|.
    """
    cl, asg = classification, group
    discs = {u * u * d.d for u in ring.units()}

    fiber = [i for i, c in enumerate(cl) if c.disc in discs]
    fiber_pos = {ci: k for k, ci in enumerate(fiber)}

    # The action must not depend on the chosen orbit member.
    action: list[dict[int, int]] = []
    for m_idx, m in enumerate(asg.classes):
        images: dict[int, int] = {}
        for ci in fiber:
            targets = {cl.index_of(as_act(QuadraticAlgebra(ring, t, n), m))
                       for t, n in cl[ci].orbit_pairs}
            if len(targets) != 1:
                raise InternalCheckError(
                    f"action of {m} is not constant on class {cl[ci].label}"
                )
            target = targets.pop()
            if target not in fiber_pos:
                raise InternalCheckError(
                    f"action of {m} moved {cl[ci].label} off the fiber"
                )
            images[ci] = target
        action.append(images)

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
    ann_classes = {asg.class_of(a)
                   for a in annihilator_four_torsion(ring, d.d)}
    if not ann_classes <= set(kernel):
        raise InternalCheckError(
            f"kernel misses annihilator classes for d = {d.d}"
        )

    free = all(images[ci] != ci
               for m_idx, images in enumerate(action) if m_idx != asg.identity
               for ci in fiber)
    transitive = len(orbits) == 1

    count = _basis_orbit_count(ring, d.d)
    bound = _basis_orbit_bound(ring, d.d)
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


def _basis_orbit_count(ring: Ring, d: RingElement) -> int:
    """Orbits of R[4] acting by (t, n) -> (t, n + d*m) on pairs of disc exactly d."""
    tors = four_torsion(ring)
    four = ring.element(4)
    pairs = {(t, n) for t in ring.elements() for n in ring.elements()
             if t * t - four * n == d}
    count = 0
    seen: set = set()
    for pair in sorted(pairs, key=lambda p: (p[0].sort_key(), p[1].sort_key())):
        if pair in seen:
            continue
        count += 1
        t, n = pair
        seen.update((t, n + d * m) for m in tors)
    return count


def _basis_orbit_bound(ring: Ring, d: RingElement) -> int:
    """|{t : t^2 = d mod 4R}| * |R[4] / dR[4]|."""
    target = coset_representative(d, 4)
    traces = sum(1 for t in ring.elements()
                 if coset_representative(t * t, 4) == target)
    tors = four_torsion(ring)
    image = {d * m for m in tors}
    return traces * (len(tors) // len(image))


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

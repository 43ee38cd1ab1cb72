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

The group and the fiber reports run on the int codes of the ring's kernel
(rings.Kernel): an addition is an add-row lookup, and the unit squares, the
tables of t^2 and -4n, the norm map 4n -> [n] and the root table t^2 -> [t]
are built once per ring, not per report.  The group keeps its code -> class
map and its identity class, and a classification formats each class label
once.  The action commutes with basis changes, so a report reads the image
of each class under each AS class off the class's representative, and reads
only the representatives' class rows.  Its checks and the group's run on
every call, check_freeness's report included; a failed one raises
InternalCheckError with a witness naming the ring, d, the class and the AS
class where they apply.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discriminants import DiscClass, require_ring
from .errors import InfiniteRingError, InternalCheckError
from .monoids import FiniteCommMonoid
from .quadratic import Classification, QuadraticAlgebra
from .rings import IntegerRing, Kernel, Ring, RingElement


def four_torsion(ring: Ring) -> list[RingElement]:
    """R[4] = {a : 4a = 0} in canonical order, read off the kernel's row of
    4x with no ring product."""
    if ring.is_finite:
        kernel = ring.kernel()
        return [RingElement(ring, kernel.values[c])
                for c, q in enumerate(kernel.multiple_row(4)) if q == 0]
    if isinstance(ring, IntegerRing):
        return [ring.zero]
    raise InfiniteRingError("4-torsion needs a finite ring or Z")


def _additive_codes(ring: Ring):
    """values, value -> code and add_row of a finite ring's kernel; over Z
    the one value 0, which is all of R[4]."""
    if ring.is_finite:
        kernel = ring.kernel()
        return kernel.values, kernel.code, kernel.add_row
    if isinstance(ring, IntegerRing):
        return [0], {0: 0}, lambda c: [0]
    raise InfiniteRingError("needs a finite ring or Z")


def _span(members, add_row) -> tuple[set[int], list[list[int]]]:
    """The subgroup of (R, +) the codes members generate, and the add rows
    of the generators taken, at most log2 of its order: each member not yet
    in the span grows it."""
    span, rows = {0}, []
    for c in members:
        if c not in span:
            rows.append(add_row(c))
            _grow(span, rows[-1:])
    return span, rows


def _grow(coset: set[int], rows: list[list[int]]) -> set[int]:
    """Grow coset, some x + H, to x + (H + <g_1, g_2, ...>), where rows are
    the add rows of the g_i: its translates by each g_i are added until
    they cycle back into it."""
    for plus in rows:
        translate = list(coset)
        while plus[translate[0]] not in coset:
            translate = [plus[x] for x in translate]
            coset.update(translate)
    return coset


def wp4_subgroup(ring: Ring) -> list[RingElement]:
    """P(R)[4] = {r + r^2 : (1+2r)^2 = 1}, verified to be a subgroup of R[4].

    Computed and verified on the codes of the ring's kernel: (1+2r)^2 is a
    lookup in the table of squares, r + r^2 = r(1 + r) one product per r
    that passes, and closure the span of the members, at most
    log2|P(R)[4]| add rows; only a set that is not closed is searched for
    a witness pair."""
    values, code, add_row = _additive_codes(ring)
    if ring.is_finite:
        kernel, mul = ring.kernel(), ring._mul
        one = code[ring.one.value]
        one_plus, twice = add_row(one), kernel.multiple_row(2)
        members = sorted({code[mul(values[r], values[one_plus[r]])]
                          for r, r2 in enumerate(twice)
                          if kernel.square[one_plus[r2]] == one})
        fours, negative = kernel.multiple_row(4), kernel.multiple_row(-1)
    else:
        members, fours, negative = [0], [0], [0]
    out = [RingElement(ring, values[c]) for c in members]
    # Re-verify the subgroup axioms inside R[4]; code 0 is the zero.
    group = set(members)
    if 0 not in group or any(fours[c] for c in members):
        raise InternalCheckError("P(R)[4] is not a subset of R[4] containing 0",
                                 {"ring": ring.spec_string()})
    closed = _span(members, add_row)[0] == group
    for a, c in zip(out, members):
        if negative[c] not in group:
            raise InternalCheckError(
                f"P(R)[4] not closed under negation at {a}",
                {"ring": ring.spec_string(), "element": a.to_json()})
        if not closed:
            row = add_row(c)
            for b, cb in zip(out, members):
                if row[cb] not in group:
                    raise InternalCheckError(
                        f"P(R)[4] not closed under + at ({a}, {b})",
                        {"ring": ring.spec_string(), "pair": [a.to_json(), b.to_json()]})
    return out


class ASGroup:
    """AS(R) = R[4] / P(R)[4] with canonical coset representatives.

    identity is the index of the class of 0, and torsion_classes the class
    of each four_torsion element, in order; class_of is one lookup by code.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.four_torsion = four_torsion(ring)
        self.wp4 = wp4_subgroup(ring)
        # Cosets are formed on codes, one add row per coset; codes sort like
        # sort keys.  P(R)[4] lies in R[4], so each coset member is one of
        # the four_torsion elements.
        _, code, add_row = _additive_codes(ring)
        self._code = code
        torsion_at = {code[a.value]: a for a in self.four_torsion}
        wp4_codes = [code[w.value] for w in self.wp4]
        self._class_at = class_at = {}    # code of an R[4] member -> class
        self.classes: list[RingElement] = []
        for a in torsion_at:
            if a in class_at:
                continue
            idx = len(self.classes)
            row = add_row(a)
            coset = sorted({row[w] for w in wp4_codes})
            for c in coset:
                class_at[c] = idx
            self.classes.append(torsion_at[coset[0]])
        self.torsion_classes = [class_at[c] for c in torsion_at]
        self.identity = class_at[0]
        for rep in self.classes:
            c = code[rep.value]
            if class_at.get(add_row(c)[c]) != self.identity:
                raise InternalCheckError(
                    f"AS class of {rep} does not have order dividing 2",
                    {"ring": ring.spec_string(), "as_class": rep.to_json()})

    @property
    def order(self) -> int:
        return len(self.classes)

    def class_of(self, a: RingElement) -> int:
        if isinstance(a, RingElement) and a.ring == self.ring:
            idx = self._class_at.get(self._code.get(a.value))
            if idx is not None:
                return idx
        raise ValueError(f"{a!r} is not 4-torsion")

    def add(self, i: int, j: int) -> int:
        return self.class_of(self.classes[i] + self.classes[j])

    def invariant_factors(self) -> list[int]:
        count = self.order.bit_length() - 1
        if (1 << count) != self.order:
            raise InternalCheckError(
                f"AS group order {self.order} is not a power of 2",
                {"ring": self.ring.spec_string(), "order": self.order})
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

    The fiber is the classes whose discriminant is u^2 d for a unit u.  The
    action commutes with basis changes (as-action-norm and
    change-of-basis-functoriality in quadrings verify), so the AS class m
    sends the class of a representative (t, n) of disc d' to the class of
    (t, n + d'm): |U^2| products for the fiber, |R[4]| for dR[4] and one
    per distinct d' and m.  Every call checks that the images lie in the
    fiber, that the kernel contains the image of ann(d)[4] and that the
    with-basis orbit count equals |{t : t^2 = d mod 4R}| * |R[4] / dR[4]|;
    the tests check the class map against a walk over every orbit pair.
    d, classification and group built for another ring raise ValueError.
    """
    require_ring(ring, d, classification, group)
    cl, asg = classification, group
    kernel, mul = ring.kernel(), ring._mul
    code, add_row = kernel.code, kernel.add_row
    dv = d.d.value
    discs = {mul(s, dv) for s in kernel.unit_squares}

    fiber = [i for i, c in enumerate(cl) if c.disc.value in discs]
    fiber_pos = {ci: k for k, ci in enumerate(fiber)}

    def witness(**more) -> dict:
        """Where a check failed, for InternalCheckError."""
        return {"ring": ring.spec_string(), "d": d.d.to_json(), **more}

    # d' -> the add row of d'm for each AS class m
    shifts = {v: [add_row(code[mul(v, m.value)]) for m in asg.classes]
              for v in {cl[ci].disc.value for ci in fiber}}
    action: list[dict[int, int]] = [{} for _ in asg.classes]
    for ci in fiber:
        c = cl[ci]
        row, n = cl.class_map.row(code[c.rep.t.value]), code[c.rep.n.value]
        for m, plus, images in zip(asg.classes, shifts[c.disc.value], action):
            target = images[ci] = row[plus[n]]
            if target not in fiber_pos:
                raise InternalCheckError(
                    f"action of {m} moved {c.label} off the fiber",
                    witness(**{"class": c.label, "as_class": m.to_json()}))

    # Orbit partition of the fiber under the whole group.
    orbits: list[list[int]] = []
    placed: set[int] = set()
    for ci in fiber:
        if ci in placed:
            continue
        orbit = sorted({images[ci] for images in action})
        orbits.append([fiber_pos[c] for c in orbit])
        placed.update(orbit)

    kernel_classes = [m_idx for m_idx, images in enumerate(action)
                      if all(images[ci] == ci for ci in fiber)]
    # ann(d)[4] and dR[4], read off the group's R[4] with one product each;
    # code 0 is the zero.
    zero = kernel.values[0]
    torsion_shifts = [mul(dv, a.value) for a in asg.four_torsion]
    ann_classes = {k for k, s in zip(asg.torsion_classes, torsion_shifts)
                   if s == zero}
    if not ann_classes <= set(kernel_classes):
        raise InternalCheckError(
            f"kernel misses annihilator classes for d = {d.d}", witness())

    free = all(images[ci] != ci
               for m_idx, images in enumerate(action) if m_idx != asg.identity
               for ci in fiber)
    transitive = len(orbits) == 1

    image = {code[s] for s in torsion_shifts}
    minus_d = code[ring._neg(dv)]
    count = _basis_orbit_count(kernel, minus_d, image)
    bound = _basis_orbit_bound(kernel, minus_d, len(asg.four_torsion), image)
    if count != bound:
        raise InternalCheckError(
            f"with-basis orbit count {count} != index bound {bound} for d = {d.d}",
            witness(count=count, bound=bound))

    return FiberReport(disc_class=d,
                       fiber=fiber,
                       fiber_labels=[cl[i].label for i in fiber],
                       orbits=orbits,
                       kernel=kernel_classes,
                       free=free,
                       transitive=transitive,
                       basis_orbit_count=count,
                       basis_orbit_bound=bound)


def _basis_orbit_count(kernel: Kernel, minus_d: int, shifts: set) -> int:
    """Orbits of R[4] acting by (t, n) -> (t, n + d*m) on pairs of disc exactly d.

    Runs on the codes of the ring's kernel: minus_d is the code of -d and
    shifts the codes of dR[4].  The action fixes t, and the norms of a
    trace t are {n : 4n = t^2 - d}, so the orbits among them depend only on
    t^2: they are walked once per distinct square of the kernel's root
    table and counted once per root, each grown from generators of dR[4].
    """
    generators = _span(sorted(shifts), kernel.add_row)[1]
    keys, norms = kernel.add_row(minus_d), kernel.norms
    count = 0
    for tt, ts in kernel.roots.items():
        orbits, seen = 0, set()
        for n in norms.get(keys[tt], ()):
            if n not in seen:
                orbits += 1
                seen |= _grow({n}, generators)
        count += orbits * len(ts)
    return count


def _basis_orbit_bound(kernel: Kernel, minus_d: int, torsion_size: int,
                       shifts: set) -> int:
    """|{t : t^2 = d mod 4R}| * |R[4] / dR[4]|, with shifts = dR[4].

    Counted on codes: t^2 = d mod 4R iff t^2 - d lies in 4R, the keys of
    the norm map, so each square of the root table that passes counts its
    roots.
    """
    keys, norms = kernel.add_row(minus_d), kernel.norms
    traces = sum(len(ts) for tt, ts in kernel.roots.items() if keys[tt] in norms)
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

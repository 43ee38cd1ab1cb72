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
(rings.Kernel): an addition is an add-row lookup, a subgroup is spanned by
Kernel.span, and the table of t^2 and the row of 4x are built once per
ring, not per report, as is the number of t with t^2 = d mod 4R, which
the disc tables count per class of t^2 mod 4R.  AS(R) is built
once per ring instance, in one pass over those codes, and kept in the
kernel: the codes and canonical values of R[4], the positions in them of
P(R)[4] and of the class representatives, the class of each member by
position and by value, and the identity.  ASGroup is the one reader of
these tables: a view that makes one RingElement per member of R[4], whose
wp4 list wp4_subgroup returns.  The fiber reports read AS(R) off the
ASGroup they are passed, which may be that of an equal ring, and the
class labels are made by classify, which formats each distinct trace or
norm once.

A classification keeps, in its derived slot, one FiberReport per disc
class asked for, keyed by its d and witness_t (the pair (d, t mod 2R)):
the fiber, read off the classification's disc map
(discriminants._disc_map), its labels, the orbits, the kernel classes,
whether the action is free and transitive, and the with-basis orbit count
and bound.  The count, the bound and the classes of ann(d)[4] the kernel
is checked against are worked out for that d.  The action is the monoid
product S * (1, m), so it is read off the classification's star table at
the classes of the embedded (1, m), which the classification keeps in
the same slot.  The kept report is frozen and its lists are read-only
(discriminants._ReadOnlyList), so it is shared: fiber_report returns it
to every caller with the same d and witness_t, and check_freeness reads
free off it, so a repeated call takes no ring product, class row, check
or copy.

Checks that run once per ring instance, when its AS tables are built:
P(R)[4] is a subgroup of R[4], and each AS class has order dividing 2.
Checks that run once per classification and d and witness_t, before its
report is kept, in this order: every image lies in the fiber, the kernel contains
the classes of ann(d)[4], and the count equals its bound.  A failed check
keeps nothing, so a repeat raises again: an InternalCheckError with a
witness naming the ring, d, the class and the AS class where they apply.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discriminants import DiscClass, _disc_map, _disc_tables, _ReadOnlyList
from .errors import InfiniteRingError, InternalCheckError
from .quadratic import Classification, QuadraticAlgebra
from .rings import IntegerRing, Kernel, Ring, RingElement, require_ring


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


def _check_wp4(ring: Ring, kernel: Kernel, members: list[int], fours: list[int]):
    """InternalCheckError unless the codes members, in increasing order,
    form a subgroup of R[4]: a subset holding 0 (code 0) and closed under
    +, and so, being finite, under negation too.  Closure is the span of
    the members, at most log2|P(R)[4]| add rows; only a set that is not
    closed is searched for a witness pair, the first in member order."""
    group = set(members)
    if 0 not in group or any(fours[c] for c in members):
        raise InternalCheckError.over(
            ring, "P(R)[4] is not a subset of R[4] containing 0")
    if kernel.span(members)[0] == group:
        return
    for c in members:
        row = kernel.add_row(c)
        for cb in members:
            if row[cb] not in group:
                a, b = (RingElement(ring, kernel.values[x]) for x in (c, cb))
                raise InternalCheckError.over(
                    ring, f"P(R)[4] not closed under + at ({a}, {b})",
                    pair=[a.to_json(), b.to_json()])


class _ASTables:
    """AS(R) of one ring, built once per ring instance on the codes of its
    kernel and kept in its derived slot by ASGroup, their one reader (for
    Z, where R[4] = P(R)[4] = {0}, built per call).

    torsion and values are the codes and canonical values of R[4], in
    order; wp4_pos and class_pos the positions in them of P(R)[4] and of
    the class representatives; torsion_classes the class of each member in
    order, class_of the class of each member's value, and identity the
    class of 0.  P(R)[4] is checked to be a subgroup and each class to have
    order dividing 2 here.  Only ints, canonical values and lists and
    dicts of them are held.
    """

    def __init__(self, ring: Ring):
        if isinstance(ring, IntegerRing):
            self.torsion = self.values = self.torsion_classes = [0]
            self.wp4_pos = self.class_pos = [0]
            self.class_of, self.identity = {0: 0}, 0
            return
        kernel, mul = ring.kernel(), ring._mul
        values, code, add_row = kernel.values, kernel.code, kernel.add_row
        fours = kernel.multiple_row(4)
        self.torsion = torsion = [c for c, q in enumerate(fours) if q == 0]
        # P(R)[4]: (1+2r)^2 is a lookup in the table of squares, and
        # r + r^2 = r(1 + r) one product per r that passes
        one = code[ring.one.value]
        one_plus, twice = add_row(one), kernel.multiple_row(2)
        wp4 = sorted({code[mul(values[r], values[one_plus[r]])]
                      for r, r2 in enumerate(twice)
                      if kernel.square[one_plus[r2]] == one})
        _check_wp4(ring, kernel, wp4, fours)
        # One add row per coset.  Codes sort like sort keys and every R[4]
        # code below a is classed, so a is its coset's least member.
        class_at: dict[int, int] = {}    # code of an R[4] member -> class
        classes: list[int] = []
        for a in torsion:
            if a not in class_at:
                row = add_row(a)
                for c in {row[w] for w in wp4}:
                    class_at[c] = len(classes)
                classes.append(a)
        self.identity = class_at[0]
        for c in classes:
            if class_at.get(add_row(c)[c]) != self.identity:
                rep = RingElement(ring, values[c])
                raise InternalCheckError.over(
                    ring, f"AS class of {rep} does not have order dividing 2",
                    as_class=rep.to_json())
        position = {c: k for k, c in enumerate(torsion)}
        self.values = [values[c] for c in torsion]
        self.wp4_pos = [position[c] for c in wp4]
        self.class_pos = [position[c] for c in classes]
        self.torsion_classes = [class_at[c] for c in torsion]
        self.class_of = dict(zip(self.values, self.torsion_classes))


def wp4_subgroup(ring: Ring) -> list[RingElement]:
    """P(R)[4] = {r + r^2 : (1+2r)^2 = 1} in canonical order: the wp4 list
    of ASGroup(ring), whose tables check that it is a subgroup of R[4]
    when they are built."""
    return ASGroup(ring).wp4


class ASGroup:
    """AS(R) = R[4] / P(R)[4] with canonical coset representatives.

    A view over the ring's AS tables, which it builds and keeps in the
    ring's kernel on first use and is the only one to read: once they
    exist it takes no ring product or check, and each call makes one
    RingElement per member of R[4], for four_torsion, and lists wp4 and
    classes from those, at the positions the tables keep.  identity is the
    index of the class of 0, and torsion_classes the class of each
    four_torsion element, in order; class_of reads its element by
    ring.canonicalize and looks it up by value.  Every list is new.  The
    fiber reports read AS(R) off the group they are passed, the tables
    included.
    """

    def __init__(self, ring: Ring):
        # kept in the kernel of a finite ring, built per call for Z
        derived = ring.kernel().derived if ring.is_finite else {}
        tables = derived.get("as")
        if tables is None:
            tables = derived["as"] = _ASTables(ring)
        self.ring, self._tables = ring, tables
        self.four_torsion = torsion = [RingElement(ring, v) for v in tables.values]
        self.wp4 = [torsion[k] for k in tables.wp4_pos]
        self.classes = [torsion[k] for k in tables.class_pos]
        self.torsion_classes = list(tables.torsion_classes)
        self.identity = tables.identity

    @property
    def order(self) -> int:
        return len(self.classes)

    def class_of(self, a: RingElement) -> int:
        """Class of a read by ring.canonicalize, so an int is accepted and
        another ring's element raises MixedRingError; ValueError unless a
        is 4-torsion."""
        idx = self._tables.class_of.get(self.ring.canonicalize(a))
        if idx is None:
            raise ValueError(f"{self.ring.element(a)!r} is not 4-torsion")
        return idx

    def add(self, i: int, j: int) -> int:
        return self.class_of(self.classes[i] + self.classes[j])

    def invariant_factors(self) -> list[int]:
        count = self.order.bit_length() - 1
        if (1 << count) != self.order:
            raise InternalCheckError.over(
                self.ring, f"AS group order {self.order} is not a power of 2",
                order=self.order)
        return [2] * count

    def __repr__(self):
        return f"ASGroup({self.ring!r}, order={self.order})"


def as_group(ring: Ring) -> ASGroup:
    return ASGroup(ring)


def as_embed(ring: Ring, m: RingElement) -> QuadraticAlgebra:
    """The algebra (1, m) representing the class of m."""
    return QuadraticAlgebra(ring, ring.one, m)


def as_act(s: QuadraticAlgebra, m: RingElement) -> QuadraticAlgebra:
    """Act by 4-torsion m: (t, n) -> (t, n + disc(S)*m); equals S * (1, m).

    The 4-torsion test 4m = 0, d = t^2 - 4n and n + d*m are taken on
    canonical values, four products of which two are by 4; only the new
    norm becomes a RingElement.
    """
    ring = s.ring
    mul, four, mv = ring._mul, ring.canonicalize(4), ring.canonicalize(m)
    if mul(four, mv) != ring.canonicalize(0):
        raise ValueError(f"{m!r} is not 4-torsion")
    t, n = s.t.value, s.n.value
    d = ring._sub(mul(t, t), mul(four, n))
    return QuadraticAlgebra(ring, s.t, RingElement(ring, ring._add(n, mul(d, mv))))


def annihilator_four_torsion(ring: Ring, d: RingElement) -> list[RingElement]:
    """ann(d)[4] = {a : a*d = 0 and 4a = 0}."""
    zero = ring.zero
    return [a for a in four_torsion(ring) if a * d == zero]


@dataclass(frozen=True, init=False)
class FiberReport:
    """AS-action data on the fiber of the discriminant map over one class.

    fiber lists the class indices of the fiber and fiber_labels their
    labels, orbits the orbit partition as positions in fiber, kernel the AS
    classes that fix every member, free whether every other AS class moves
    every member, and basis_orbit_count and basis_orbit_bound the
    with-basis orbit count and bound (see _fibre_facts).  A classification
    keeps one per disc class asked for and every caller with that d and
    witness_t shares it, so it is frozen and its lists, nested ones
    included, are read-only.  The fields are written to the instance dict
    at once, as for DiscClass: the frozen dataclass's own __init__, one
    object.__setattr__ call per field, took twice as long.
    """

    disc_class: DiscClass
    fiber: list[int]
    fiber_labels: list[str]
    orbits: list[list[int]]
    kernel: list[int]
    free: bool
    transitive: bool
    basis_orbit_count: int
    basis_orbit_bound: int

    def __init__(self, disc_class: DiscClass, fiber: list[int],
                 fiber_labels: list[str], orbits: list[list[int]],
                 kernel: list[int], free: bool, transitive: bool,
                 basis_orbit_count: int, basis_orbit_bound: int):
        self.__dict__.update(
            disc_class=disc_class, fiber=fiber, fiber_labels=fiber_labels,
            orbits=orbits, kernel=kernel, free=free, transitive=transitive,
            basis_orbit_count=basis_orbit_count,
            basis_orbit_bound=basis_orbit_bound)


def fiber_report(ring: Ring, d: DiscClass, classification: Classification,
                 group: ASGroup) -> FiberReport:
    """Compute the AS(R)-orbit structure of the fiber over a disc class.

    The read-only report that the classification keeps for d's d and
    witness_t, built and checked by _act_on_fiber on first use from AS(R)
    as group holds it; a repeated call returns the kept report itself, with
    no ring product, class row, check or copy of a list.  The group of an
    equal ring instance serves as well, since its values are the ring's;
    d, classification and group built for another ring raise ValueError.
    """
    require_ring(ring, d, classification, group)
    kept = classification.derived.setdefault("fibres", {})    # (d, t) -> report
    key = (d.d.value, d.witness_t.value)
    report = kept.get(key)
    if report is None:
        # d.d is a discriminant, so its class is read off the kept disc
        # index by value, as _disc_map reads it
        report = kept[key] = _act_on_fiber(
            ring, d, classification, group, _disc_tables(ring).index[d.d.value])
    return report


def _embedded_classes(group: ASGroup, cl: Classification) -> list[int]:
    """The class of (1, m) for each AS class m that group lists, in class
    order: looked up once per classification with index_of and kept in its
    derived slot."""
    embedded = cl.derived.get("as embed")
    if embedded is None:
        embedded = cl.derived["as embed"] = [
            cl.index_of(as_embed(group.ring, m)) for m in group.classes]
    return embedded


def _act_on_fiber(ring: Ring, d: DiscClass, cl: Classification,
                  group: ASGroup, own: int) -> FiberReport:
    """The action of every AS class of group on the fiber over disc class
    own, with the facts of d, checked, as a read-only report with
    disc_class d.  AS(R) is read off group: its classes, its identity and
    the tables _fibre_facts reads; a fiber check names group's own element.

    The fiber is the classes whose discriminant is u^2 d for a unit u, read
    off the classification's disc map.  The AS class m acts by
    S -> S * (1, m), and the star product is well defined on classes, so m
    sends class i to the star table's entry at i and the class of (1, m)
    (see _embedded_classes): the action takes no ring product and no class
    row.  The facts of d take |R[4]| products.

    The checks run in this order: every image lies in the fiber; the kernel
    contains the classes of ann(d)[4]; the count equals its bound.  The
    tests check the action against a walk over every orbit pair.
    """
    embedded, star = _embedded_classes(group, cl), cl.star_table()
    fiber = _disc_map(ring, cl)[1][own]
    fiber_pos = {ci: k for k, ci in enumerate(fiber)}
    action: list[dict[int, int]] = [{} for _ in embedded]
    for ci in fiber:
        row = star[ci]
        for m, e, images in zip(group.classes, embedded, action):
            target = images[ci] = row[e]
            if target not in fiber_pos:
                label = cl[ci].label
                raise InternalCheckError.over(
                    ring, f"action of {m} moved {label} off the fiber",
                    **{"d": d.d.to_json(), "class": label, "as_class": m.to_json()})

    # Orbit partition of the fiber under the whole group.
    orbits: list[list[int]] = []
    placed: set[int] = set()
    for ci in fiber:
        if ci in placed:
            continue
        orbit = sorted({images[ci] for images in action})
        orbits.append(_ReadOnlyList(map(fiber_pos.__getitem__, orbit)))
        placed.update(orbit)

    kernel_classes = [m_idx for m_idx, images in enumerate(action)
                      if all(images[ci] == ci for ci in fiber)]
    free = all(images[ci] != ci
               for m_idx, images in enumerate(action) if m_idx != group.identity
               for ci in fiber)
    ann_classes, count, bound = _fibre_facts(ring, d.d.value, group._tables)
    if not ann_classes <= set(kernel_classes):
        raise InternalCheckError.over(
            ring, f"kernel misses annihilator classes for d = {d.d}",
            d=d.d.to_json())
    if count != bound:
        raise InternalCheckError.over(
            ring, f"with-basis orbit count {count} != index bound {bound} for d = {d.d}",
            d=d.d.to_json(), count=count, bound=bound)
    return FiberReport(d, _ReadOnlyList(fiber),
                       _ReadOnlyList([cl[i].label for i in fiber]),
                       _ReadOnlyList(orbits), _ReadOnlyList(kernel_classes),
                       free, len(orbits) == 1, count, bound)


def _fibre_facts(ring: Ring, dv, tables: _ASTables) -> tuple[set[int], int, int]:
    """The AS classes of ann(d)[4], and the with-basis orbit count and
    bound |{t : t^2 = d mod 4R}| * |R[4] / dR[4]|, of the disc value dv;
    ann(d)[4] and dR[4] are read off R[4] with one product each, and the
    number of traces t off the ring's disc tables, which count them per
    class of t^2 mod 4R as they walk the residues mod 2R.

    The count is the number of orbits of R[4] acting by (t, n) ->
    (t, n + d*m) on the pairs of disc exactly d.  The action fixes t, and
    the norms {n : 4n = t^2 - d} of a trace t are a coset of R[4], a fiber
    of the kernel's row of 4x, so they fall into |R[4]| / |<dR[4]> & R[4]|
    orbits.  The count reads the group dR[4] generates and the bound only
    the size of dR[4]; _act_on_fiber checks that they agree.  All three
    are the same for u^2 d, u a unit: ann(u^2 d)[4] = ann(d)[4], u^2 dR[4]
    = dR[4], and t -> ut carries the traces of d onto those of u^2 d.
    """
    kernel, mul = ring.kernel(), ring._mul
    code = kernel.code
    shifts = [code[mul(dv, a)] for a in tables.values]
    # code 0 is the zero
    ann_classes = {k for k, s in zip(tables.torsion_classes, shifts) if s == 0}
    image, torsion = set(shifts), len(tables.torsion)
    traces = _disc_tables(ring).traces[ring._coset_rep(dv, 4)]
    span = kernel.span(sorted(image))[0]
    count = traces * torsion // len(span.intersection(tables.torsion))
    return ann_classes, count, _basis_orbit_bound(traces, torsion, image)


def _basis_orbit_bound(traces: int, torsion_size: int, shifts: set) -> int:
    """|{t : t^2 = d mod 4R}| * |R[4] / dR[4]|, with shifts = dR[4]."""
    return traces * (torsion_size // len(shifts))


def is_sec_element(ring: Ring, t: RingElement) -> bool:
    """Nonzerodivisor t with: r^2, 2r in tR implies r in tR, for all r.

    Over Z this is t != 0 and 4 not dividing t: for t = 4m, r = 2m breaks the
    rule, and for odd t or t = 2 mod 4 it holds.  In a finite ring a
    nonzerodivisor is a unit, so tR = R and the rule holds for every r.
    """
    if isinstance(ring, IntegerRing):
        return ring.canonicalize(t) % 4 != 0    # t = 0 fails too
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
    Reads free off fiber_report's kept report, with its checks run first if
    it is new, on AS(R) as group holds it (see fiber_report).
    """
    return (fiber_report(ring, d, classification, group).free
            or not ring.is_nonzerodivisor(d.d))

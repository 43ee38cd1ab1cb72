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
(rings.Kernel): an addition is an add-row lookup or a code sum, and the unit
squares, the tables of t^2 and -4n, the norm map 4n -> [n] and the root
table t^2 -> [t] are built once per ring, not per report.  The AS group is
built once per ring instance and kept in the kernel, as the R[4] codes,
the positions in them of P(R)[4] and of the class representatives, the
code -> class map and the identity; ASGroup is a view over these tables
that makes one RingElement per member of R[4] and lists P(R)[4] and the
representatives from those, and a classification formats each class
label once.  The action commutes with basis changes, so a report
reads the image of each class under each AS class off the class's
representative, and reads only the representatives' class rows.  The
kernel also keeps, per disc d reported, the classes of ann(d)[4] and the
with-basis orbit count and bound, each a closed form in the number of
traces t with t^2 = d mod 4R, |R[4]| and dR[4], and per representative
disc d' the add rows of d'm.  A classification keeps, in its derived slot,
the action on the fiber over each disc class: the fiber, its labels, the
orbits, the kernel classes and whether the action is free.  fiber_report
assembles a new report from these and check_freeness reads free off them,
so a repeated call takes no ring product, class row or check.

Checks that run once per ring instance, when its tables are built: P(R)[4]
is a subgroup, each AS class has order dividing 2, and, per disc d, the
count equals its bound.  Checks that run once per classification and disc
class, before its action is kept: every image lies in the fiber, and the
kernel contains the classes of ann(d)[4] (again for each new d of the
class).  A failed check keeps nothing, so a repeat raises again: an
InternalCheckError with a witness naming the ring, d, the class and the AS
class where they apply.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discriminants import DiscClass, _disc_tables, require_ring
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


def _span(members, add_row) -> set[int]:
    """The subgroup of (R, +) the codes members generate.  Each member not
    yet in the span grows it by its translates until they cycle back into
    it, so at most log2 of its order add rows are taken."""
    span = {0}
    for c in members:
        if c in span:
            continue
        plus, translate = add_row(c), list(span)
        while plus[translate[0]] not in span:
            translate = [plus[x] for x in translate]
            span.update(translate)
    return span


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
    closed = _span(members, add_row) == group
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


class _ASTables:
    """AS(R) of one ring on the codes of its kernel, built once per ring
    instance and kept in its kernel's derived slot (for Z, built per call).

    torsion is the codes of R[4], classes the code of each class
    representative, wp4_pos and class_pos the positions in torsion of
    P(R)[4] and of the representatives, class_at the class of each R[4]
    code, torsion_classes the class of each torsion code in order, and
    identity the class of 0.  P(R)[4] is checked to be a subgroup and each
    class to have order dividing 2 here.  The fiber reports fill shifts,
    the add rows of d'm for each disc d' they meet and each class m, and
    fibres, the facts they keep per disc d.  Only ints and kernel rows are
    held.
    """

    def __init__(self, ring: Ring):
        # Cosets are formed on codes, one add row per coset; codes sort like
        # sort keys.  P(R)[4] lies in R[4], so each coset member is one of
        # the four_torsion elements.
        values, code, add_row = _additive_codes(ring)
        self.torsion = [code[a.value] for a in four_torsion(ring)]
        wp4 = [code[w.value] for w in wp4_subgroup(ring)]
        self.class_at = class_at = {}    # code of an R[4] member -> class
        self.classes: list[int] = []
        for a in self.torsion:
            if a in class_at:
                continue
            row = add_row(a)
            coset = sorted({row[w] for w in wp4})
            for c in coset:
                class_at[c] = len(self.classes)
            self.classes.append(coset[0])
        self.torsion_classes = [class_at[c] for c in self.torsion]
        self.identity = class_at[0]
        position = {c: k for k, c in enumerate(self.torsion)}
        self.wp4_pos = [position[c] for c in wp4]
        self.class_pos = [position[c] for c in self.classes]
        for c in self.classes:
            if class_at.get(add_row(c)[c]) != self.identity:
                rep = RingElement(ring, values[c])
                raise InternalCheckError(
                    f"AS class of {rep} does not have order dividing 2",
                    {"ring": ring.spec_string(), "as_class": rep.to_json()})
        self.shifts: dict = {}    # d' -> [add row of d'm for each class m]
        self.fibres: dict = {}    # d -> _FibreFacts


def _as_tables(ring: Ring) -> _ASTables:
    """The AS tables of ring: kept in the kernel of a finite ring."""
    if not ring.is_finite:
        return _ASTables(ring)
    derived = ring.kernel().derived
    tables = derived.get("as")
    if tables is None:
        tables = derived["as"] = _ASTables(ring)
    return tables


class ASGroup:
    """AS(R) = R[4] / P(R)[4] with canonical coset representatives.

    A view over the ring's kept AS tables, with no ring product or check
    once they exist: each call makes one RingElement per member of R[4],
    for four_torsion, and lists wp4 and classes from those, at the
    positions the tables keep.  identity is the index of the class of 0,
    and torsion_classes the class of each four_torsion element, in order;
    class_of is one lookup by code.  Every list is new.
    """

    def __init__(self, ring: Ring):
        tables = _as_tables(ring)
        values, self._code, _ = _additive_codes(ring)
        self.ring = ring
        self.four_torsion = torsion = [RingElement(ring, values[c])
                                       for c in tables.torsion]
        self.wp4 = [torsion[k] for k in tables.wp4_pos]
        self.classes = [torsion[k] for k in tables.class_pos]
        self._class_at = tables.class_at    # code of an R[4] member -> class
        self.torsion_classes = list(tables.torsion_classes)
        self.identity = tables.identity

    @property
    def order(self) -> int:
        return len(self.classes)

    def class_of(self, a: RingElement) -> int:
        if isinstance(a, RingElement) and (a.ring is self.ring
                                           or a.ring == self.ring):
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
    if ring._mul(ring.canonicalize(4), m.value) != ring.canonicalize(0):
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

    Assembled from the classification's kept action on the fiber over d's
    class and the ring's kept facts of d (see _fibre_action), with fresh
    lists on every call; once both exist a report takes no ring product,
    class row or check.  d, classification and group built for another
    ring raise ValueError.
    """
    require_ring(ring, d, classification, group)
    action, facts = _fibre_action(ring, d, classification)
    return FiberReport(disc_class=d,
                       fiber=list(action.fiber),
                       fiber_labels=list(action.labels),
                       orbits=[list(orbit) for orbit in action.orbits],
                       kernel=list(action.kernel),
                       free=action.free,
                       transitive=len(action.orbits) == 1,
                       basis_orbit_count=facts.count,
                       basis_orbit_bound=facts.bound)


class _FibreAction:
    """The AS(R) action on the fiber over one disc class, as a
    classification keeps it in its derived slot.

    fiber lists the class indices of the fiber and labels their labels,
    orbits the orbit partition as positions in fiber, kernel the AS classes
    that fix every member, and free whether every other AS class moves
    every member.  Only ints, strings and lists of them are held.
    """

    __slots__ = ("fiber", "labels", "orbits", "kernel", "free")

    def __init__(self, fiber, labels, orbits, kernel, free):
        self.fiber, self.labels, self.orbits = fiber, labels, orbits
        self.kernel, self.free = kernel, free


def _fibre_action(ring: Ring, d: DiscClass, classification: Classification):
    """The kept action on the fiber over d's class and the kept facts of d,
    built and checked on first use.

    The fiber is the classes whose discriminant is u^2 d for a unit u, read
    off the kept disc class index.  The action commutes with basis changes
    (as-action-norm and change-of-basis-functoriality in quadrings verify),
    so the AS class m sends the class of a representative (t, n) of disc d'
    to the class of (t, n + d'm).  The ring's kept AS tables hold the add
    row of d'm for each d' met before and the facts of each disc d reported
    before: the classes of ann(d)[4] and the with-basis orbit count and
    bound.  So the first action over a class takes one product per new d'
    and m and reads the representatives' class rows, and the first facts of
    a d take |R[4]| products for dR[4].

    The checks run once per classification and disc class, and once per
    ring instance and d, before either is kept, in this order: every image
    lies in the fiber; the kernel contains the classes of ann(d)[4] (again
    whenever the action or the facts are new); the count equals its bound.
    A failed check keeps nothing, so a repeat raises again.  The tests
    check the class map against a walk over every orbit pair.
    """
    index, tables = _disc_tables(ring).index, _as_tables(ring)
    dv = d.d.value
    own = index[dv]
    kept = classification.derived.setdefault("fibres", {})    # class -> action
    action = kept.get(own)
    new = action is None
    if new:
        action = _act_on_fiber(ring, d, classification, own, index, tables)
    facts = tables.fibres.get(dv)
    fresh = facts is None
    if fresh:
        facts = _FibreFacts(ring, dv, tables)
    if (new or fresh) and not facts.ann_classes <= set(action.kernel):
        raise InternalCheckError(
            f"kernel misses annihilator classes for d = {d.d}", _witness(ring, d))
    if fresh:
        if facts.count != facts.bound:
            raise InternalCheckError(
                f"with-basis orbit count {facts.count} != index bound "
                f"{facts.bound} for d = {d.d}",
                _witness(ring, d, count=facts.count, bound=facts.bound))
        tables.fibres[dv] = facts
    kept[own] = action
    return action, facts


def _witness(ring: Ring, d: DiscClass, **more) -> dict:
    """Where a fiber check failed, for InternalCheckError."""
    return {"ring": ring.spec_string(), "d": d.d.to_json(), **more}


def _act_on_fiber(ring: Ring, d: DiscClass, cl: Classification, own: int,
                  index: dict, tables: _ASTables) -> _FibreAction:
    """The action of every AS class on the fiber over disc class own, with
    the check that every image lies in the fiber."""
    kernel, mul = ring.kernel(), ring._mul
    values, code, add_row = kernel.values, kernel.code, kernel.add_row
    fiber = [i for i, c in enumerate(cl) if index[c.disc.value] == own]
    fiber_pos = {ci: k for k, ci in enumerate(fiber)}
    action: list[dict[int, int]] = [{} for _ in tables.classes]
    for ci in fiber:
        c = cl[ci]
        v = c.disc.value
        shifts = tables.shifts.get(v)
        if shifts is None:
            shifts = tables.shifts[v] = [add_row(code[mul(v, values[m])])
                                         for m in tables.classes]
        row, n = cl.class_map.row(code[c.rep.t.value]), code[c.rep.n.value]
        for m, plus, images in zip(tables.classes, shifts, action):
            target = images[ci] = row[plus[n]]
            if target not in fiber_pos:
                moved_by = RingElement(ring, values[m])
                raise InternalCheckError(
                    f"action of {moved_by} moved {c.label} off the fiber",
                    _witness(ring, d, **{"class": c.label,
                                         "as_class": moved_by.to_json()}))

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
    free = all(images[ci] != ci
               for m_idx, images in enumerate(action) if m_idx != tables.identity
               for ci in fiber)
    return _FibreAction(fiber, [cl[i].label for i in fiber], orbits,
                        kernel_classes, free)


class _FibreFacts:
    """What the fiber reports over d keep in the ring's AS tables.

    ann_classes are the AS classes of ann(d)[4], and count and bound the
    with-basis orbit count and |{t : t^2 = d mod 4R}| * |R[4] / dR[4]|;
    ann(d)[4] and dR[4] are read off R[4] with one product each.

    The count is the number of orbits of R[4] acting by (t, n) ->
    (t, n + d*m) on the pairs of disc exactly d.  The action fixes t, and
    the norms {n : 4n = t^2 - d} of a trace t are a coset of R[4], a fiber
    of the kernel's row of 4x, so they fall into |R[4]| / |<dR[4]> & R[4]|
    orbits.  The count reads the group dR[4] generates and the bound only
    the size of dR[4]; _fibre_action checks that they agree.
    """

    __slots__ = ("ann_classes", "count", "bound")

    def __init__(self, ring: Ring, dv, tables: _ASTables):
        kernel, mul = ring.kernel(), ring._mul
        values, code = kernel.values, kernel.code
        shifts = [code[mul(dv, values[a])] for a in tables.torsion]
        # code 0 is the zero
        self.ann_classes = {k for k, s in zip(tables.torsion_classes, shifts)
                            if s == 0}
        image, torsion = set(shifts), len(tables.torsion)
        traces = _trace_count(kernel, code[ring._neg(dv)])
        span = _span(sorted(image), kernel.add_row)
        self.count = traces * torsion // len(span.intersection(tables.torsion))
        self.bound = _basis_orbit_bound(traces, torsion, image)


def _trace_count(kernel: Kernel, minus_d: int) -> int:
    """|{t : t^2 = d mod 4R}|: the roots of each square s of the kernel's
    root table with s - d in 4R, a key of its norm map.

    minus_d is the code of -d; s - d is one code sum, so no add row is built.
    """
    norms, add_code = kernel.norms, kernel.add_code
    return sum(len(ts) for s, ts in kernel.roots.items()
               if add_code(s, minus_d) in norms)


def _basis_orbit_bound(traces: int, torsion_size: int, shifts: set) -> int:
    """|{t : t^2 = d mod 4R}| * |R[4] / dR[4]|, with shifts = dR[4]."""
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
    Reads free off the same kept action as fiber_report, with its checks
    run first if it is new, and builds no report.
    """
    require_ring(ring, d, classification, group)
    action, _ = _fibre_action(ring, d, classification)
    return action.free or not ring.is_nonzerodivisor(d.d)

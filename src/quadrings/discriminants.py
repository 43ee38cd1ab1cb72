"""Discriminants over a ring and the discriminant monoid.

A discriminant is an element d that is a square modulo 4R, witnessed by some
t with t^2 = d mod 4R; only t mod 2R matters.  Two discriminants are in the
same class when they differ by a unit square.  Over a finite ring the classes
form a commutative monoid under multiplication with identity class(1) and
absorbing class(0); over Z the class of d is d itself since the only unit
square is 1.

Over a finite ring the classes and the homomorphism check run on canonical
values, with the ring's _mul/_add/_neg, its coset representatives and its
int-coded kernel (rings.Kernel); RingElement stays the input and output
type.  The disc classes are built once per ring instance and kept in its
kernel: the residues mod 2R are squared once, which gives each class of
t^2 mod 4R its least witness and its number of traces t in R, the unit
squares are read off the kernel, and |U^2| products are taken per class
for its orbit, one per pair of classes for the monoid table and one per
class for a preimage algebra, whose norm is read off the kernel's row of
4x; each disc label is formatted once.  Each class's witness (against t^2 from
the kernel), the closure of the monoid table and the monoid itself are
checked then, once per ring instance; a failure keeps nothing.
DiscClassification and disc_hom_check read these tables and take no ring
product or check once they exist: a DiscClassification makes one
RingElement per discriminant and per witness and copies the kept monoid,
and builds its DiscClass objects with no witness check; a DiscClass built
by hand checks its witness with one product.  The disc map of a
classification, the disc class of each algebra class (one lookup by value
each) and the fibre of each disc class in class order, is built once per
classification and kept in its derived slot; disc_hom_check and the fibre
reports of artin_schreier both read it.  disc_hom_check works out its
report once per classification and keeps it there too: it compares each
star-table row, mapped through disc, with its disc-monoid row as one list.
Each call returns that kept report, with no star table, class row,
comparison or copy.  The reports a classification keeps are shared by
every caller, so they are read-only: frozen dataclasses whose lists and
dicts, nested ones included, are _ReadOnlyList and _ReadOnlyDict, which
refuse every mutator with TypeError and otherwise act as, compare equal
to and JSON-encode as plain lists and dicts.

Rank-1 quadratic forms Q(e) = a on a free module appear at the end: their
similarity classes (unit orbits) multiply by a*a', and cancellativity of a
form is equivalent to its value being a nonzerodivisor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfiniteRingError, InternalCheckError, MonoidError
from .monoids import FiniteCommMonoid
from .quadratic import Classification, QuadraticAlgebra
from .rings import IntegerRing, Ring, RingElement, require_ring


def _refuse(self, *args, **kwargs):
    raise TypeError("a kept report is read-only")


class _ReadOnlyList(list):
    """A list whose mutators raise TypeError; copies and pickles rebuild
    it from a plain copy."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):
        return type(self), (list(self),)


class _ReadOnlyDict(dict):
    """A dict whose mutators raise TypeError; copies and pickles rebuild
    it from a plain copy."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def sq_map(ring: Ring, t: RingElement) -> RingElement:
    """Square a residue mod 2R, returning the canonical value mod 4R.

    Well-defined: changing t by 2R changes t^2 by 4(t*d + d^2) in 4R.
    """
    return ring.coset_representative(t * t, 4)


def _square_classes(ring: Ring) -> tuple[dict, dict]:
    """Two maps on the classes t^2 mod 4R of a finite ring, on canonical
    values: each class -> its least witness t mod 2R, and each class -> the
    number of t in R with t^2 in it.

    (t + 2s)^2 = t^2 + 4(ts + s^2), so the t of a class are a union of
    cosets of 2R, and one walk of the residues mod 2R, in canonical order,
    gives both: the first residue to reach a class is its least witness,
    and each residue stands for the |2R| = |R| / |R/2R| elements of its
    coset.  Z/n is never enumerated.
    """
    mul, coset = ring._mul, ring._coset_rep
    residues = ring._residue_values(2)
    each = ring.size // len(residues)
    witnesses, traces = {}, {}
    for t in residues:
        c = coset(mul(t, t), 4)
        witnesses.setdefault(c, t)
        traces[c] = traces.get(c, 0) + each
    return witnesses, traces


def is_discriminant(ring: Ring, d: RingElement):
    """A witness t (canonical mod 2R) with t^2 = d mod 4R, or None.

    Over a finite ring the residues mod 2R are walked in canonical order on
    canonical values, one product each, and the first t whose square lies
    in d + 4R is returned: the least witness, as in _square_classes, with
    no table built.  Over Z this is the classical condition d = 0, 1 mod 4.
    """
    d = ring.canonicalize(d)
    if ring.is_finite:
        mul, coset = ring._mul, ring._coset_rep
        target = coset(d, 4)
        for t in ring._residue_values(2):
            if coset(mul(t, t), 4) == target:
                return RingElement(ring, t)
        return None
    if isinstance(ring, IntegerRing):
        if d % 4 in (0, 1):
            return ring.element(d % 2)
        return None
    raise InfiniteRingError("discriminant testing needs a finite ring or Z")


def _witness_problem(ring: Ring, d, t, tt):
    """Why t is not a witness of d, on canonical values with tt = t^2, or
    None: t must be reduced mod 2R and t^2 = d mod 4R."""
    coset = ring._coset_rep
    if coset(t, 2) != t:
        return "is not reduced mod 2R"
    if coset(tt, 4) != coset(d, 4):
        return f"does not square to {ring.element_text(d)} mod 4R"
    return None


@dataclass(frozen=True, init=False)
class DiscClass:
    """A discriminant class: representative d plus a witness t stored mod 2R.

    Validated on construction, with one product for t^2, so deserialized
    and hand-built witnesses are always re-checked.  DiscClassification
    builds its classes through _kept instead, from the ring's disc tables,
    whose witnesses were checked when they were built.  The fields are
    written to the instance dict at once: a frozen dataclass's own
    __init__ makes one object.__setattr__ call per field, which took most
    of the time of building a DiscClass.
    """

    ring: Ring
    d: RingElement
    witness_t: RingElement

    def __init__(self, ring: Ring, d: RingElement, witness_t: RingElement):
        d, witness_t = ring.element(d), ring.element(witness_t)
        t = witness_t.value
        problem = _witness_problem(ring, d.value, t, ring._mul(t, t))
        if problem is not None:
            raise ValueError(f"witness {witness_t} {problem}")
        self.__dict__.update(ring=ring, d=d, witness_t=witness_t)

    @classmethod
    def _kept(cls, ring: Ring, d: RingElement, witness_t: RingElement) -> DiscClass:
        """A DiscClass of a pair the disc tables hold, which was checked
        when they were built and is not checked again."""
        new = object.__new__(cls)
        new.__dict__.update(ring=ring, d=d, witness_t=witness_t)
        return new

    def label(self) -> str:
        return str(self.d)


class _DiscTables:
    """The disc classes of one finite ring on canonical values, built once
    per ring instance and kept in its kernel's derived slot.

    Holds, per class in sorted order, the least member d with its witness t
    (witness_of, d -> t) and its unit-square orbit; the value -> class index
    of every discriminant; the number of t in R with t^2 in each class of
    t^2 mod 4R (traces, keyed by coset representative), for the fibre
    reports of artin_schreier; the monoid, with one label per class; and,
    for disc_hom_check, the label of a preimage algebra (t, n) of each
    class and the violations its construction found.  The unit squares are
    read off the kernel's table of t^2 at its units; the orbits take |U^2|
    products per class, the monoid one per pair of classes, and the
    preimages one per class.  Each witness (t reduced mod 2R, t^2 = d mod
    4R with t^2 read from the kernel), the closure of the monoid table and,
    by FiniteCommMonoid, the monoid's labels and table are checked here
    (its MonoidError is raised as an InternalCheckError naming the ring),
    so the DiscClassification views build their DiscClass objects
    unchecked.
    Everything held is an int, a canonical value or a string, so the kernel
    keeps no reference to the ring.
    """

    def __init__(self, ring: Ring):
        kernel, mul, coset = ring.kernel(), ring._mul, ring._coset_rep
        witnesses, self.traces = _square_classes(ring)
        unit_squares = {kernel.values[kernel.square[u]] for u in kernel.units}
        self.witness_of: dict = {}    # least member d of a class -> t
        self.orbits = []
        self.index: dict = {}    # canonical value -> class index
        # The first unplaced discriminant in canonical order is the least
        # member of its unit-square orbit, so classes come out sorted.
        for d in kernel.values:
            if d in self.index:
                continue
            witness = witnesses.get(coset(d, 4))
            if witness is None:
                continue
            tt = kernel.values[kernel.square[kernel.code[witness]]]
            problem = _witness_problem(ring, d, witness, tt)
            if problem is not None:
                raise InternalCheckError.over(
                    ring, f"witness {ring.element_text(witness)} {problem}",
                    d=RingElement(ring, d).to_json(),
                    witness_t=RingElement(ring, witness).to_json())
            orbit = sorted({mul(s, d) for s in unit_squares}, key=ring.sort_key)
            for v in orbit:
                self.index[v] = len(self.orbits)
            self.witness_of[d] = witness
            self.orbits.append(orbit)
        labels = [ring.element_text(d) for d in self.witness_of]
        try:
            self.monoid = FiniteCommMonoid(labels, self._monoid_table(ring),
                                           self.index[ring.one.value])
        except MonoidError as exc:
            raise InternalCheckError.over(ring, str(exc), **exc.witness) from None
        self._find_preimages(ring, kernel)

    def _monoid_table(self, ring: Ring) -> list[list[int]]:
        mul, index = ring._mul, self.index
        table = []
        for a in self.witness_of:
            row = []
            for b in self.witness_of:
                ab = mul(a, b)
                k = index.get(ab)
                if k is None:
                    raise InternalCheckError.over(
                        ring, f"product {ring.element_text(ab)} of "
                        f"discriminants is not a discriminant",
                        a=RingElement(ring, a).to_json(),
                        b=RingElement(ring, b).to_json(),
                        product=RingElement(ring, ab).to_json())
                row.append(k)
            table.append(row)
        return table

    def _find_preimages(self, ring: Ring, kernel) -> None:
        """Solve 4n = t^2 - d for each class (d, t), with n the least
        solution: the first code at which the kernel's row of 4x holds
        t^2 - d."""
        mul, add, neg = ring._mul, ring._add, ring._neg
        four = ring.element(4).value
        values, code, fours = kernel.values, kernel.code, kernel.multiple_row(4)
        self.preimages: dict[str, str] = {}
        self.preimage_violations: list[str] = []
        for (d, t), label in zip(self.witness_of.items(), self.monoid.labels):
            tt = values[kernel.square[code[t]]]
            try:
                n = values[fours.index(code[add(tt, neg(d))])]
            except ValueError:
                self.preimage_violations.append(
                    f"no algebra constructed for disc class {label}")
                continue
            if add(tt, neg(mul(four, n))) != d:
                self.preimage_violations.append(
                    f"constructed algebra for {label} has wrong disc")
            self.preimages[label] = QuadraticAlgebra(ring, t, n).label()


def _disc_tables(ring: Ring) -> _DiscTables:
    """The disc tables of a finite ring, built on first use and kept in its
    kernel."""
    if not ring.is_finite:
        raise InfiniteRingError(
            "disc classes of an infinite ring are not enumerable; "
            "over Z use is_discriminant and the value d itself"
        )
    derived = ring.kernel().derived
    tables = derived.get("disc")
    if tables is None:
        tables = derived["disc"] = _DiscTables(ring)
    return tables


class DiscClassification:
    """The discriminant classes of a finite ring, with their monoid.

    A view over the ring's kept disc tables, whose witnesses and monoid
    were checked when they were built: each call makes one RingElement per
    discriminant, for the orbits, of which each class's d is the first,
    one per witness, and a copy of the kept monoid, with no ring product
    or check once the tables exist.  Every list and the monoid are new.
    """

    def __init__(self, ring: Ring):
        tables = _disc_tables(ring)
        self.ring = ring
        self.orbits: list[list[RingElement]] = [
            [RingElement(ring, v) for v in orbit] for orbit in tables.orbits]
        self.classes: list[DiscClass] = [
            DiscClass._kept(ring, orbit[0], RingElement(ring, t))
            for orbit, t in zip(self.orbits, tables.witness_of.values())]
        self.monoid = tables.monoid.copy()

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def index_of(self, d: RingElement) -> int:
        """Class index of a discriminant of this ring, read as disc_class_of
        reads it; ValueError for a non-discriminant."""
        return disc_class_of(self.ring, d)


def disc_classes(ring: Ring) -> DiscClassification:
    return DiscClassification(ring)


def disc_class_of(ring: Ring, d: RingElement) -> int:
    """Index of d's class in disc_classes(ring): one lookup in the ring's
    kept disc tables of d read by ring.canonicalize, so an int is accepted
    and another ring's element raises MixedRingError.  ValueError unless d
    is a discriminant of ring."""
    value = ring.canonicalize(d)    # read before any table is built
    k = _disc_tables(ring).index.get(value)
    if k is None:
        raise ValueError(f"{ring.element(d)!r} is not a discriminant")
    return k


def _disc_map(ring: Ring, classification: Classification) -> tuple:
    """(the disc class of each algebra class, the fibre of each disc class
    as its algebra classes in class order) of one classification, read off
    the ring's kept disc index in one pass over the classes, on first use,
    and kept in the classification's derived slot.  disc_hom_check and the
    fibre reports both read it."""
    disc_map = classification.derived.get("disc map")
    if disc_map is None:
        tables = _disc_tables(ring)
        mapping = [tables.index[c.disc.value] for c in classification]
        fibres: list[list[int]] = [[] for _ in tables.orbits]
        for i, k in enumerate(mapping):
            fibres[k].append(i)
        disc_map = classification.derived["disc map"] = (mapping, fibres)
    return disc_map


@dataclass(frozen=True)
class DiscHomReport:
    """Result of checking that disc maps quadratic classes onto disc classes.

    The report a classification keeps and disc_hom_check returns: frozen,
    and its dicts and lists are read-only, since every caller shares it.
    """

    ring: Ring
    is_homomorphism: bool
    is_surjective: bool
    fiber_sizes: dict[str, int]
    fibers: dict[str, list[str]]
    preimage_witnesses: dict[str, str]
    violations: list[str]


def disc_hom_check(ring: Ring, classification: Classification) -> DiscHomReport:
    """Verify the class-level discriminant map is a surjective monoid hom.

    The report is worked out once per classification and kept in its
    derived slot (see _hom_report); every call returns that one read-only
    report.  Surjectivity is witnessed constructively: each disc class
    (d, t) yields an algebra (t, n) with t^2 - 4n = d, n the least solution
    of 4n = t^2 - d; the disc tables solve and check it once per ring
    instance.
    """
    require_ring(ring, classification)
    report = classification.derived.get("hom")
    if report is None:
        report = classification.derived["hom"] = _hom_report(ring, classification)
    return report


def _hom_report(ring: Ring, classification: Classification) -> DiscHomReport:
    """The read-only DiscHomReport of one classification, read off the
    ring's kept disc tables and the classification's disc map.

    Each row of the star table, mapped through disc, is compared with its
    disc-monoid row as one list; only a row that differs is walked pair by
    pair for its violations, to which one violation per empty fibre and the
    preimage violations of the disc tables are added: the report fails
    exactly when it lists a violation.
    """
    tables = _disc_tables(ring)
    monoid = tables.monoid
    mapping, fibres = _disc_map(ring, classification)
    violations: list[str] = []

    identity_idx = classification.index_of(QuadraticAlgebra(ring, 1, 0))
    if mapping[identity_idx] != monoid.identity:
        violations.append("identity class does not map to the identity disc class")
    # disc(rep_i * rep_j) against disc(rep_i) * disc(rep_j), row by row;
    # classes of one disc share the expected row.
    star, labels = classification.star_table(), classification.labels()
    expected = [[disc_row[dj] for dj in mapping] for disc_row in monoid.table]
    for label_i, row, di in zip(labels, star, mapping):
        want = expected[di]
        got = [mapping[k] for k in row]
        if got == want:
            continue
        for label_j, g, w in zip(labels, got, want):
            if g != w:
                violations.append(f"disc({label_i}*{label_j}) differs from "
                                  f"disc({label_i})*disc({label_j})")

    is_hom = not violations    # before the fibre and preimage violations
    fibers = {label: _ReadOnlyList([labels[i] for i in fibre])
              for label, fibre in zip(monoid.labels, fibres)}
    fiber_sizes = {lbl: len(v) for lbl, v in fibers.items()}
    missed = [f"no algebra class maps to disc class {lbl}"
              for lbl, size in fiber_sizes.items() if not size]
    violations += missed + tables.preimage_violations
    return DiscHomReport(ring=ring,
                         is_homomorphism=is_hom,
                         is_surjective=not missed,
                         fiber_sizes=_ReadOnlyDict(fiber_sizes),
                         fibers=_ReadOnlyDict(fibers),
                         preimage_witnesses=_ReadOnlyDict(tables.preimages),
                         violations=_ReadOnlyList(violations))


@dataclass(frozen=True, init=False)
class Rank1Form:
    """Q(e) = a on a free rank-1 module; similarity class = unit orbit of a.

    Keeps ring.element(a), so an int gives the form of the ring's own
    element, and another ring's element (MixedRingError) or a float
    (TypeError) is refused here, before any predicate runs.
    """

    ring: Ring
    a: RingElement

    def __init__(self, ring: Ring, a: RingElement):
        self.__dict__.update(ring=ring, a=ring.element(a))


def forms_similar(f: Rank1Form, g: Rank1Form) -> bool:
    """Whether g.a = u f.a for a unit u, which holds iff f.a and g.a generate
    the same ideal, over Z and over any finite ring: a = bx and b = ay give
    a(1 - xy) = 0, so in a local ring x is a unit or a = b = 0, and a finite
    ring is a product of local rings.  in_principal_ideal decides it both
    ways, so no unit is listed (over Z/n it is gcd(f.a, n) = gcd(g.a, n)).
    A form over another ring raises MixedRingError."""
    ring = f.ring
    require_ring(ring, g)
    return ring.in_principal_ideal(f.a, g.a) and ring.in_principal_ideal(g.a, f.a)


def form_semi_nondegenerate(f: Rank1Form) -> bool:
    return f.ring.is_nonzerodivisor(f.a)


# The associated bilinear form of a rank-1 form has Gram entry 2a, which
# grades the remaining classical conditions.

def form_nondegenerate(f: Rank1Form) -> bool:
    return f.ring.is_nonzerodivisor(f.ring.element(2) * f.a)


def form_nonsingular(f: Rank1Form) -> bool:
    return f.ring.is_unit(f.ring.element(2) * f.a)


def form_semi_nonsingular(f: Rank1Form) -> bool:
    return f.ring.is_unit(f.a)


def form_is_cancellative(f: Rank1Form) -> bool:
    """Brute force: a*a' similar to a*a'' must force a' similar to a''."""
    ring = f.ring
    if not ring.is_finite:
        raise InfiniteRingError("cancellativity scan requires a finite ring")
    elements = ring.elements()
    for ap in elements:
        for app in elements:
            left = Rank1Form(ring, f.a * ap)
            right = Rank1Form(ring, f.a * app)
            if forms_similar(left, right):
                if not forms_similar(Rank1Form(ring, ap), Rank1Form(ring, app)):
                    return False
    return True

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
kernel: the residues mod 2R are squared once, the unit squares read from
the kernel, and |U^2| products taken per class for its orbit, one per pair
of classes for the monoid table and one per class for a preimage algebra;
each disc label is formatted once.  Each class's witness (against t^2 from
the kernel), the closure of the monoid table and the monoid itself are
checked then, once per ring instance; a failure keeps nothing.
DiscClassification and disc_hom_check read these tables and take no ring
product or check once they exist: a DiscClassification makes one
RingElement per discriminant and per witness and copies the kept monoid,
and its DiscClass objects find their pairs in the tables.  disc_hom_check
works out its verdict once per classification and keeps it in the
classification's derived slot: it looks each algebra class's disc up by
value and compares each star-table row, mapped through disc, with its
disc-monoid row as one list.  Each call returns a new report over copies
of the kept verdict, with no star table, class row or comparison.

Rank-1 quadratic forms Q(e) = a on a free module appear at the end: their
similarity classes (unit orbits) multiply by a*a', and cancellativity of a
form is equivalent to its value being a nonzerodivisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InfiniteRingError, InternalCheckError
from .monoids import FiniteCommMonoid
from .quadratic import Classification, QuadraticAlgebra
from .rings import IntegerRing, Ring, RingElement


def sq_map(ring: Ring, t: RingElement) -> RingElement:
    """Square a residue mod 2R, returning the canonical value mod 4R.

    Well-defined: changing t by 2R changes t^2 by 4(t*d + d^2) in 4R.
    """
    return ring.coset_representative(t * t, 4)


def _square_classes(ring: Ring) -> dict:
    """Each class t^2 mod 4R of a finite ring -> its least witness t mod 2R,
    on canonical values.

    The witnesses of a class are a union of cosets of 2R, so the least one is
    one of the residues mod 2R, which the kernel lists in canonical order:
    the first to reach a class is its least witness, and Z/n is never
    enumerated.
    """
    mul, coset = ring._mul, ring._coset_rep
    witnesses: dict = {}
    for t in ring._residue_values(2):
        witnesses.setdefault(coset(mul(t, t), 4), t)
    return witnesses


def is_discriminant(ring: Ring, d: RingElement):
    """A witness t (canonical mod 2R) with t^2 = d mod 4R, or None.

    Over Z this is the classical condition d = 0, 1 mod 4.
    """
    ring._check_mine(d)
    if ring.is_finite:
        witness = _square_classes(ring).get(ring._coset_rep(d.value, 4))
        return None if witness is None else RingElement(ring, witness)
    if isinstance(ring, IntegerRing):
        if d.value % 4 in (0, 1):
            return ring.element(d.value % 2)
        return None
    raise InfiniteRingError("discriminant testing needs a finite ring or Z")


def _witness_problem(ring: Ring, d, t):
    """Why t is not a witness of d, on canonical values, or None: t must be
    reduced mod 2R and t^2 = d mod 4R, with t^2 read from the ring's kernel
    once that is built and one product before."""
    coset, kernel = ring._coset_rep, ring._kernel
    if coset(t, 2) != t:
        return "is not reduced mod 2R"
    c = None if kernel is None else kernel.code.get(t)
    tt = ring._mul(t, t) if c is None else kernel.values[kernel.square[c]]
    if coset(tt, 4) != coset(d, 4):
        return f"does not square to {ring.element_text(d)} mod 4R"
    return None


@dataclass(frozen=True, init=False)
class DiscClass:
    """A discriminant class: representative d plus a witness t stored mod 2R.

    Validated on construction, so deserialized witnesses are re-checked.  A
    pair (d, t) that the ring's disc tables hold was checked when they were
    built, and is found there with one lookup; any other pair is checked by
    _witness_problem.  The fields are written to the instance dict at
    once: a frozen dataclass's own __init__ makes one object.__setattr__
    call per field, which took most of the time of building a DiscClass.
    """

    ring: Ring
    d: RingElement
    witness_t: RingElement

    def __init__(self, ring: Ring, d: RingElement, witness_t: RingElement):
        ring._check_mine(d)
        ring._check_mine(witness_t)
        kernel = ring._kernel
        tables = None if kernel is None else kernel.derived.get("disc")
        if tables is None or tables.witness_of.get(d.value) != witness_t.value:
            problem = _witness_problem(ring, d.value, witness_t.value)
            if problem is not None:
                raise ValueError(f"witness {witness_t} {problem}")
        self.__dict__.update(ring=ring, d=d, witness_t=witness_t)

    def label(self) -> str:
        return str(self.d)


class _DiscTables:
    """The disc classes of one finite ring on canonical values, built once
    per ring instance and kept in its kernel's derived slot.

    Holds, per class in sorted order, the least member d with its witness t
    (witness_of, d -> t) and its unit-square orbit; the value -> class index
    of every discriminant; the monoid, with one label per class; and, for
    disc_hom_check, the label of a preimage algebra (t, n) of each class and
    the violations its construction found.  The orbits take |U^2| products
    per class, the monoid one per pair of classes, and the preimages one per
    class.  Each witness (t reduced mod 2R, t^2 = d mod 4R with t^2 read
    from the kernel), the closure of the monoid table and, by
    FiniteCommMonoid, the monoid's labels and table are checked here, so
    DiscClass and the DiscClassification views need not check them again.
    Everything held is an int, a canonical value or a string, so the kernel
    keeps no reference to the ring.
    """

    def __init__(self, ring: Ring):
        kernel = ring.kernel()
        mul, coset = ring._mul, ring._coset_rep
        witnesses = _square_classes(ring)
        unit_squares = kernel.unit_squares
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
            problem = _witness_problem(ring, d, witness)
            if problem is not None:
                raise InternalCheckError(
                    f"witness {ring.element_text(witness)} {problem}",
                    {"ring": ring.spec_string(),
                     "d": RingElement(ring, d).to_json(),
                     "witness_t": RingElement(ring, witness).to_json()})
            orbit = sorted({mul(s, d) for s in unit_squares}, key=ring.sort_key)
            for v in orbit:
                self.index[v] = len(self.orbits)
            self.witness_of[d] = witness
            self.orbits.append(orbit)
        labels = [ring.element_text(d) for d in self.witness_of]
        self.monoid = FiniteCommMonoid(labels, self._monoid_table(ring),
                                       self.index[ring.one.value])
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
                    raise InternalCheckError(
                        f"product {ring.element_text(ab)} of "
                        f"discriminants is not a discriminant",
                        {"ring": ring.spec_string(),
                         "a": RingElement(ring, a).to_json(),
                         "b": RingElement(ring, b).to_json(),
                         "product": RingElement(ring, ab).to_json()})
                row.append(k)
            table.append(row)
        return table

    def _find_preimages(self, ring: Ring, kernel) -> None:
        """Solve 4n = t^2 - d for each class (d, t), with n the least
        solution, read from the kernel's norm map 4n -> [n]."""
        mul, add, neg = ring._mul, ring._add, ring._neg
        four = ring.element(4).value
        values, code = kernel.values, kernel.code
        self.preimages: dict[str, str] = {}
        self.preimage_violations: list[str] = []
        for (d, t), label in zip(self.witness_of.items(), self.monoid.labels):
            tt = values[kernel.square[code[t]]]
            norms = kernel.norms.get(code[add(tt, neg(d))])
            if norms is None:
                self.preimage_violations.append(
                    f"no algebra constructed for disc class {label}")
                continue
            n = values[norms[0]]
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
            DiscClass(ring, orbit[0], RingElement(ring, t))
            for orbit, t in zip(self.orbits, tables.witness_of.values())]
        self.monoid = tables.monoid.copy()

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def index_of(self, d: RingElement) -> int:
        """Class index of a discriminant of this ring; ValueError otherwise."""
        return disc_class_of(self.ring, d)


def disc_classes(ring: Ring) -> DiscClassification:
    return DiscClassification(ring)


def disc_class_of(ring: Ring, d: RingElement) -> int:
    """Index of d's class in disc_classes(ring): one lookup in the ring's
    kept disc tables.  ValueError unless d is a discriminant of ring."""
    index = _disc_tables(ring).index
    if isinstance(d, RingElement) and (d.ring is ring or d.ring == ring):
        k = index.get(d.value)
        if k is not None:
            return k
    raise ValueError(f"{d!r} is not a discriminant")


def require_ring(ring: Ring, *given) -> None:
    """ValueError unless each object given (a classification, a disc class,
    an AS group) was built for ring."""
    for g in given:
        if g.ring is not ring and g.ring != ring:
            raise ValueError(f"{type(g).__name__} of {g.ring!r} given for {ring!r}")


@dataclass
class DiscHomReport:
    """Result of checking that disc maps quadratic classes onto disc classes."""

    ring: Ring
    is_homomorphism: bool
    is_surjective: bool
    fiber_sizes: dict[str, int]
    fibers: dict[str, list[str]]
    preimage_witnesses: dict[str, str]
    violations: list[str] = field(default_factory=list)


def disc_hom_check(ring: Ring, classification: Classification) -> DiscHomReport:
    """Verify the class-level discriminant map is a surjective monoid hom.

    The verdict is worked out once per classification and kept in its
    derived slot (see _hom_verdict); each call returns a new report over
    copies of it.  Surjectivity is witnessed constructively: each disc class
    (d, t) yields an algebra (t, n) with t^2 - 4n = d, n the least solution
    of 4n = t^2 - d; the disc tables solve and check it once per ring
    instance.
    """
    tables = _disc_tables(ring)
    require_ring(ring, classification)
    verdict = classification.derived.get("hom")
    if verdict is None:
        verdict = classification.derived["hom"] = _hom_verdict(
            ring, classification, tables)
    is_hom, surjective, fiber_sizes, fibers, violations = verdict
    return DiscHomReport(ring=ring,
                         is_homomorphism=is_hom,
                         is_surjective=surjective,
                         fiber_sizes=dict(fiber_sizes),
                         fibers={label: list(v) for label, v in fibers.items()},
                         preimage_witnesses=dict(tables.preimages),
                         violations=list(violations))


def _hom_verdict(ring: Ring, classification: Classification,
                 tables: _DiscTables) -> tuple:
    """(is_hom, surjective, fiber sizes, fibers, violations) of one
    classification, read off the ring's kept disc tables.

    Each row of the star table, mapped through disc, is compared with its
    disc-monoid row as one list; only a row that differs is walked pair by
    pair for its violations, to which the preimage violations of the disc
    tables are added.
    """
    index, monoid = tables.index, tables.monoid
    mapping = [index[c.disc.value] for c in classification]
    disc_table, disc_labels = monoid.table, monoid.labels
    violations: list[str] = []
    is_hom = True

    identity_idx = classification.index_of(QuadraticAlgebra(ring, 1, 0))
    if mapping[identity_idx] != monoid.identity:
        is_hom = False
        violations.append("identity class does not map to the identity disc class")
    # disc(rep_i * rep_j) against disc(rep_i) * disc(rep_j), row by row;
    # classes of one disc share the expected row.
    star, expected = classification.star_table(), {}
    labels = classification.labels()
    for label_i, row, di in zip(labels, star, mapping):
        want = expected.get(di)
        if want is None:
            disc_row = disc_table[di]
            want = expected[di] = [disc_row[dj] for dj in mapping]
        got = [mapping[k] for k in row]
        if got == want:
            continue
        is_hom = False
        for label_j, g, w in zip(labels, got, want):
            if g != w:
                violations.append(f"disc({label_i}*{label_j}) differs from "
                                  f"disc({label_i})*disc({label_j})")

    fibers: dict[str, list[str]] = {label: [] for label in disc_labels}
    for di, label in zip(mapping, labels):
        fibers[disc_labels[di]].append(label)
    fiber_sizes = {lbl: len(v) for lbl, v in fibers.items()}
    violations += tables.preimage_violations
    surjective = all(size > 0 for size in fiber_sizes.values())
    return is_hom, surjective, fiber_sizes, fibers, violations


@dataclass(frozen=True)
class Rank1Form:
    """Q(e) = a on a free rank-1 module; similarity class = unit orbit of a."""

    ring: Ring
    a: RingElement


def forms_similar(f: Rank1Form, g: Rank1Form) -> bool:
    if isinstance(f.ring, IntegerRing):
        return g.a in (f.a, -f.a)
    return any(u * f.a == g.a for u in f.ring.units())


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

"""Discriminants over a ring and the discriminant monoid.

A discriminant is an element d that is a square modulo 4R, witnessed by some
t with t^2 = d mod 4R; only t mod 2R matters.  Two discriminants are in the
same class when they differ by a unit square.  Over a finite ring the classes
form a commutative monoid under multiplication with identity class(1) and
absorbing class(0); over Z the class of d is d itself since the only unit
square is 1.

Rank-1 quadratic forms Q(e) = a on a free module appear at the end: their
similarity classes (unit orbits) multiply by a*a', and cancellativity of a
form is equivalent to its value being a nonzerodivisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InfiniteRingError, InternalCheckError
from .monoids import FiniteCommMonoid
from .quadratic import Classification, QuadraticAlgebra, star_product
from .rings import IntegerRing, Ring, RingElement


def coset_representative(a: RingElement, k: int) -> RingElement:
    """Canonical representative of a + kR (least member; a mod k over Z)."""
    return a.ring.coset_representative(a, k)


def sq_map(ring: Ring, t: RingElement) -> RingElement:
    """Square a residue mod 2R, returning the canonical value mod 4R.

    Well-defined: changing t by 2R changes t^2 by 4(t*d + d^2) in 4R.
    """
    ring._check_mine(t)
    return coset_representative(t * t, 4)


def _square_classes(ring: Ring) -> dict[RingElement, RingElement]:
    """Each class t^2 mod 4R of a finite ring -> its least witness t mod 2R.

    The witnesses of a class are a union of cosets of 2R, so the least one is
    reduced mod 2R; elements come in canonical order, so the first t to reach
    a class is that least witness.
    """
    witnesses: dict[RingElement, RingElement] = {}
    for t in ring.elements():
        witnesses.setdefault(sq_map(ring, t), t)
    return witnesses


def is_discriminant(ring: Ring, d: RingElement):
    """A witness t (canonical mod 2R) with t^2 = d mod 4R, or None.

    Over Z this is the classical condition d = 0, 1 mod 4.
    """
    ring._check_mine(d)
    if ring.is_finite:
        return _square_classes(ring).get(coset_representative(d, 4))
    if isinstance(ring, IntegerRing):
        if d.value % 4 in (0, 1):
            return ring.element(d.value % 2)
        return None
    raise InfiniteRingError("discriminant testing needs a finite ring or Z")


@dataclass(frozen=True)
class DiscClass:
    """A discriminant class: representative d plus a witness t stored mod 2R.

    Validated on construction, so deserialized witnesses are re-checked.
    """

    ring: Ring
    d: RingElement
    witness_t: RingElement

    def __post_init__(self):
        self.ring._check_mine(self.d)
        self.ring._check_mine(self.witness_t)
        canonical = coset_representative(self.witness_t, 2)
        if canonical != self.witness_t:
            raise ValueError(f"witness {self.witness_t} is not reduced mod 2R")
        if sq_map(self.ring, self.witness_t) != coset_representative(self.d, 4):
            raise ValueError(
                f"witness {self.witness_t} does not square to {self.d} mod 4R"
            )

    def label(self) -> str:
        return str(self.d)


class DiscClassification:
    """The discriminant classes of a finite ring, with their monoid."""

    def __init__(self, ring: Ring):
        if not ring.is_finite:
            raise InfiniteRingError(
                "disc classes of an infinite ring are not enumerable; "
                "over Z use is_discriminant and the value d itself"
            )
        self.ring = ring
        witnesses = _square_classes(ring)
        unit_squares = {u * u for u in ring.units()}
        seen: set[RingElement] = set()
        self.classes: list[DiscClass] = []
        self.orbits: list[list[RingElement]] = []
        # The first unseen discriminant in canonical order is the least member
        # of its unit-square orbit, so classes come out sorted.
        for d in ring.elements():
            if d in seen:
                continue
            witness = witnesses.get(coset_representative(d, 4))
            if witness is None:
                continue
            orbit = sorted({s * d for s in unit_squares}, key=lambda e: e.sort_key())
            seen.update(orbit)
            self.classes.append(DiscClass(ring, d, witness))
            self.orbits.append(orbit)
        self._index: dict[RingElement, int] = {}
        for i, orbit in enumerate(self.orbits):
            for d in orbit:
                self._index[d] = i
        self.monoid = self._build_monoid()

    def _build_monoid(self) -> FiniteCommMonoid:
        labels = [c.label() for c in self.classes]
        table = []
        for ci in self.classes:
            row = []
            for cj in self.classes:
                prod = ci.d * cj.d
                if prod not in self._index:
                    raise InternalCheckError(
                        f"product {prod} of discriminants is not a discriminant"
                    )
                row.append(self._index[prod])
            table.append(row)
        identity = self._index[self.ring.one]
        return FiniteCommMonoid(labels, table, identity)

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def index_of(self, d: RingElement) -> int:
        if d not in self._index:
            raise ValueError(f"{d!r} is not a discriminant")
        return self._index[d]


def disc_classes(ring: Ring) -> DiscClassification:
    return DiscClassification(ring)


def disc_class_of(ring: Ring, d: RingElement) -> int:
    """Index of d's class in disc_classes(ring)."""
    return DiscClassification(ring).index_of(d)


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

    Surjectivity is witnessed constructively: each disc class (d, t) yields an
    algebra (t, n) with t^2 - 4n = d by solving 4n = t^2 - d.
    """
    dc = DiscClassification(ring)
    mapping = [dc.index_of(c.disc) for c in classification]
    violations: list[str] = []
    is_hom = True

    identity_idx = classification.index_of(QuadraticAlgebra(ring, 1, 0))
    if mapping[identity_idx] != dc.monoid.identity:
        is_hom = False
        violations.append("identity class does not map to the identity disc class")
    for i, ci in enumerate(classification):
        for j, cj in enumerate(classification):
            k = classification.index_of(star_product(ci.rep, cj.rep))
            if mapping[k] != dc.monoid.table[mapping[i]][mapping[j]]:
                is_hom = False
                violations.append(
                    f"disc({ci.label}*{cj.label}) differs from "
                    f"disc({ci.label})*disc({cj.label})"
                )

    fibers: dict[str, list[str]] = {c.label(): [] for c in dc}
    for i, c in enumerate(classification):
        fibers[dc[mapping[i]].label()].append(c.label)
    fiber_sizes = {lbl: len(v) for lbl, v in fibers.items()}

    preimages: dict[str, str] = {}
    four = ring.element(4)
    for c in dc:
        t = c.witness_t
        want = t * t - c.d
        n = next((b for b in ring.elements() if four * b == want), None)
        if n is None:
            violations.append(f"no algebra constructed for disc class {c.label()}")
            continue
        alg = QuadraticAlgebra(ring, t, n)
        if alg.disc() != c.d:
            violations.append(f"constructed algebra for {c.label()} has wrong disc")
        preimages[c.label()] = alg.label()

    surjective = all(size > 0 for size in fiber_sizes.values())
    return DiscHomReport(ring=ring,
                         is_homomorphism=is_hom,
                         is_surjective=surjective,
                         fiber_sizes=fiber_sizes,
                         fibers=fibers,
                         preimage_witnesses=preimages,
                         violations=violations)


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

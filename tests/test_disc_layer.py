"""The discriminant layer on canonical values against its object-level oracles.

DiscClassification, disc_hom_check and fiber_report run on canonical values
with the ring's _mul/_add/_neg.  The oracles below are the constructions
they replaced, written with RingElement and QuadraticAlgebra objects and
brute-force kernels (least coset members, units by search), so that they
share no value-level code with what they check.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrings import (FiberReport, InternalCheckError, QuadraticAlgebra, as_act,
                       as_group, check_freeness, classify, disc_classes,
                       disc_hom_check, fiber_report, four_torsion,
                       is_discriminant, parse_ring, star_product)
from quadrings.artin_schreier import ASGroup
from quadrings.discriminants import DiscClass, DiscClassification, DiscHomReport
from quadrings.rings import ModRing, QuotientPolyRing, RingElement

QUOTIENT_RINGS = [
    "Z/2[x]/(x^2)", "Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^3+x+1)", "Z/3[x]/(x^2+1)",
    "Z/4[x]/(x^2)", "Z/4[x]/(x^2+x+1)", "Z/4[x]/(x^2+3)", "Z/8[x]/(x^2)",
    "Z/2[x]/(x^4)", "Z/6[x]/(x^2+1)"]
RINGS = [f"Z/{n}" for n in range(1, 41)] + QUOTIENT_RINGS


def sort_key(e):
    return e.sort_key()


def least_in_coset(ring, a, k):
    """The least member of a + kR, by listing kR."""
    return min({a + ring.element(k) * b for b in ring.elements()}, key=sort_key)


def units_by_search(ring):
    return [a for a in ring.elements()
            if any(a * b == ring.one for b in ring.elements())]


def disc_classification_by_objects(ring):
    """(d, witness) per class, the orbits, the class index and the monoid
    table with its identity, built with element objects."""
    witnesses = {}
    for t in ring.elements():
        witnesses.setdefault(least_in_coset(ring, t * t, 4), t)
    unit_squares = {u * u for u in units_by_search(ring)}
    classes, orbits, index = [], [], {}
    for d in ring.elements():
        if d in index:
            continue
        w = witnesses.get(least_in_coset(ring, d, 4))
        if w is None:
            continue
        orbit = sorted({s * d for s in unit_squares}, key=sort_key)
        for e in orbit:
            index[e] = len(classes)
        classes.append((d, w))
        orbits.append(orbit)
    table = [[index[a * b] for b, _ in classes] for a, _ in classes]
    return classes, orbits, index, table, index[ring.one]


def disc_hom_check_by_objects(ring, cl):
    """The DiscHomReport, with star products and discs taken on objects:
    the hom violations, then one per empty fibre."""
    classes, _, index, table, identity = disc_classification_by_objects(ring)
    labels = [str(d) for d, _ in classes]
    mapping = [index[c.rep.disc()] for c in cl]
    violations = []
    is_hom = mapping[cl.index_of(QuadraticAlgebra(ring, 1, 0))] == identity
    if not is_hom:
        violations.append("identity class does not map to the identity disc class")
    for i, ci in enumerate(cl):
        for j, cj in enumerate(cl):
            k = cl.index_of(star_product(ci.rep, cj.rep))
            if mapping[k] != table[mapping[i]][mapping[j]]:
                is_hom = False
                violations.append(f"disc({ci.label}*{cj.label}) differs from "
                                  f"disc({ci.label})*disc({cj.label})")
    fibers = {label: [] for label in labels}
    for i, c in enumerate(cl):
        fibers[labels[mapping[i]]].append(c.label)
    violations += [f"no algebra class maps to disc class {label}"
                   for label, fiber in fibers.items() if not fiber]
    preimages = {}
    four = ring.element(4)
    for (d, t), label in zip(classes, labels):
        n = next(b for b in ring.elements() if four * b == t * t - d)
        preimages[label] = QuadraticAlgebra(ring, t, n).label()
    sizes = {label: len(v) for label, v in fibers.items()}
    return DiscHomReport(ring=ring, is_homomorphism=is_hom,
                         is_surjective=all(sizes.values()), fiber_sizes=sizes,
                         fibers=fibers, preimage_witnesses=preimages,
                         violations=violations)


def fiber_report_by_objects(ring, d, cl, asg):
    """The FiberReport, with every orbit pair acted on as an algebra."""
    discs = {u * u * d.d for u in units_by_search(ring)}
    fiber = [i for i, c in enumerate(cl) if c.rep.disc() in discs]
    pos = {ci: k for k, ci in enumerate(fiber)}
    action = []
    for m in asg.classes:
        images = {}
        for ci in fiber:
            targets = {cl.index_of(as_act(QuadraticAlgebra(ring, t, n), m))
                       for t, n in cl[ci].orbit_pairs}
            assert len(targets) == 1 and targets <= set(fiber)
            images[ci] = targets.pop()
        action.append(images)
    orbits, placed = [], set()
    for ci in fiber:
        if ci not in placed:
            orbit = sorted({images[ci] for images in action})
            orbits.append([pos[c] for c in orbit])
            placed.update(orbit)
    kernel = [k for k, images in enumerate(action)
              if all(images[ci] == ci for ci in fiber)]
    free = all(images[ci] != ci for k, images in enumerate(action)
               if k != asg.identity for ci in fiber)
    # with-basis orbits from all pairs of disc exactly d, and the index bound
    tors, four = four_torsion(ring), ring.element(4)
    count, seen = 0, set()
    for t in ring.elements():
        for n in ring.elements():
            if t * t - four * n == d.d and (t, n) not in seen:
                count += 1
                seen.update((t, n + d.d * m) for m in tors)
    fours = {four * a for a in ring.elements()}
    traces = sum(1 for t in ring.elements() if t * t - d.d in fours)
    bound = traces * (len(tors) // len({d.d * m for m in tors}))
    return FiberReport(disc_class=d, fiber=fiber,
                       fiber_labels=[cl[i].label for i in fiber],
                       orbits=orbits, kernel=kernel, free=free,
                       transitive=len(orbits) == 1, basis_orbit_count=count,
                       basis_orbit_bound=bound)


def twin(ring):
    """A different ring in which every canonical value of ring is canonical."""
    if isinstance(ring, ModRing):
        return ModRing(ring.n + 1)
    return QuotientPolyRing(ring.n + 1, ring.modulus)


def check_against_oracles(ring):
    classes, orbits, index, table, identity = disc_classification_by_objects(ring)
    dc = disc_classes(ring)
    assert [(c.d, c.witness_t) for c in dc] == classes
    assert dc.orbits == orbits
    assert dc.monoid.labels == [str(d) for d, _ in classes]
    assert dc.monoid.table == table
    assert dc.monoid.identity == identity
    other = twin(ring)
    witnesses = {}
    for t in ring.elements():
        witnesses.setdefault(least_in_coset(ring, t * t, 4), t)
    for a in ring.elements():
        assert is_discriminant(ring, a) == witnesses.get(least_in_coset(ring, a, 4))
        if a in index:
            assert dc.index_of(a) == index[a]
        else:
            with pytest.raises(ValueError):
                dc.index_of(a)
        with pytest.raises(ValueError):
            dc.index_of(RingElement(other, a.value))

    cl = classify(ring)
    expected = disc_hom_check_by_objects(ring, cl)
    assert disc_hom_check(ring, cl) == expected

    asg = as_group(ring)
    for d in dc:
        report = fiber_report_by_objects(ring, d, cl, asg)
        assert fiber_report(ring, d, cl, asg) == report
        assert check_freeness(ring, d, cl, asg) == (
            report.free or not ring.is_nonzerodivisor(d.d))


@pytest.mark.parametrize("spec", RINGS)
def test_disc_layer_matches_object_oracles(spec):
    check_against_oracles(parse_ring(spec))


@st.composite
def small_finite_ring(draw):
    """Z/n with n <= 48, or (Z/n)[x]/(f) with f monic of degree 1-3 and
    at most 32 elements."""
    degree = draw(st.integers(0, 3))
    if degree == 0:
        return ModRing(draw(st.integers(1, 48)))
    n = draw(st.integers(2, {1: 32, 2: 5, 3: 3}[degree]))
    f = draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree))
    return QuotientPolyRing(n, f + [1])


@settings(max_examples=20, deadline=None)
@given(small_finite_ring())
def test_disc_layer_matches_object_oracles_on_drawn_rings(ring):
    check_against_oracles(ring)


def test_an_empty_fibre_is_listed_by_the_report_and_the_oracle(monkeypatch):
    # over Z/8 the disc classes are 0, 1, 4 and 5; with the discs of the
    # disc-5 classes read as 1, on the class records the report reads and
    # by QuadraticAlgebra.disc the oracle reads, disc is still a hom, and
    # the fibre of 5 is empty on both sides
    ring = parse_ring("Z/8")
    cl = classify(ring)
    five, one = ring.element(5), ring.one
    for c in cl:
        if c.disc == five:
            monkeypatch.setattr(c, "disc", one)
    real = QuadraticAlgebra.disc
    monkeypatch.setattr(QuadraticAlgebra, "disc",
                        lambda self: one if real(self) == five else real(self))
    report = disc_hom_check(ring, cl)
    assert report == disc_hom_check_by_objects(ring, cl)
    assert report.is_homomorphism and not report.is_surjective
    assert report.violations == ["no algebra class maps to disc class 5"]


def test_disc_hom_check_refuses_classes_of_another_ring():
    z4, z8 = parse_ring("Z/4"), parse_ring("Z/8")
    with pytest.raises(ValueError):
        disc_hom_check(z4, classify(z8))


@pytest.mark.parametrize("spec", ["Z/12", "Z/4[x]/(x^2)"])
def test_disc_hom_check_lists_each_violation_of_a_corrupted_star_table(
        spec, monkeypatch):
    # in two rows of three, every other product lands in the class of
    # (1, 0): the rows that then differ from the disc monoid are walked pair
    # by pair, and the violations come out as the per-pair oracle lists
    # them, item for item and in order
    ring = parse_ring(spec)
    cl = classify(ring)
    one, product = QuadraticAlgebra(ring, 1, 0), star_product

    def corrupted(a, b):
        i, j = cl.index_of(a), cl.index_of(b)
        return one if i % 3 and (i + j) % 2 == 0 else product(a, b)

    table = [[cl.index_of(corrupted(ci.rep, cj.rep)) for cj in cl] for ci in cl]
    monkeypatch.setattr(cl, "star_table", lambda: table)
    monkeypatch.setitem(globals(), "star_product", corrupted)
    expected = disc_hom_check_by_objects(ring, cl)
    report = disc_hom_check(ring, cl)
    assert report.violations == expected.violations
    assert report == expected
    assert not report.is_homomorphism
    # some rows differ in a few entries only, and some rows not at all
    rows = {v.split("*")[0] for v in report.violations}
    assert 0 < len(rows) < len(cl)
    assert len(report.violations) < len(rows) * len(cl)


def disc_view(dc):
    return dc.classes, dc.orbits, dc.monoid


def as_view(asg):
    return (asg.four_torsion, asg.wp4, asg.classes, asg.torsion_classes,
            asg.identity,
            [[asg.add(i, j) for j in range(asg.order)] for i in range(asg.order)])


@pytest.mark.parametrize("spec", ["Z/12", "Z/9", "Z/2[x]/(x^2+x+1)", "Z/4[x]/(x^2)"])
def test_repeated_disc_and_as_calls_take_no_product(spec, monkeypatch):
    # the disc classes, the AS group and the preimages of the hom check are
    # kept in the ring's kernel: a repeated call on the same instance takes
    # no ring product and gives what a fresh instance gives
    ring = parse_ring(spec)
    cl = classify(ring)
    first = (disc_classes(ring), as_group(ring), disc_hom_check(ring, cl))
    calls = 0
    original = ring._mul

    def counting(a, b):
        nonlocal calls
        calls += 1
        return original(a, b)

    monkeypatch.setattr(ring, "_mul", counting)
    again = (disc_classes(ring), as_group(ring), disc_hom_check(ring, cl))
    assert calls == 0
    fresh_ring = parse_ring(spec)
    fresh = (disc_classes(fresh_ring), as_group(fresh_ring),
             disc_hom_check(fresh_ring, classify(fresh_ring)))
    for got in (first, again):
        assert disc_view(got[0]) == disc_view(fresh[0])
        assert as_view(got[1]) == as_view(fresh[1])
        assert got[2] == fresh[2]


def on_disc_classes(ring):
    return lambda: disc_classes(ring)


def on_as_group(ring):
    return lambda: as_group(ring)


def on_fiber_report(ring):
    """The report over d = 1, with classify, as_group and disc_classes run
    first."""
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    return lambda: fiber_report(ring, dc[dc.index_of(ring.one)], cl, asg)


def comparable(result):
    if isinstance(result, DiscClassification):
        return disc_view(result)
    if isinstance(result, ASGroup):
        return as_view(result)
    return result


@pytest.mark.parametrize("spec, wrong, call, message, witness", [
    # 0 * 0 made 1, so the residue 0 was taken for the least witness of 1
    ("Z/8", {(0, 0): 1}, on_disc_classes,
     "witness 0 does not square to 1 mod 4R",
     {"ring": "Z/8", "d": 1, "witness_t": 0}),
    # the monoid table's product 0 * 1 made 2, not a discriminant
    ("Z/4", {(0, 1): 2}, on_disc_classes,
     "product 2 of discriminants is not a discriminant",
     {"ring": "Z/4", "a": 0, "b": 1, "product": 2}),
    # (x+1)x made x, so P(R)[4] = {0, 1, x} is not closed
    ("Z/2[x]/(x^2+x+1)", {((1, 1), (0, 1)): (0, 1)}, on_as_group,
     "P(R)[4] not closed under + at (1, x)",
     {"ring": "Z/2[x]/(x^2+x+1)", "pair": [[1, 0], [0, 1]]}),
    # dR[4] for d = 1 read as {0, 1}, so the index bound doubles
    ("Z/4", {(1, 2): 0, (1, 3): 1}, on_fiber_report,
     "with-basis orbit count 2 != index bound 4 for d = 1",
     {"ring": "Z/4", "d": 1, "count": 2, "bound": 4}),
])
def test_checks_kept_once_still_run_on_a_fresh_instance(spec, wrong, call, message,
                                                        witness, monkeypatch):
    # the disc witnesses, disc-monoid closure, the P(R)[4] subgroup and
    # count == bound run when a ring instance first builds its tables (the
    # witnesses against the kernel's t^2): with products corrupted, an
    # instance that kept its tables answers as before, and a fresh instance
    # raises the check's error with its witness
    kept, fresh = parse_ring(spec), parse_ring(spec)
    on_kept, on_fresh = call(kept), call(fresh)
    fresh.kernel()
    expected = comparable(on_kept())
    for ring in (kept, fresh):
        real = ring._mul
        monkeypatch.setattr(ring, "_mul", lambda a, b, real=real:
                            wrong[(a, b)] if (a, b) in wrong else real(a, b))
    assert comparable(on_kept()) == expected
    with pytest.raises(InternalCheckError) as info:
        on_fresh()
    assert str(info.value) == message
    assert info.value.witness == witness


def test_hand_built_disc_class_is_checked_once_tables_exist():
    # with the ring's disc tables built, every hand-built pair is checked
    # in full: a wrong or unreduced witness is still a ValueError, and a
    # good witness of an orbit member passes
    z8, z5 = parse_ring("Z/8"), parse_ring("Z/5")
    disc_classes(z8), disc_classes(z5)
    one = z8.one
    assert DiscClass(z8, one, one).witness_t == one
    with pytest.raises(ValueError) as info:
        DiscClass(z8, one, z8.zero)
    assert str(info.value) == "witness 0 does not square to 1 mod 4R"
    with pytest.raises(ValueError) as info:
        DiscClass(z8, one, z8.element(3))
    assert str(info.value) == "witness 3 is not reduced mod 2R"
    four = z5.element(4)
    assert DiscClass(z5, four, z5.zero).d == four


@pytest.mark.parametrize("spec", ["Z/8", "Z/5", "Z/4[x]/(x^2+x+1)"])
def test_disc_classes_check_no_witness_and_a_hand_built_class_checks_one(spec,
                                                                         monkeypatch):
    # the views build their classes from the kept tables with no witness
    # check; DiscClass(...) checks its witness once, against one product
    # for t^2, also for a pair the tables hold
    import quadrings.discriminants as discriminants
    ring = parse_ring(spec)
    disc_classes(ring)
    real, calls = discriminants._witness_problem, []

    def counting(ring, d, t, tt):
        calls.append((d, t, tt))
        return real(ring, d, t, tt)

    monkeypatch.setattr(discriminants, "_witness_problem", counting)
    classes = disc_classes(ring).classes
    assert calls == []
    for c in classes:
        calls.clear()
        assert DiscClass(ring, c.d, c.witness_t) == c
        assert calls == [(c.d.value, c.witness_t.value, (c.witness_t * c.witness_t).value)]


def scramble(xs):
    """Mutate a list and every list in it."""
    for x in xs:
        if isinstance(x, list):
            scramble(x)
    xs.append(None)
    xs.reverse()


@pytest.mark.parametrize("spec", ["Z/12", "Z/9", "Z/2[x]/(x^2+x+1)", "Z/4[x]/(x^2)"])
def test_views_are_not_aliased(spec):
    # every list of a returned DiscClassification and ASGroup, and the
    # monoid, are new: mutating them leaves the next call on the same ring
    # equal to a fresh instance's
    ring, fresh = parse_ring(spec), parse_ring(spec)
    expected = disc_view(disc_classes(fresh)), as_view(as_group(fresh))
    for _ in range(2):
        dc, asg = disc_classes(ring), as_group(ring)
        assert (disc_view(dc), as_view(asg)) == expected
        monoid = dc.monoid
        for xs in (dc.classes, dc.orbits, monoid.labels, monoid.table,
                   asg.four_torsion, asg.wp4, asg.classes, asg.torsion_classes):
            scramble(xs)
        monoid.identity += 1


@pytest.mark.parametrize("spec", ["Z/12", "Z/4[x]/(x^2)"])
def test_elements_disc_classes_and_reports_copy_and_pickle(spec):
    # RingElement reduces to (RingElement, (ring, value)), so elements and
    # what holds them copy, deep-copy and pickle to equal objects
    ring = parse_ring(spec)
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    d = dc[1]
    report = fiber_report(ring, d, cl, asg)
    for obj in (d.d, d, report):
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj
        assert copy.copy(obj) == obj
    assert copy.copy(d.d).ring is ring
    restored = pickle.loads(pickle.dumps(d.d))
    assert restored.ring == ring and restored.value == d.d.value
    with pytest.raises(AttributeError):
        restored.value = 0


@pytest.mark.parametrize("spec", ["Z/1024", "Z/2[x]/(x^10+x^3+1)", "Z/4[x]/(x^2)"])
def test_pickles_and_copies_leave_the_ring_caches_behind(spec):
    # a ring pickles and copies its defining data only: the kernel with its
    # kept tables and inverse codes is rebuilt on first use, so an element
    # pickles to its fresh size after every kept table is built
    fresh = len(pickle.dumps(parse_ring(spec).element(3)))
    ring = parse_ring(spec)
    cl, asg = classify(ring), as_group(ring)
    reports = [fiber_report(ring, d, cl, asg) for d in disc_classes(ring)]
    ring.units()
    caches = set(ring._caches)
    assert caches <= set(vars(ring))
    element = ring.element(3)
    assert len(pickle.dumps(element)) == fresh
    restored = pickle.loads(pickle.dumps(element))
    assert restored == element and not caches & set(vars(restored.ring))
    for obj in (reports[-1].disc_class, reports[-1]):
        twin = copy.deepcopy(obj)
        assert twin == obj
        twin_ring = (twin.disc_class if isinstance(twin, FiberReport) else twin).d.ring
        assert twin_ring is not ring and not caches & set(vars(twin_ring))
    # the copy rebuilds what it needs and answers as the original
    again = restored.ring
    assert disc_view(disc_classes(again)) == disc_view(disc_classes(ring))
    assert again.units() == ring.units()
    assert set(vars(again)) == set(vars(ring))

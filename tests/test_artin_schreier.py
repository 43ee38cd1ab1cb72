import dataclasses

import pytest

from quadrings import (BasisChange, DiscClass, InfiniteRingError,
                       InternalCheckError, IsoClass, MultiPoly,
                       QuadraticAlgebra, Rank1Form, annihilator_four_torsion,
                       apply_basis_change, as_act,
                       as_embed, as_group, basis_change_group, check_freeness,
                       classify, disc_class_of, disc_classes, disc_hom_check,
                       fiber_report, form_is_cancellative, four_torsion,
                       is_discriminant, is_isomorphic,
                       is_sec_algebra, is_sec_element, parse_ring, star_product,
                       wp4_subgroup)
from quadrings.artin_schreier import _as_tables, _fibre_facts
from quadrings.discriminants import require_ring
from quadrings.quadratic import ClassMap, Classification
from test_quadratic import rings_up_to

FINITE_RINGS = ["Z/2", "Z/3", "Z/4", "Z/6", "Z/8",
                "Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^2)", "Z/4[x]/(x^2)"]


def test_four_torsion_and_wp4_examples():
    f2 = parse_ring("Z/2")
    assert [a.value for a in four_torsion(f2)] == [0, 1]
    assert [a.value for a in wp4_subgroup(f2)] == [0]
    z4 = parse_ring("Z/4")
    assert [a.value for a in four_torsion(z4)] == [0, 1, 2, 3]
    assert [a.value for a in wp4_subgroup(z4)] == [0, 2]
    z = parse_ring("Z")
    assert four_torsion(z) == [z.zero]
    assert as_group(z).order == 1


def test_wp4_subgroup_spans_with_few_add_rows():
    # P(R)[4] has 128 members over GF(256), so AS(R) has 2 classes; the AS
    # tables keep at most log2(128) add rows for the span, the row of 1
    # among them, and one per coset
    ring = parse_ring("Z/2[x]/(x^8+x^4+x^3+x+1)")
    kernel = ring.kernel()
    members = wp4_subgroup(ring)
    assert len(members) == 128
    assert len(four_torsion(ring)) // len(members) == 2
    assert sum(row is not None for row in kernel._rows) <= 7 + 2


def test_wp4_subgroup_names_the_first_pair_that_leaves_it(monkeypatch):
    # Over GF(4) P(R)[4] = {0, 1}; forcing (x+1)x = x makes the members
    # {0, 1, x}, and 1 + x is the first sum in member order outside them
    ring = parse_ring("Z/2[x]/(x^2+x+1)")
    ring.kernel()
    real = ring._mul
    monkeypatch.setattr(ring, "_mul", lambda a, b: (0, 1) if (a, b) == ((1, 1), (0, 1))
                        else real(a, b))
    with pytest.raises(InternalCheckError, match=r"not closed under \+") as info:
        wp4_subgroup(ring)
    assert info.value.witness == {"ring": "Z/2[x]/(x^2+x+1)",
                                  "pair": [[1, 0], [0, 1]]}


def test_as_group_examples():
    assert as_group(parse_ring("Z/2")).invariant_factors() == [2]
    asg = as_group(parse_ring("Z/4"))
    assert asg.invariant_factors() == [2]
    assert [c.value for c in asg.classes] == [0, 1]
    assert as_group(parse_ring("Z/3")).order == 1
    assert as_group(parse_ring("Z/16")).order == 1


def test_as_group_is_elementary_two_group():
    for spec in FINITE_RINGS:
        asg = as_group(parse_ring(spec))
        assert set(asg.invariant_factors()) <= {2}
        for i in range(asg.order):
            assert asg.add(i, i) == asg.identity
        from quadrings import FiniteCommMonoid, validate_monoid
        table = [[asg.add(i, j) for j in range(asg.order)] for i in range(asg.order)]
        m = FiniteCommMonoid([str(rep) for rep in asg.classes], table, asg.identity)
        assert validate_monoid(m)


def test_wp_closure_exhaustive():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        two, four = ring.element(2), ring.element(4)
        for r in ring.elements():
            pr = r + r * r
            for s in ring.elements():
                ps = s + s * s
                combo = r + s + two * r * s
                assert combo + combo * combo == pr + ps + four * pr * ps


def as_group_by_objects(ring):
    """R[4], P(R)[4], the coset representatives and the class map, computed
    with element objects (the construction before it ran on values)."""
    four, one, two = ring.element(4), ring.one, ring.element(2)
    tors = [a for a in ring.elements() if four * a == ring.zero]
    wp4 = sorted({r + r * r for r in ring.elements()
                  if (one + two * r) * (one + two * r) == one},
                 key=lambda e: e.sort_key())
    class_of, classes = {}, []
    for a in tors:
        if a in class_of:
            continue
        coset = sorted({a + w for w in wp4}, key=lambda e: e.sort_key())
        for member in coset:
            class_of[member] = len(classes)
        classes.append(coset[0])
    return tors, wp4, classes, class_of


@pytest.mark.parametrize("spec", [f"Z/{n}" for n in range(1, 41)] + [
    "Z/2[x]/(x^2)", "Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^3+x+1)", "Z/3[x]/(x^2+1)",
    "Z/4[x]/(x^2)", "Z/4[x]/(x^2+x+1)", "Z/4[x]/(x^2+3)", "Z/8[x]/(x^2)",
    "Z/2[x]/(x^4)", "Z/6[x]/(x^2+1)"])
def test_as_group_matches_object_oracle(spec):
    ring = parse_ring(spec)
    tors, wp4, classes, class_of = as_group_by_objects(ring)
    asg = as_group(ring)
    assert four_torsion(ring) == asg.four_torsion == tors
    assert wp4_subgroup(ring) == asg.wp4 == wp4
    assert asg.classes == classes
    assert {a: asg.class_of(a) for a in tors} == class_of
    for a in ring.elements():
        if a not in class_of:
            with pytest.raises(ValueError):
                asg.class_of(a)


def test_as_embed_examples():
    z4 = parse_ring("Z/4")
    assert as_embed(z4, z4.element(0)) == QuadraticAlgebra(z4, 1, 0)
    f2 = parse_ring("Z/2")
    assert as_embed(f2, f2.element(1)) == QuadraticAlgebra(f2, 1, 1)
    # injectivity witness over Z/4
    assert is_isomorphic(as_embed(z4, z4.element(0)),
                         as_embed(z4, z4.element(1))) is None


def test_as_embed_is_injective_monoid_hom():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        asg = as_group(ring)
        cl = classify(ring)
        images = [cl.index_of(as_embed(ring, rep)) for rep in asg.classes]
        assert len(set(images)) == len(images)
        for i, a in enumerate(asg.classes):
            for j, b in enumerate(asg.classes):
                prod = star_product(as_embed(ring, a), as_embed(ring, b))
                assert cl.index_of(prod) == images[asg.add(i, j)]


def test_embedded_product_adds_norms_exactly():
    # (1, n)*(1, m) = (1, n+m) on the nose once 4n = 4m = 0
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        for a in four_torsion(ring):
            for b in four_torsion(ring):
                prod = star_product(as_embed(ring, a), as_embed(ring, b))
                assert prod == QuadraticAlgebra(ring, ring.one, a + b)


def test_as_act_examples():
    z4 = parse_ring("Z/4")
    s = QuadraticAlgebra(z4, 1, 0)
    assert as_act(s, z4.element(1)) == QuadraticAlgebra(z4, 1, 1)
    assert as_act(s, z4.element(0)) == s
    degenerate = QuadraticAlgebra(z4, 0, 1)  # disc 0: action fixes it
    assert as_act(degenerate, z4.element(1)) == degenerate


def test_as_act_requires_four_torsion():
    z8 = parse_ring("Z/8")
    with pytest.raises(ValueError):
        as_act(QuadraticAlgebra(z8, 1, 0), z8.element(1))


def test_as_act_agrees_with_star_exactly():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        tors = four_torsion(ring)
        for t in ring.elements():
            for n in ring.elements():
                s = QuadraticAlgebra(ring, t, n)
                for m in tors:
                    assert as_act(s, m) == star_product(s, as_embed(ring, m))


def test_action_descends_to_classes():
    for spec in ["Z/4", "Z/6", "Z/2[x]/(x^2)"]:
        ring = parse_ring(spec)
        cl = classify(ring)
        tors = four_torsion(ring)
        for c in cl:
            for m in tors:
                expected = cl.index_of(as_act(c.rep, m))
                for t, n in c.orbit_pairs:
                    assert cl.index_of(as_act(QuadraticAlgebra(ring, t, n), m)) == expected


def test_fiber_report_z4():
    z4 = parse_ring("Z/4")
    dc = disc_classes(z4)
    rep1 = fiber_report(z4, dc[dc.index_of(z4.element(1))], classify(z4), as_group(z4))
    assert rep1.fiber_labels == ["(1,0)", "(1,1)"]
    assert rep1.free and rep1.transitive
    assert len(rep1.kernel) == 1
    rep0 = fiber_report(z4, dc[dc.index_of(z4.element(0))], classify(z4), as_group(z4))
    assert len(rep0.fiber) == 4
    assert not rep0.transitive and not rep0.free
    assert [len(o) for o in rep0.orbits] == [1, 1, 1, 1]
    # trivial action: kernel is all of AS(R), which is ann(0)[4] = R[4] mod wp4
    asg = as_group(z4)
    assert len(rep0.kernel) == asg.order
    assert [a.value for a in annihilator_four_torsion(z4, z4.element(0))] == [0, 1, 2, 3]


def test_fiber_report_f2():
    f2 = parse_ring("Z/2")
    dc = disc_classes(f2)
    rep = fiber_report(f2, dc[dc.index_of(f2.element(1))], classify(f2), as_group(f2))
    assert rep.fiber_labels == ["(1,0)", "(1,1)"]
    assert rep.free and rep.transitive


def test_fiber_kernel_contains_annihilator_image():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        cl = classify(ring)
        asg = as_group(ring)
        dc = disc_classes(ring)
        for d in dc:
            report = fiber_report(ring, d, cl, asg)
            ann_classes = {asg.class_of(a)
                           for a in annihilator_four_torsion(ring, d.d)}
            assert ann_classes <= set(report.kernel)
            assert sorted(sum(report.orbits, [])) == list(range(len(report.fiber)))


def basis_orbit_count_and_bound(ring, d):
    """The with-basis orbit count and bound of the element d, as the
    action over its class keeps them when d is the first disc reported."""
    _, count, bound = _fibre_facts(ring, d.value, _as_tables(ring))
    return count, bound


def test_basis_orbit_indexing_all_discs():
    # with-basis orbit count = |{t : t^2 = d mod 4R}| * |R[4]/dR[4]|, checked
    # for every discriminant element of every test ring by direct enumeration
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        for d in ring.elements():
            if is_discriminant(ring, d) is None:
                continue
            count, bound = basis_orbit_count_and_bound(ring, d)
            assert count == bound


def basis_orbit_count_by_pairs(ring, d):
    """The with-basis orbit count from all |R|^2 pairs (t, n)."""
    tors = four_torsion(ring)
    four = ring.element(4)
    count = 0
    seen = set()
    for t in ring.elements():
        for n in ring.elements():
            if t * t - four * n != d or (t, n) in seen:
                continue
            count += 1
            seen.update((t, n + d * m) for m in tors)
    return count


def test_basis_orbit_count_matches_pair_definition():
    # every discriminant element, so every member of every disc class
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        for d in ring.elements():
            if is_discriminant(ring, d) is not None:
                count, _ = basis_orbit_count_and_bound(ring, d)
                assert count == basis_orbit_count_by_pairs(ring, d), (spec, d)
    # larger 2-power rings, on each disc class representative
    for spec in ("Z/16", "Z/32", "Z/8[x]/(x^2+3)"):
        ring = parse_ring(spec)
        for d in disc_classes(ring):
            count, _ = basis_orbit_count_and_bound(ring, d.d)
            assert count == basis_orbit_count_by_pairs(ring, d.d), (spec, d.d)


def test_sec_element_examples():
    z4 = parse_ring("Z/4")
    assert is_sec_element(z4, z4.element(1))
    assert not is_sec_element(z4, z4.element(2))
    z = parse_ring("Z")
    assert is_sec_element(z, z.element(2))
    assert not is_sec_element(z, z.element(4))
    assert not is_sec_element(z, z.element(0))


def test_sec_element_bounded_scan_matches_wide_oracle():
    # over Z, compare against a brute scan of r up to t^2
    z = parse_ring("Z")
    for tv in range(1, 25):
        t = z.element(tv)
        fast = is_sec_element(z, t)
        slow = all(not (r * r % tv == 0 and (2 * r) % tv == 0 and r % tv != 0)
                   for r in range(tv * tv + 1))
        assert fast == slow


def test_sec_algebra():
    z4 = parse_ring("Z/4")
    assert is_sec_algebra(QuadraticAlgebra(z4, 1, 0))
    assert not is_sec_algebra(QuadraticAlgebra(z4, 0, 1))  # disc 0
    z = parse_ring("Z")
    assert is_sec_algebra(QuadraticAlgebra(z, 0, -1))  # disc 4, trace 2 reachable
    assert not is_sec_algebra(QuadraticAlgebra(z, 2, 1))  # disc 0
    assert is_sec_algebra(QuadraticAlgebra(z, 1, 1))  # disc -3


def test_integer_sec_characterization():
    # over Z: sec iff nonzero and not divisible by 4; this is what makes the
    # bounded basis search in is_sec_algebra complete
    z = parse_ring("Z")
    for t in range(-60, 61):
        assert is_sec_element(z, z.element(t)) == (t != 0 and t % 4 != 0)
    for tv in range(-8, 9):
        for nv in range(-8, 9):
            s = QuadraticAlgebra(z, tv, nv)
            assert is_sec_algebra(s) == (s.disc().value != 0)


def test_integer_sec_element_is_polynomial_time(monkeypatch):
    from quadrings.rings import IntegerRing
    calls = [0]
    original = IntegerRing.in_principal_ideal

    def counted(self, a, t):
        calls[0] += 1
        if calls[0] > 1000:
            raise AssertionError("is_sec_element scans residues mod t")
        return original(self, a, t)
    monkeypatch.setattr(IntegerRing, "in_principal_ideal", counted)
    z = parse_ring("Z")
    assert is_sec_element(z, z.element(2 * 10 ** 4 + 2))
    assert is_sec_element(z, z.element(10 ** 12 + 2))
    assert not is_sec_element(z, z.element(10 ** 12))
    assert is_sec_algebra(QuadraticAlgebra(z, 10 ** 12 + 1, 5))


def test_check_freeness_all_rings():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        cl = classify(ring)
        asg = as_group(ring)
        for d in disc_classes(ring):
            assert check_freeness(ring, d, cl, asg)


def test_fiber_reports_never_read_orbit_pairs(monkeypatch):
    # The reports read classes off class rows, so every check of the
    # action runs with no orbit listing readable.
    def refuse(self):
        raise AssertionError("an orbit listing was read")
    monkeypatch.setattr(IsoClass, "orbit_pairs", property(refuse))
    monkeypatch.setattr(ClassMap, "pairs", refuse)
    for spec in FINITE_RINGS + ["Z/12", "Z/16"]:
        ring = parse_ring(spec)
        cl, asg = classify(ring), as_group(ring)
        for d in disc_classes(ring):
            report = fiber_report(ring, d, cl, asg)
            assert sum(cl[ci].orbit_size for ci in report.fiber) > 0
            assert check_freeness(ring, d, cl, asg)


@pytest.mark.parametrize("spec", ["Z/256", "Z/2[x]/(x^8+x^4+x^3+x+1)", "Z/1024",
                                  "Z/2[x]/(x^10+x^3+1)"])
def test_fiber_reports_hold_no_pair_listing(spec):
    # the reports of every disc class keep no |R|^2 state of their own: the
    # class map holds rows only for the traces of class representatives,
    # and the reports' tracemalloc peak stays under 1 MB
    import tracemalloc
    ring = parse_ring(spec)
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    tracemalloc.start()
    try:
        for d in dc:
            fiber_report(ring, d, cl, asg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    code = ring.kernel().code
    built = {y for y, row in enumerate(cl.class_map._rows) if row is not None}
    assert built <= {code[c.rep.t.value] for c in cl}
    assert peak < 2 ** 20, peak


def sec_algebra_by_search(s):
    """Oracle: a nonzerodivisor discriminant and a basis change to a sec trace.

    Finite rings try all of G; over Z, u = +/-1 and |r| <= |t| + 2 reach a
    trace of every residue mod 4 within t's parity.
    """
    ring = s.ring
    if not ring.is_nonzerodivisor(s.disc()):
        return False
    if ring.is_finite:
        group = basis_change_group(ring)
    else:
        bound = abs(s.t.value) + 2
        group = [BasisChange(ring.element(u), ring.element(r))
                 for u in (1, -1) for r in range(-bound, bound + 1)]
    return any(is_sec_element(ring, apply_basis_change(s, g).t) for g in group)


def test_sec_algebra_matches_basis_search():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        for t in ring.elements():
            for n in ring.elements():
                s = QuadraticAlgebra(ring, t, n)
                assert is_sec_algebra(s) == sec_algebra_by_search(s), (spec, s)
    z = parse_ring("Z")
    for tv in range(-8, 9):
        for nv in range(-8, 9):
            s = QuadraticAlgebra(z, tv, nv)
            assert is_sec_algebra(s) == sec_algebra_by_search(s), s


def test_separable_classes_are_the_sec_classes():
    # the classify CLI reads its sec column from c.separable: over a finite
    # ring the nonzerodivisors are the units
    for ring in rings_up_to(64):
        for c in classify(ring):
            assert c.separable == is_sec_algebra(c.rep), (ring.spec_string(), c)


def freeness_by_sec_member_loop(cl, asg, fiber):
    """The loop check_freeness ran before it read the answer off the
    report: every non-identity AS class moves every sec member of fiber."""
    sec_fiber = [ci for ci in fiber if sec_algebra_by_search(cl[ci].rep)]
    assert sec_fiber in ([], fiber)
    return all(cl.index_of(as_act(cl[ci].rep, m)) != ci
               for k, m in enumerate(asg.classes) if k != asg.identity
               for ci in sec_fiber)


def test_check_freeness_matches_sec_member_loop():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        cl = classify(ring)
        asg = as_group(ring)
        for d in disc_classes(ring):
            fiber = fiber_report(ring, d, cl, asg).fiber
            expected = freeness_by_sec_member_loop(cl, asg, fiber)
            assert check_freeness(ring, d, cl, asg) == expected, (spec, d.d)


def test_fiber_matches_disc_classification_for_every_orbit_member():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        cl = classify(ring)
        asg = as_group(ring)
        dc = disc_classes(ring)
        for i, orbit in enumerate(dc.orbits):
            expected = [j for j, c in enumerate(cl) if dc.index_of(c.disc) == i]
            for d in orbit:
                disc_class = DiscClass(ring, d, is_discriminant(ring, d))
                assert fiber_report(ring, disc_class, cl, asg).fiber == expected, (spec, d)


def test_fibre_reports_are_class_invariants():
    # the kept action over a disc class holds the count and bound of the d
    # of its first report, and is checked against ann(d)[4] for that d
    # only, so every member of the class must give the same report: each
    # member's report, built afresh on a classification that keeps no
    # action, equals its class's in every field but disc_class
    for ring in rings_up_to(32):
        cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
        for d, orbit in zip(dc, dc.orbits):
            cl.derived.pop("fibres", None)
            expected = fiber_report(ring, d, cl, asg)
            for member in orbit[1:]:
                cl.derived.pop("fibres", None)
                own = DiscClass(ring, member, is_discriminant(ring, member))
                report = fiber_report(ring, own, cl, asg)
                assert report.disc_class is own
                assert dataclasses.replace(report, disc_class=d) == expected, (
                    ring, member)


def test_dropped_ring_is_freed_by_refcount():
    # the ring's kernel holds ints, canonical values and strings only, its
    # kept disc, AS and fibre tables included, and so does the
    # classification's derived slot, so dropping the ring and everything
    # built over it frees both with the collector off
    import gc
    import weakref
    gc.collect()
    gc.disable()
    try:
        for spec in ["Z/12", "Z/4[x]/(x^2)"]:
            ring = parse_ring(spec)
            cl, asg = classify(ring), as_group(ring)
            cl.star_table()
            reports = [fiber_report(ring, d, cl, asg) for d in disc_classes(ring)]
            for _ in range(2):
                reports.append(disc_hom_check(ring, cl))
                reports += [check_freeness(ring, d, cl, asg)
                            for d in disc_classes(ring)]
            alive, cl_alive = weakref.ref(ring), weakref.ref(cl)
            del ring, cl, asg, reports
            assert alive() is None, spec
            assert cl_alive() is None, spec
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", ["Z/12", "Z/2[x]/(x^2+x+1)", "Z/4[x]/(x^2)"])
def test_fiber_report_products_first_and_repeated(spec, monkeypatch):
    # After classify, as_group and disc_classes, the first report over d
    # takes |R[4]| products for dR[4] and ann(d)[4] and one d'*m per disc d'
    # of a class representative and AS class m: none per orbit pair, none
    # for the fiber, which is read off the kept disc index, and no ring
    # addition, since the number of traces t with t^2 = d mod 4R is one
    # lookup in the kept disc tables, so no report reads the kernel's table
    # of t^2; it reads one class row per fiber class.  Repeated reports,
    # check_freeness and disc_hom_check read all of it from the ring's and
    # the classification's kept tables: no product, addition, class row or
    # star table.
    ring = parse_ring(spec)
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    hom = disc_hom_check(ring, cl)
    kernel = ring.kernel()
    unit_squares = {u * u for u in ring.units()}
    # the discs of the fiber's class representatives, read off the
    # classification so that each first report is counted
    rep_discs = [{c.disc for c in cl if c.disc in {s * d.d for s in unit_squares}}
                 for d in dc]
    calls = {"_mul": 0, "_add": 0, "row": 0, "star_table": 0}
    for owner, name in [(ring, "_mul"), (ring, "_add"), (cl.class_map, "row"),
                        (cl, "star_table")]:
        original = getattr(owner, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counting)
    monkeypatch.setattr(kernel, "square", None)    # read by no report
    none = dict.fromkeys(calls, 0)
    for d, discs in zip(dc, rep_discs):
        calls.update(none)
        first = fiber_report(ring, d, cl, asg)
        assert calls == {**none, "_mul": len(asg.four_torsion) + len(discs) * asg.order,
                         "row": len(first.fiber)}, (spec, d.d)
        calls.update(none)
        assert fiber_report(ring, d, cl, asg) == first
        assert check_freeness(ring, d, cl, asg) == (
            first.free or not ring.is_nonzerodivisor(d.d))
        assert disc_hom_check(ring, cl) == hom
        assert calls == none, (spec, d.d)


def test_failed_fibre_check_keeps_nothing(monkeypatch):
    # count != bound raises on every call, from fiber_report and
    # check_freeness alike, and keeps no action;
    # with the check mended the same instances report as a fresh ring
    import quadrings.artin_schreier as artin_schreier
    ring = parse_ring("Z/4")
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    d = dc[dc.index_of(ring.one)]
    monkeypatch.setattr(artin_schreier, "_basis_orbit_bound", lambda *args: -1)
    for call in (fiber_report, check_freeness, fiber_report):
        with pytest.raises(InternalCheckError,
                           match="with-basis orbit count 2 != index bound -1"):
            call(ring, d, cl, asg)
    assert not cl.derived.get("fibres")
    monkeypatch.undo()
    fresh = parse_ring("Z/4")
    fresh_dc = disc_classes(fresh)
    assert fiber_report(ring, d, cl, asg) == fiber_report(
        fresh, fresh_dc[fresh_dc.index_of(fresh.one)], classify(fresh), as_group(fresh))


def test_first_report_runs_the_annihilator_check(monkeypatch):
    # GF(4) classes (1,0) and (1,x) both have disc 1, so the action over the
    # class of x is free; with x*a = 0 forced for every a, ann(x)[4] holds
    # every AS class, and the first report over x, from fiber_report or
    # check_freeness alike, raises and keeps no action
    ring = parse_ring("Z/2[x]/(x^2+x+1)")
    cl, asg = classify(ring), as_group(ring)
    x = ring.element([0, 1])
    dx = DiscClass(ring, x, is_discriminant(ring, x))
    real, zero = ring._mul, ring.zero.value
    monkeypatch.setattr(ring, "_mul", lambda a, b: zero if a == x.value else real(a, b))
    for call in (fiber_report, check_freeness):
        with pytest.raises(InternalCheckError,
                           match="kernel misses annihilator classes for d = x") as info:
            call(ring, dx, cl, asg)
        assert info.value.witness == {"ring": ring.spec_string(), "d": x.to_json()}
    assert not cl.derived.get("fibres")


def mutate_everything(report):
    """Change every list and dict a report holds, nested ones included."""
    def mutate(x):
        if isinstance(x, list):
            for item in x:
                mutate(item)
            x.append(-1)
        elif isinstance(x, dict):
            for v in x.values():
                mutate(v)
            x["mutated"] = -1

    for f in dataclasses.fields(report):
        mutate(getattr(report, f.name))


@pytest.mark.parametrize("spec", ["Z/12", "Z/4[x]/(x^2)", "Z/8[x]/(x^2+3)"])
def test_reports_do_not_alias_what_is_kept(spec):
    # a caller that changes a returned report changes nothing kept: the
    # repeated call still equals the report of a fresh ring instance
    ring, fresh = parse_ring(spec), parse_ring(spec)
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    fresh_cl, fresh_asg, fresh_dc = classify(fresh), as_group(fresh), disc_classes(fresh)
    mutate_everything(disc_hom_check(ring, cl))
    assert disc_hom_check(ring, cl) == disc_hom_check(fresh, fresh_cl)
    for d, fresh_d in zip(dc, fresh_dc):
        report = fiber_report(ring, d, cl, asg)
        mutate_everything(report)
        assert report.fiber[-1] == -1
        assert fiber_report(ring, d, cl, asg) == fiber_report(
            fresh, fresh_d, fresh_cl, fresh_asg), d.d


def test_disc_hom_verdict_is_kept_per_classification(monkeypatch):
    # a second classification of the same ring instance, with a star table
    # that is wrong at one entry, reports that entry on every call; the
    # first classification's kept verdict stays clean
    ring = parse_ring("Z/12")
    first = classify(ring)
    clean = disc_hom_check(ring, first)
    assert clean.is_homomorphism and clean.violations == []
    second = classify(ring)
    star = [list(row) for row in second.star_table()]
    i, j = 1, 2
    a, b = second[i], second[j]
    wrong = next(k for k, c in enumerate(second)
                 if disc_class_of(ring, c.disc)
                 != disc_class_of(ring, second[star[i][j]].disc))
    star[i][j] = wrong
    monkeypatch.setattr(second, "star_table", lambda: tuple(map(tuple, star)))
    for _ in range(2):
        bad = disc_hom_check(ring, second)
        assert not bad.is_homomorphism
        assert bad.violations == [f"disc({a.label}*{b.label}) differs from "
                                  f"disc({a.label})*disc({b.label})"]
    assert disc_hom_check(ring, first) == clean


class CountingStores(dict):
    """A dict that counts, by key, how often each key is stored."""

    def __init__(self):
        super().__init__()
        self.stores = {}

    def __setitem__(self, key, value):
        self.stores[key] = self.stores.get(key, 0) + 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("spec", ["Z/12", "Z/4[x]/(x^2)", "Z/2[x]/(x^2+x+1)"])
def test_multiple_rows_are_built_once_per_kernel(spec):
    # the kernel keeps each row k*x it builds, keyed by k mod n, so
    # classify (2, -1, -4), the AS tables (4, 2, -1), the disc tables'
    # preimages (4), the hom check, every fibre report and four_torsion (4),
    # run twice over, build each row once
    ring = parse_ring(spec)
    kernel = ring.kernel()
    kernel._multiples = kept = CountingStores()
    for _ in range(2):
        cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
        disc_hom_check(ring, cl)
        for d in dc:
            fiber_report(ring, d, cl, asg)
            check_freeness(ring, d, cl, asg)
        four_torsion(ring)
    n = ring.n
    assert kept.stores == {k % n: 1 for k in (2, -1, 4, -4)}, spec
    for k in (2, -1, 4, -4):
        assert kernel.multiple_row(k) is kept[k % n]


@pytest.mark.parametrize("spec", ["Z/960", "Z/5[x]/(x^2+2)", "Z/3[x]/(x^3)"])
def test_fiber_reports_keep_no_add_row_of_minus_d(spec):
    # the reports keep only add rows of 4-torsion codes, the shifts d'm and
    # the generators of dR[4]: the trace count is read off the disc
    # tables, so the row of -d is never built
    ring = parse_ring(spec)
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    kernel = ring.kernel()
    before = {c for c, row in enumerate(kernel._rows) if row is not None}
    for d in dc:
        fiber_report(ring, d, cl, asg)
    kept = {c for c, row in enumerate(kernel._rows) if row is not None} - before
    torsion = {kernel.code[a.value] for a in asg.four_torsion}
    minus_ds = {kernel.code[(-d.d).value] for d in dc}
    assert minus_ds - torsion    # rows a report would have kept before
    assert kept <= torsion, spec


def grouped(row):
    """Each value of a code table -> the codes that map to it, increasing."""
    found = {}
    for c, q in enumerate(row):
        found.setdefault(q, []).append(c)
    return found


def fiber_report_by_pairs(ring, d, classification, group):
    """The walked fields of the fibre report from every orbit pair, the
    walk fiber_report ran before it read the action off class
    representatives, kept as the oracle.  It builds its own root table
    t^2 -> [t], norm map 4n -> [n] and unit squares from the kernel's table
    of t^2, its row of 4x and the ring's units, so it shares no table with
    the disc tables.  For each disc d' in u^2 d and each key q = 4n of the
    norm map it reads the traces t with t^2 = d' + q from the root table
    and the norms n of q, and collects, for every AS class m
    (m = 0 included), the (class, image class) of each pair (t, n) and its
    image (t, n + d'm).  It checks that the walked classes are exactly the
    fiber and that each image class is the same for every pair of a class,
    that is, that the class map is the orbit partition, and returns the
    fiber, orbits, kernel, free and transitive fields the walked action
    gives.
    """
    require_ring(ring, d, classification, group)
    cl, asg = classification, group
    kernel, mul = ring.kernel(), ring._mul
    code, add_row = kernel.code, kernel.add_row
    dv = d.d.value
    discs = {mul(mul(u.value, u.value), dv) for u in ring.units()}

    fiber = [i for i, c in enumerate(cl) if c.disc.value in discs]
    fiber_pos = {ci: k for k, ci in enumerate(fiber)}

    def witness(**more) -> dict:
        """Where a check failed, for InternalCheckError."""
        return {"ring": ring.spec_string(), "d": d.d.to_json(), **more}

    roots, norms = grouped(kernel.square), grouped(kernel.multiple_row(4))
    row_of = cl.class_map.row
    found = [set() for _ in asg.classes]    # per m, (class, image class) of each pair
    for v in discs:
        plus_d = add_row(code[v])
        met = [(row_of(t), ns) for q, ns in norms.items()
               for t in roots.get(plus_d[q], ())]
        if not met:
            continue
        classes = [row[n] for row, ns in met for n in ns]
        for m, pairs in zip(asg.classes, found):
            plus = add_row(code[mul(v, m.value)])    # m sends n to n + d'*m
            pairs.update(zip(classes, [row[plus[n]] for row, ns in met for n in ns]))

    # The pairs must fill the fiber's classes and no other (each m saw every
    # pair), and the action must not depend on the chosen orbit member: all
    # the images of a class under m must lie in one class of the fiber.
    stray = sorted({ci for ci, _ in found[0]}.symmetric_difference(fiber))
    if stray:
        label = cl[stray[0]].label
        raise InternalCheckError(
            f"orbit pairs over d = {d.d} and the fiber disagree on class {label}",
            witness(**{"class": label, "in_fiber": stray[0] in fiber_pos}))
    action: list[dict[int, int]] = [{} for _ in found]
    for m, pairs, images in zip(asg.classes, found, action):
        for ci, target in sorted(pairs):
            if images.setdefault(ci, target) != target:
                raise InternalCheckError(
                    f"action of {m} is not constant on class {cl[ci].label}",
                    witness(**{"class": cl[ci].label, "as_class": m.to_json()}))

    orbits = []
    placed: set[int] = set()
    for ci in fiber:
        if ci not in placed:
            orbit = sorted({images[ci] for images in action})
            orbits.append([fiber_pos[c] for c in orbit])
            placed.update(orbit)
    return {"fiber": fiber,
            "orbits": orbits,
            "kernel": [k for k, images in enumerate(action)
                       if all(images[ci] == ci for ci in fiber)],
            "free": all(images[ci] != ci for k, images in enumerate(action)
                        if k != asg.identity for ci in fiber),
            "transitive": len(orbits) == 1}


WITNESS_RINGS = ["Z/8[x]/(x^2+3)", "Z/8[x]/(x^2+2x+4)", "Z/8[x]/(x^2+6x+4)",
                 "Z/8[x]/(x^2+4x+7)", "Z/16[x]/(x^2+3)"]


def test_hom_check_fibres_are_the_fibre_reports(monkeypatch):
    # disc_hom_check and the fibre reports read one disc map per
    # classification, built by one pass over its classes whichever comes
    # first: the hom check's fibre of each disc class is the report's
    walks = []
    original = Classification.__iter__

    def counting(self):
        walks.append(self)
        return original(self)

    monkeypatch.setattr(Classification, "__iter__", counting)
    rings_ = rings_up_to(32) + [parse_ring(spec) for spec in WITNESS_RINGS]
    for k, ring in enumerate(rings_):
        cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
        walks.clear()
        if k % 2:
            hom = disc_hom_check(ring, cl)
        reports = [fiber_report(ring, d, cl, asg) for d in dc]
        if not k % 2:
            hom = disc_hom_check(ring, cl)
        assert [r.fiber_labels for r in reports] == [
            hom.fibers[d.label()] for d in dc], ring
        assert list(hom.fibers) == [d.label() for d in dc], ring
        assert len(walks) == 1 and walks[0] is cl, ring


@pytest.mark.parametrize("spec", FINITE_RINGS + WITNESS_RINGS)
def test_check_freeness_first_matches_sec_member_loop(spec):
    # on a fresh classification check_freeness builds the fiber's action
    # itself, before any fiber_report; the report built after it agrees
    ring = parse_ring(spec)
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    for i, d in enumerate(dc):
        fiber = [ci for ci, c in enumerate(cl) if dc.index_of(c.disc) == i]
        assert i not in cl.derived.get("fibres", {})
        free = check_freeness(ring, d, cl, asg)
        assert free == freeness_by_sec_member_loop(cl, asg, fiber), (spec, d.d)
        report = fiber_report(ring, d, cl, asg)
        assert report.fiber == fiber
        assert free == (report.free or not ring.is_nonzerodivisor(d.d)), (spec, d.d)


@pytest.mark.parametrize("ring", rings_up_to(27) + [parse_ring(spec)
                                                    for spec in WITNESS_RINGS],
                         ids=str)
def test_fiber_report_matches_the_walk_over_every_orbit_pair(ring):
    # the representative form against the per-pair walk, field by field, on
    # every disc class; the walk also checks that the class map is the
    # orbit partition.  The count and bound are not walked: they are pinned
    # by test_basis_orbit_count_matches_pair_definition
    cl, asg = classify(ring), as_group(ring)
    for d in disc_classes(ring):
        report = fiber_report(ring, d, cl, asg)
        for field, walked in fiber_report_by_pairs(ring, d, cl, asg).items():
            assert getattr(report, field) == walked, (field, d.d)


def test_paper_sequence_through_the_fibre_reports():
    # 1 -> AS(R) -> Quad(R) -> Disc(R) -> 1: the AS classes embed as
    # distinct classes (1, m), disc is onto, and over a unit d the AS action
    # on the fibre is free.  It is transitive there, as exactness asks, on
    # every ring but the witness rings, where the trace mod 2R splits a
    # fibre (ROADMAP item 1, Disc(R) with parity)
    not_transitive = set()
    for ring in rings_up_to(64) + [parse_ring("Z/16[x]/(x^2+3)")]:
        cl, asg = classify(ring), as_group(ring)
        embedded = {cl.index_of(as_embed(ring, m)) for m in asg.classes}
        assert len(embedded) == asg.order, ring
        assert disc_hom_check(ring, cl).is_surjective, ring
        for d in disc_classes(ring):
            if ring.is_unit(d.d):
                report = fiber_report(ring, d, cl, asg)
                assert report.free, (ring, d.d)
                if not report.transitive:
                    not_transitive.add(ring.spec_string())
    assert sorted(not_transitive) == sorted(WITNESS_RINGS)


def test_fiber_report_refuses_an_image_off_the_fiber():
    # over Z/4 the fiber of d = 1 is (1,0), (1,1), swapped by the AS class
    # 1; a slice that puts (1, 1) in the class of (0, 0) sends the image of
    # the representative (1, 0) off the fiber
    ring = parse_ring("Z/4")
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    d = dc[dc.index_of(ring.element(1))]
    class_map = cl.class_map
    y = ring.kernel().code[1]
    assert class_map.slice_of[y] == 1 and class_map.row(y) == class_map.slices[1]
    assert class_map.slices[1][1] == cl.index_of(QuadraticAlgebra(ring, 1, 1))
    class_map.slices[1][1] = cl.index_of(QuadraticAlgebra(ring, 0, 0))
    class_map._rows[y] = None
    for call in (fiber_report, check_freeness):    # nothing kept between
        with pytest.raises(InternalCheckError, match=r"action of 1 moved \(1,0\) "
                           "off the fiber") as info:
            call(ring, d, cl, asg)
        assert info.value.witness == {"ring": "Z/4", "d": 1, "class": "(1,0)",
                                      "as_class": 1}


def test_basis_orbit_count_spans_dr4_from_few_add_rows():
    # over GF(1024) dR[4] = R for d = 1; the count spans it from the add
    # rows of at most log2(1024) generators, and the traces t with
    # t^2 = d mod 4R are counted by the disc tables, so no row of -d is
    # kept.  Only the rows added after the AS tables count.
    ring = parse_ring("Z/2[x]/(x^10+x^3+1)")
    kernel = ring.kernel()
    as_group(ring)
    before = sum(row is not None for row in kernel._rows)
    count, bound = basis_orbit_count_and_bound(ring, ring.one)
    assert count == bound
    assert sum(row is not None for row in kernel._rows) - before <= 10


def test_fiber_report_failure_carries_witness():
    # a slice table that moves one pair of a class into another makes the
    # action non-constant; the oracle walks by trace, so the witness names
    # either the class that was split or the class the pair moved into
    ring = parse_ring("Z/4")
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    d = dc[dc.index_of(ring.element(1))]
    report = fiber_report(ring, d, cl, asg)
    ci = report.fiber[0]
    class_map, code = cl.class_map, ring.kernel().code
    y, m = (code[e.value] for e in cl[ci].orbit_pairs[-1])
    # (y, m) lies in the class of (t0, n), t0 the least trace of y's orbit
    n = ring.kernel().add_row(class_map.shift[y])[class_map.back[y][m]]
    slice_ = class_map.slices[class_map.slice_of[y]]
    assert slice_[n] == ci
    moved = slice_[n] = report.fiber[-1] if len(report.fiber) > 1 else ci + 1
    class_map._rows[y] = None    # the next report reads y's row off the slice
    with pytest.raises(InternalCheckError) as info:
        fiber_report_by_pairs(ring, d, cl, asg)
    witness = info.value.witness
    assert witness["ring"] == "Z/4" and witness["d"] == 1
    assert witness["class"] in (cl[ci].label, cl[moved].label)
    assert witness["as_class"] in [m.to_json() for m in asg.classes]


def test_fiber_report_refuses_a_pair_off_the_fiber():
    # a pair of disc 1 moved into the class of (0, 0) lies off the fiber
    ring = parse_ring("Z/4")
    cl, asg, dc = classify(ring), as_group(ring), disc_classes(ring)
    d = dc[dc.index_of(ring.element(1))]
    class_map = cl.class_map
    y = ring.kernel().code[1]
    slice_ = class_map.slices[class_map.slice_of[y]]
    assert slice_[0] in fiber_report(ring, d, cl, asg).fiber
    slice_[0] = cl.index_of(QuadraticAlgebra(ring, 0, 0))
    class_map._rows[y] = None
    with pytest.raises(InternalCheckError, match="disagree") as info:
        fiber_report_by_pairs(ring, d, cl, asg)
    assert info.value.witness == {"ring": "Z/4", "d": 1, "class": "(0,0)",
                                  "in_fiber": False}


@pytest.mark.parametrize("spec", FINITE_RINGS)
def test_four_torsion_takes_no_ring_product(spec, monkeypatch):
    ring = parse_ring(spec)
    expected = [a for a in ring.elements() if 4 * a == ring.zero]
    ring.kernel()
    calls = []
    original = ring._mul

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(ring, "_mul", counting)
    assert four_torsion(ring) == expected
    assert calls == []


@pytest.mark.parametrize("argument", ["d", "classification", "group"])
def test_fiber_report_refuses_objects_of_another_ring(argument):
    z12, z8 = parse_ring("Z/12"), parse_ring("Z/8")
    given = {"d": disc_classes(z12)[1], "classification": classify(z12),
             "group": as_group(z12)}
    given[argument] = {"d": disc_classes(z8)[1], "classification": classify(z8),
                       "group": as_group(z8)}[argument]
    for check in (fiber_report, check_freeness):
        with pytest.raises(ValueError, match="given for Z/12"):
            check(z12, given["d"], given["classification"], given["group"])



@pytest.mark.parametrize("wrong, message, witness", [
    # 1 * 2 made 1, and 4 * 1 != 0: P(R)[4] = {0, 1, 2, 4, 6} leaves R[4]
    ({(1, 2): 1}, "P(R)[4] is not a subset of R[4] containing 0", {"ring": "Z/8"}),
    # 2 * 3 and 5 * 6 made 0: P(R)[4] = {0, 2, 4} misses -2 = 6
    ({(2, 3): 0, (5, 6): 0}, "P(R)[4] not closed under negation at 2",
     {"ring": "Z/8", "element": 2}),
    # every r(1 + r) made 0: P(R)[4] = {0}, so the class of 2 has order 4
    ({(r, (r + 1) % 8): 0 for r in range(8)},
     "AS class of 2 does not have order dividing 2", {"ring": "Z/8", "as_class": 2}),
])
def test_as_table_checks_name_their_witness_and_keep_nothing(wrong, message, witness,
                                                             monkeypatch):
    # over Z/8, R[4] = P(R)[4] = {0, 2, 4, 6}; with r(1 + r) corrupted
    # after the kernel is built, the first AS check it breaks fails on
    # every call and no AS tables are kept
    ring = parse_ring("Z/8")
    ring.kernel()
    real = ring._mul
    monkeypatch.setattr(ring, "_mul", lambda a, b: wrong.get((a, b), real(a, b)))
    for call in (wp4_subgroup, as_group):
        with pytest.raises(InternalCheckError) as info:
            call(ring)
        assert str(info.value) == message
        assert info.value.witness == witness
    assert "as" not in ring.kernel().derived


def test_invariant_factors_refuse_an_order_that_is_not_a_power_of_two():
    ring = parse_ring("Z/4")
    group = as_group(ring)
    assert group.invariant_factors() == [2]
    group.classes.append(ring.one)
    with pytest.raises(InternalCheckError) as info:
        group.invariant_factors()
    assert str(info.value) == "AS group order 3 is not a power of 2"
    assert info.value.witness == {"ring": "Z/4", "order": 3}
    assert as_group(ring).order == 2


@pytest.mark.parametrize("call, message", [
    (lambda r, x: four_torsion(r), "4-torsion needs a finite ring or Z"),
    (lambda r, x: is_sec_element(r, x), "sec testing needs a finite ring or Z"),
    (lambda r, x: is_sec_algebra(QuadraticAlgebra(r, x, x)),
     "sec testing needs a finite ring or Z"),
    (lambda r, x: is_discriminant(r, x), "discriminant testing needs a finite ring or Z"),
    (lambda r, x: form_is_cancellative(Rank1Form(r, x)),
     "cancellativity scan requires a finite ring"),
    (lambda r, x: basis_change_group(r), "enumeration requires a finite ring"),
    (lambda r, x: is_isomorphic(QuadraticAlgebra(r, x, x), QuadraticAlgebra(r, x, x)),
     "isomorphism testing needs a finite ring or Z"),
])
def test_infinite_rings_other_than_z_are_refused(call, message):
    # Z[t] is infinite and not Z: refused before anything is built or kept
    from quadrings.identities import _POLYS
    t = _POLYS.element(MultiPoly.variable("t"))
    before = dict(vars(_POLYS))
    with pytest.raises(InfiniteRingError) as info:
        call(_POLYS, t)
    assert str(info.value) == message
    assert vars(_POLYS) == before

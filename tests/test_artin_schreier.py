import pytest

from quadrings import (BasisChange, DiscClass, QuadraticAlgebra,
                       annihilator_four_torsion, apply_basis_change, as_act,
                       as_embed, as_group, basis_change_group, check_freeness,
                       classify, disc_classes, fiber_report, four_torsion,
                       is_discriminant, is_isomorphic, is_sec_algebra,
                       is_sec_element, parse_ring, star_product, wp4_subgroup)

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
        m = asg.to_monoid()
        from quadrings import validate_monoid
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


def test_basis_orbit_indexing_all_discs():
    # with-basis orbit count = |{t : t^2 = d mod 4R}| * |R[4]/dR[4]|, checked
    # for every discriminant element of every test ring by direct enumeration
    from quadrings.artin_schreier import _basis_orbit_bound, _basis_orbit_count
    from quadrings import is_discriminant
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        for d in ring.elements():
            if is_discriminant(ring, d) is None:
                continue
            assert _basis_orbit_count(ring, d) == _basis_orbit_bound(ring, d)


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


def test_check_freeness_matches_sec_member_loop():
    # the loop check_freeness ran before it read the answer off the report
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        cl = classify(ring)
        asg = as_group(ring)
        for d in disc_classes(ring):
            fiber = fiber_report(ring, d, cl, asg).fiber
            sec_fiber = [ci for ci in fiber if sec_algebra_by_search(cl[ci].rep)]
            assert sec_fiber in ([], fiber)
            expected = all(cl.index_of(as_act(cl[ci].rep, m)) != ci
                           for k, m in enumerate(asg.classes) if k != asg.identity
                           for ci in sec_fiber)
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

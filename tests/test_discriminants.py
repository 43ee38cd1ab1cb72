import pytest

from quadrings import (DiscClass, InfiniteRingError, Rank1Form, classify,
                       disc_class_of, disc_classes, disc_hom_check,
                       find_absorbing, form_is_cancellative,
                       form_semi_nondegenerate, forms_similar, is_discriminant,
                       parse_ring, sq_map, validate_monoid)
from quadrings.discriminants import coset_representative

FINITE_RINGS = ["Z/1", "Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "Z/8", "Z/12",
                "Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^2)", "Z/4[x]/(x^2)"]


def test_sq_map_examples():
    z = parse_ring("Z")
    assert sq_map(z, z.element(1)) == z.element(1)
    assert sq_map(z, z.element(0)) == z.element(0)
    assert sq_map(z, z.element(7)) == z.element(1)
    z12 = parse_ring("Z/12")
    assert sq_map(z12, z12.element(3)) == sq_map(z12, z12.element(5))
    assert sq_map(z12, z12.element(3)) == coset_representative(z12.element(9), 4)


def test_sq_map_well_defined_exhaustive():
    # lifts differing by 2R square to values differing by 4R
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        for t in ring.elements():
            expected = sq_map(ring, t)
            for delta in ring.elements():
                lift = t + ring.element(2) * delta
                assert sq_map(ring, lift) == expected


def test_is_discriminant_over_z():
    z = parse_ring("Z")
    w = is_discriminant(z, z.element(5))
    assert w == z.element(1)
    assert is_discriminant(z, z.element(2)) is None
    for d in range(-50, 50):
        got = is_discriminant(z, z.element(d))
        assert (got is not None) == (d % 4 in (0, 1))


def test_is_discriminant_f2_everything():
    f2 = parse_ring("Z/2")
    for d in f2.elements():
        assert is_discriminant(f2, d) is not None


def test_witness_actually_squares_to_d():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        for d in ring.elements():
            w = is_discriminant(ring, d)
            if w is not None:
                assert sq_map(ring, w) == coset_representative(d, 4)
                # the witness is stored reduced mod 2R
                assert coset_representative(w, 2) == w


def test_disc_class_validation():
    z4 = parse_ring("Z/4")
    good = DiscClass(z4, z4.element(1), z4.element(1))
    assert good.label() == "1"
    with pytest.raises(ValueError):
        DiscClass(z4, z4.element(1), z4.element(0))  # 0^2 != 1 mod 4R
    with pytest.raises(ValueError):
        DiscClass(z4, z4.element(1), z4.element(3))  # 3 not reduced mod 2R


def test_disc_classes_z4_and_f2():
    dc = disc_classes(parse_ring("Z/4"))
    assert [c.d.value for c in dc] == [0, 1]
    dc = disc_classes(parse_ring("Z/2"))
    assert [c.d.value for c in dc] == [0, 1]


def test_disc_classes_monoid_structure():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        dc = disc_classes(ring)
        assert validate_monoid(dc.monoid)
        assert dc.monoid.identity == dc.index_of(ring.one)
        assert find_absorbing(dc.monoid) == dc.index_of(ring.zero)


def test_disc_class_of():
    z4 = parse_ring("Z/4")
    assert disc_class_of(z4, z4.element(1)) == 1
    assert disc_class_of(z4, z4.element(0)) == 0
    with pytest.raises(ValueError):
        disc_class_of(z4, z4.element(2))
    with pytest.raises(InfiniteRingError):
        disc_classes(parse_ring("Z"))


def test_class_representative_is_least_in_unit_square_orbit():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        dc = disc_classes(ring)
        units = ring.units()
        for c, orbit in zip(dc.classes, dc.orbits):
            assert c.d == min(orbit, key=lambda e: e.sort_key())
            for d in orbit:
                assert any(u * u * c.d == d for u in units)


def test_disc_hom_check_fibers():
    z4 = parse_ring("Z/4")
    report = disc_hom_check(z4, classify(z4))
    assert report.is_homomorphism and report.is_surjective
    assert report.fiber_sizes == {"0": 4, "1": 2}
    f2 = parse_ring("Z/2")
    report = disc_hom_check(f2, classify(f2))
    assert report.fiber_sizes == {"0": 1, "1": 2}
    assert report.preimage_witnesses["1"] == "(1,0)"


def test_disc_hom_check_all_rings():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        report = disc_hom_check(ring, classify(ring))
        assert report.violations == []
        assert report.is_homomorphism and report.is_surjective


def test_disc_hom_check_flags_a_broken_product(monkeypatch):
    import quadrings.discriminants as discriminants
    from quadrings import QuadraticAlgebra
    monkeypatch.setattr(discriminants, "star_product",
                        lambda s, t: QuadraticAlgebra(s.ring, 0, 0))
    z4 = parse_ring("Z/4")
    report = disc_hom_check(z4, classify(z4))
    assert not report.is_homomorphism and report.is_surjective
    assert "disc((1,0)*(1,0)) differs from disc((1,0))*disc((1,0))" in report.violations


def test_quad_class_disc_is_valid_with_trace_witness():
    # every classified algebra's disc admits its own trace as a witness
    for spec in ["Z/4", "Z/6", "Z/2[x]/(x^2)"]:
        ring = parse_ring(spec)
        for c in classify(ring):
            t = coset_representative(c.rep.t, 2)
            DiscClass(ring, c.disc, t)  # must not raise


def test_form_cancellativity_examples():
    z4 = parse_ring("Z/4")
    assert not form_is_cancellative(Rank1Form(z4, z4.element(2)))
    assert not form_semi_nondegenerate(Rank1Form(z4, z4.element(2)))
    assert form_is_cancellative(Rank1Form(z4, z4.element(3)))
    assert form_semi_nondegenerate(Rank1Form(z4, z4.element(3)))
    z5 = parse_ring("Z/5")
    assert form_is_cancellative(Rank1Form(z5, z5.element(2)))


def test_form_cancellative_iff_nonzerodivisor():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        for a in ring.elements():
            form = Rank1Form(ring, a)
            assert form_is_cancellative(form) == ring.is_nonzerodivisor(a)
            assert form_semi_nondegenerate(form) == ring.is_nonzerodivisor(a)


def test_similarity_is_unit_orbit():
    z4 = parse_ring("Z/4")
    assert forms_similar(Rank1Form(z4, z4.element(1)), Rank1Form(z4, z4.element(3)))
    assert not forms_similar(Rank1Form(z4, z4.element(1)), Rank1Form(z4, z4.element(2)))


def test_similarity_over_z():
    # the units of Z are 1 and -1, so a' is similar to a iff a' = +/-a
    z = parse_ring("Z")
    assert forms_similar(Rank1Form(z, z.element(2)), Rank1Form(z, z.element(-2)))
    assert not forms_similar(Rank1Form(z, z.element(2)), Rank1Form(z, z.element(6)))


def test_classical_form_predicates():
    from quadrings import (form_nondegenerate, form_nonsingular,
                           form_semi_nonsingular)
    z5 = parse_ring("Z/5")
    two = Rank1Form(z5, z5.element(2))
    assert form_nondegenerate(two) and form_nonsingular(two)
    assert form_semi_nonsingular(two)
    z4 = parse_ring("Z/4")
    unit = Rank1Form(z4, z4.element(3))
    # 2*3 = 2 is a zerodivisor mod 4, so the graded conditions split
    assert form_semi_nonsingular(unit) and form_semi_nondegenerate(unit)
    assert not form_nondegenerate(unit) and not form_nonsingular(unit)
    f2 = parse_ring("Z/2")
    one = Rank1Form(f2, f2.one)
    assert form_semi_nonsingular(one) and not form_nonsingular(one)


def test_principal_ideal_products():
    # the image ideal of a product form is the product of the image ideals
    for spec in ["Z/4", "Z/6", "Z/8", "Z/2[x]/(x^2)"]:
        ring = parse_ring(spec)
        for a in ring.elements():
            for b in ring.elements():
                image_a = {a * x for x in ring.elements()}
                image_b = {b * x for x in ring.elements()}
                image_ab = {a * b * x for x in ring.elements()}
                assert {p * q for p in image_a for q in image_b} == image_ab

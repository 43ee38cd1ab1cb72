import dataclasses
import pickle
from collections import Counter
from itertools import product

import pytest

from quadrings import (DiscClass, EnumerationLimitError,
                       InfiniteRingError, MixedRingError, ModRing, QuotientPolyRing, Rank1Form,
                       classify,
                       disc_class_of, disc_classes, disc_hom_check,
                       find_absorbing, form_is_cancellative,
                       form_semi_nondegenerate, forms_similar, is_discriminant,
                       parse_ring, sq_map, validate_monoid)
from quadrings.discriminants import _disc_tables, _square_classes

FINITE_RINGS = ["Z/1", "Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "Z/8", "Z/12",
                "Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^2)", "Z/4[x]/(x^2)"]


def test_sq_map_examples():
    z = parse_ring("Z")
    assert sq_map(z, z.element(1)) == z.element(1)
    assert sq_map(z, z.element(0)) == z.element(0)
    assert sq_map(z, z.element(7)) == z.element(1)
    z12 = parse_ring("Z/12")
    assert sq_map(z12, z12.element(3)) == sq_map(z12, z12.element(5))
    assert sq_map(z12, z12.element(3)) == z12.coset_representative(z12.element(9), 4)


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
                assert sq_map(ring, w) == ring.coset_representative(d, 4)
                # the witness is stored reduced mod 2R
                assert ring.coset_representative(w, 2) == w


def test_disc_class_validation():
    z4 = parse_ring("Z/4")
    good = DiscClass(z4, z4.element(1), z4.element(1))
    assert good.label() == "1"
    with pytest.raises(ValueError):
        DiscClass(z4, z4.element(1), z4.element(0))  # 0^2 != 1 mod 4R
    with pytest.raises(ValueError):
        DiscClass(z4, z4.element(1), z4.element(3))  # 3 not reduced mod 2R


@pytest.mark.parametrize("spec, d, good, unreduced, wrong", [
    ("Z", 5, 1, 3, 0),
    ("Z", -4, 0, 2, 1),
    ("Z/4[x]/(x^2+x+1)", [1], [1], [3], [0]),
    ("Z/4[x]/(x^2+x+1)", [0, 1], [1, 1], [1, 3], [0, 1]),
])
def test_disc_class_validation_on_values(spec, d, good, unreduced, wrong):
    # the two checks run on canonical values, with the messages they had
    # on elements: a witness must be reduced mod 2R and square to d mod 4R
    ring = parse_ring(spec)
    d, good, unreduced, wrong = map(ring.element, (d, good, unreduced, wrong))
    assert DiscClass(ring, d, good).witness_t == good
    with pytest.raises(ValueError) as info:
        DiscClass(ring, d, unreduced)
    assert str(info.value) == f"witness {unreduced} is not reduced mod 2R"
    with pytest.raises(ValueError) as info:
        DiscClass(ring, d, wrong)
    assert str(info.value) == f"witness {wrong} does not square to {d} mod 4R"


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


def test_disc_class_of(monkeypatch):
    # one lookup in the kept disc tables, with no DiscClassification built
    import quadrings.discriminants as discriminants
    with pytest.raises(InfiniteRingError):
        disc_classes(parse_ring("Z"))
    z4 = parse_ring("Z/4")
    monkeypatch.setattr(discriminants, "DiscClassification", None)
    assert disc_class_of(z4, z4.element(1)) == 1
    assert disc_class_of(z4, z4.element(0)) == 0
    # an int is read as the ring's own element
    assert disc_class_of(z4, 1) == 1
    # an element of another ring is a ring mismatch, not a non-discriminant
    with pytest.raises(MixedRingError):
        disc_class_of(z4, parse_ring("Z/8").element(1))
    for d in (z4.element(2), 2):
        with pytest.raises(ValueError, match="^2 in Z/4 is not a discriminant$"):
            disc_class_of(z4, d)
    # a refused argument is refused before any table is built
    fresh = parse_ring("Z/4")
    with pytest.raises(MixedRingError):
        disc_class_of(fresh, parse_ring("Z/8").element(1))
    with pytest.raises(TypeError):
        disc_class_of(fresh, 1.5)
    assert fresh._kernel is None


def square_classes_by_scan(ring):
    """_square_classes over every element, kept as the oracle: each class
    of t^2 mod 4R -> its least t reduced mod 2R, and -> the number of t in
    R, as two maps in the order of the least witnesses."""
    mul, coset = ring._mul, ring._coset_rep
    witnesses = {}
    for t in ring._values():
        if coset(t, 2) == t:
            witnesses.setdefault(coset(mul(t, t), 4), t)
    counts = Counter(coset(mul(t, t), 4) for t in ring._values())
    return witnesses, {c: counts[c] for c in witnesses}


def test_square_classes_match_full_scan():
    rings = [ModRing(n) for n in range(1, 65)]
    for n in range(2, 9):
        degree = 1
        while n ** degree <= 64:
            rings += [QuotientPolyRing(n, list(lower) + [1])
                      for lower in product(range(n), repeat=degree)]
            degree += 1
    for ring in rings:
        got, want = _square_classes(ring), square_classes_by_scan(ring)
        assert [list(m.items()) for m in got] == [list(m.items()) for m in want], ring


def test_disc_tables_count_the_traces_of_each_square_class_on_rings_up_to_64():
    # traces[c] is |{t in R : t^2 mod 4R = c}|, counted over every element;
    # the with-basis orbit count and bound of the fibre reports scale with
    # it alike, so their count == bound check cannot catch a wrong count
    from test_quadratic import rings_up_to
    for ring in rings_up_to(64):
        want = Counter(ring.coset_representative(t * t, 4).value
                       for t in ring.elements())
        assert _disc_tables(ring).traces == want, ring


def test_is_discriminant_lists_only_residues_mod_2():
    # Z/n has at most two residues mod 2R, so no modulus is too large;
    # a quotient ring lists gcd(2, n)^degree of them, within the budget.
    odd, even = ModRing(10 ** 30 + 1), ModRing(2 * 10 ** 30)
    assert is_discriminant(odd, odd.element(5)) == odd.zero
    assert is_discriminant(even, even.element(5)) == even.one
    assert is_discriminant(even, even.element(6)) is None
    assert is_discriminant(even, even.element(2 * 10 ** 30 - 4)) == even.zero
    big = QuotientPolyRing(3, [1] + [0] * 29 + [1])     # 3^30 elements
    assert is_discriminant(big, big.element(2)) == big.zero
    huge = parse_ring("Z/2[x]/(x^21+x+1)")     # 2^21 residues mod 2R
    with pytest.raises(EnumerationLimitError):
        is_discriminant(huge, huge.one)


def test_is_discriminant_returns_the_least_witness_of_the_square_table(monkeypatch):
    # is_discriminant walks the residues mod 2R and stops at the first
    # witness, with no table; the oracle is the kept _square_classes table,
    # on every d of every ring of rings_up_to(64) and of a 100-digit Z/n
    from test_quadratic import rings_up_to
    cases = [(ring, ring.elements()) for ring in rings_up_to(64)]
    for n in (10 ** 99 + 289, 2 * 10 ** 99 + 2):    # odd, and 2 mod 4
        ring = ModRing(n)
        cases.append((ring, [ring.element(d) for d in (0, 1, 2, 3, 5, n - 3, n - 1)]))
    tables = [_square_classes(ring)[0] for ring, _ in cases]
    monkeypatch.setattr("quadrings.discriminants._square_classes", None)
    for (ring, ds), table in zip(cases, tables):
        for d in ds:
            want = table.get(ring._coset_rep(d.value, 4))
            got = is_discriminant(ring, d)
            assert (got if got is None else got.value) == want, (ring, d)
            assert got is None or got.ring is ring


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
    # every product lands in the class of (0, 0), through the shared table
    from quadrings import Classification, QuadraticAlgebra

    def broken_table(cl):
        zero = cl.index_of(QuadraticAlgebra(cl.ring, 0, 0))
        return [[zero] * len(cl) for _ in cl]

    monkeypatch.setattr(Classification, "star_table", broken_table)
    z4 = parse_ring("Z/4")
    report = disc_hom_check(z4, classify(z4))
    assert not report.is_homomorphism and report.is_surjective
    assert "disc((1,0)*(1,0)) differs from disc((1,0))*disc((1,0))" in report.violations


def test_quad_class_disc_is_valid_with_trace_witness():
    # every classified algebra's disc admits its own trace as a witness
    for spec in ["Z/4", "Z/6", "Z/2[x]/(x^2)"]:
        ring = parse_ring(spec)
        for c in classify(ring):
            t = ring.coset_representative(c.rep.t, 2)
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


def test_rank1_form_keeps_the_rings_element():
    # an int gives the form of the ring's own element, hash and pickle too,
    # and the form stays frozen; the refusals at construction are in
    # tests/test_rings.py's OPERAND_CALLS
    for spec in ["Z", "Z/12", "Z/2[x]/(x^3+x+1)"]:
        ring = parse_ring(spec)
        form, own = Rank1Form(ring, 3), Rank1Form(ring, ring.element(3))
        assert form == own and hash(form) == hash(own)
        assert form.a.ring is ring
        assert pickle.loads(pickle.dumps(form)) == own
        with pytest.raises(dataclasses.FrozenInstanceError):
            form.a = ring.one


def test_similarity_is_unit_orbit():
    z4 = parse_ring("Z/4")
    assert forms_similar(Rank1Form(z4, z4.element(1)), Rank1Form(z4, z4.element(3)))
    assert not forms_similar(Rank1Form(z4, z4.element(1)), Rank1Form(z4, z4.element(2)))


def test_similarity_over_z_n_matches_the_unit_scan():
    # the unit scan, as forms_similar was written before its closed form,
    # is the oracle on every pair of Z/n for n <= 64
    for n in range(1, 65):
        ring = ModRing(n)
        units, elements = ring.units(), ring.elements()
        for a in elements:
            orbit = {u * a for u in units}
            for b in elements:
                got = forms_similar(Rank1Form(ring, a), Rank1Form(ring, b))
                assert got == (b in orbit), (n, a, b)
    with pytest.raises(MixedRingError):
        forms_similar(Rank1Form(ModRing(7), ModRing(7).element(1)),
                      Rank1Form(ModRing(5), ModRing(5).element(1)))


@pytest.mark.parametrize("spec", ["Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^2)", "Z/4[x]/(x^2)",
                                  "Z/2[x]/(x^3+x+1)", "Z/6[x]/(x^2+1)"])
def test_similarity_over_quotient_rings_matches_the_unit_scan(spec):
    # equal principal ideals are a unit orbit in a finite ring too, local
    # (Z/4[x]/(x^2)) or not (Z/6[x]/(x^2+1) = Z/2[x]/((x+1)^2) x GF(9))
    ring = parse_ring(spec)
    units, elements = ring.units(), ring.elements()
    for a in elements:
        orbit = {u * a for u in units}
        for b in elements:
            got = forms_similar(Rank1Form(ring, a), Rank1Form(ring, b))
            assert got == (b in orbit), (a, b)
    # an int is read in the form's ring; a form over another ring raises
    # whichever side it is on
    assert forms_similar(Rank1Form(ring, ring.one), Rank1Form(ring, 1))
    assert forms_similar(Rank1Form(ring, 1), Rank1Form(ring, ring.one))
    z5 = ModRing(5)
    for f, g in [(Rank1Form(ring, ring.one), Rank1Form(z5, z5.one)),
                 (Rank1Form(z5, z5.one), Rank1Form(ring, ring.one)),
                 (Rank1Form(ring, 1), Rank1Form(z5, 1)),
                 (Rank1Form(z5, 1), Rank1Form(ring, 1))]:
        with pytest.raises(MixedRingError):
            forms_similar(f, g)


def test_similarity_on_z_n_too_large_to_list():
    # no unit is listed: Z/10^30 answers, where the scan refused it
    ring = parse_ring("Z/" + "1" + "0" * 30)
    six = Rank1Form(ring, ring.element(6))
    assert forms_similar(six, Rank1Form(ring, ring.element(18)))
    assert forms_similar(six, Rank1Form(ring, ring.element(-6)))
    assert not forms_similar(six, Rank1Form(ring, ring.element(12)))
    assert not forms_similar(six, Rank1Form(ring, ring.element(3)))
    assert ring._kernel is None


def test_disc_hom_check_refuses_another_ring_before_building_anything():
    z8 = parse_ring("Z/8")
    with pytest.raises(MixedRingError, match="Classification of Z/4 given for Z/8"):
        disc_hom_check(z8, classify(parse_ring("Z/4")))
    assert z8._kernel is None


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


def test_preimage_violations_are_reported(monkeypatch):
    # over Z/8 the disc classes are 0, 1, 4 and 5, solved by 4n = t^2 - d
    # with t = 0, 1, 0, 1; with the row of 4x cut to 4 * 1 = 0 and no
    # other n reaching 0 or 4, the classes 0 and 1 get the wrong n and 4
    # and 5 none, and the hom check lists both kinds, on every call, with
    # the preimages that were found.  The row is cut after classify, which
    # reads the same row as -4x.
    ring = parse_ring("Z/8")
    cl = classify(ring)
    kernel = ring.kernel()
    real = kernel.multiple_row
    monkeypatch.setattr(kernel, "multiple_row",
                        lambda k: [7, 0, 7, 7, 7, 7, 7, 7] if k == 4 else real(k))
    for _ in range(2):
        report = disc_hom_check(ring, cl)
        assert report.violations == [
            "constructed algebra for 0 has wrong disc",
            "constructed algebra for 1 has wrong disc",
            "no algebra constructed for disc class 4",
            "no algebra constructed for disc class 5"]
        assert report.preimage_witnesses == {"0": "(0,1)", "1": "(1,1)"}
        assert report.is_homomorphism and report.is_surjective


def test_identity_class_off_the_identity_disc_class_is_reported(monkeypatch):
    # with (1, 0) read as the class of (0, 0), the identity algebra class
    # maps to disc 0, not to the identity disc class 1
    ring = parse_ring("Z/4")
    cl = classify(ring)
    monkeypatch.setattr(cl, "index_of", lambda algebra: 0)
    report = disc_hom_check(ring, cl)
    assert not report.is_homomorphism
    assert report.violations == ["identity class does not map to the identity disc class"]

import math
import random
import re
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrings.rings as rings
from quadrings import (BasisChange, DiscClass, EnumerationLimitError,
                       InfiniteRingError, MixedRingError, QuadraticAlgebra,
                       Rank1Form, RingParseError, apply_basis_change, as_act,
                       as_group, classify, disc_class_of, disc_classes,
                       forms_similar, is_sec_element, parse_ring, sq_map)
from quadrings.discriminants import is_discriminant
from quadrings.rings import IntegerRing, ModRing, QuotientPolyRing, parse_poly

SMALL_RINGS = [
    "Z/1", "Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "Z/8", "Z/12", "Z/16",
    "Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^2)", "Z/4[x]/(x^2)",
    "Z/2[x]/(x^3+x+1)", "Z/6[x]/(x^2+1)",
]


def test_parse_ring_literals():
    assert isinstance(parse_ring("Z"), IntegerRing)
    r = parse_ring("Z/4")
    assert isinstance(r, ModRing) and r.n == 4
    q = parse_ring("Z/2[x]/(x^2+x+1)")
    assert isinstance(q, QuotientPolyRing)
    assert q.n == 2 and q.modulus == (1, 1, 1)
    assert q.size == 4


def test_parse_ring_normalizes_coefficients():
    # 5 = 1 mod 4, and a reducible leading term is stripped before the check
    q = parse_ring("Z/4[x]/(5x^2+x+1)")
    assert q.modulus == (1, 1, 1)
    q = parse_ring("Z/4[x]/(4x^3+x^2+3)")
    assert q.modulus == (3, 0, 1)


def test_parse_ring_rejects_garbage():
    # a regex "$" also matches before a final newline: "Z/4\n" ran as Z/4
    for bad in ["Q", "Z/0", "Z/-3", "Z/4[x]/(2x^2+1)", "Z/4[x]/(3)",
                "Z/4[x]/()", "Z mod 4", "", "Z/4\n", "Z/4[x]/(x^2+1)\n", "Z\n"]:
        with pytest.raises(RingParseError):
            parse_ring(bad)


def test_parse_int_reads_ascii_digits_after_an_optional_sign():
    assert rings.parse_int("0042", "modulus") == 42
    assert rings.parse_int("-7", "--s") == -7
    assert rings.parse_int("+7", "--s") == 7
    # int() takes each of these but "", "-" and "--7"; the grammar takes none
    for text in ["", "-", "1_000", "\u0663", "\uff13", " 7", "7\n", "--7", "0x7"]:
        with pytest.raises(RingParseError, match="is not an integer"):
            rings.parse_int(text, "field")


def test_parse_int_refuses_more_digits_than_the_interpreter_converts(int_digit_limit):
    limit = int_digit_limit
    assert rings.parse_int("9" * limit, "modulus") == 10 ** limit - 1
    for text in ["1" * (limit + 1), "-" + "1" * (limit + 1)]:
        with pytest.raises(RingParseError) as info:
            rings.parse_int(text, "--s")
        message = str(info.value)
        assert message == (f"--s has {limit + 1} digits, more than the interpreter's "
                           f"limit of {limit} (PYTHONINTMAXSTRDIGITS)")


def test_parse_int_reads_the_limit_when_called(int_digit_limit):
    limit = int_digit_limit
    sys.set_int_max_str_digits(0)
    try:
        assert rings.parse_int("1" * (limit + 1), "modulus") == int("1" * (limit + 1))
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_ring_reads_every_number_through_parse_int(int_digit_limit):
    limit = int_digit_limit
    long = "1" * (limit + 1)
    for spec, field in [(f"Z/{long}", "modulus"), (f"Z/{long}[x]/(x^2+1)", "modulus"),
                        (f"Z/2[x]/({long}x^2+x+1)", "coefficient"),
                        (f"Z/2[x]/(x^{long}+1)", "exponent")]:
        with pytest.raises(RingParseError) as info:
            parse_ring(spec)
        assert str(info.value).startswith(f"{field} has {limit + 1} digits"), spec
        assert long not in str(info.value)
    # a regex \d matches any Unicode digit: "Z/\u0663" (Arabic-Indic 3) ran as Z/3
    for spec in ["Z/\u0663", "Z/\uff14", "Z/2[x]/(x^\u0662+1)", "Z/2[x]/(\u0663x^2+1)"]:
        with pytest.raises(RingParseError):
            parse_ring(spec)


def test_parse_poly_forms():
    assert parse_poly("x^2+x+1") == [1, 1, 1]
    assert parse_poly("2*x^3 - x + 5") == [5, -1, 0, 2]
    assert parse_poly("x") == [0, 1]
    assert parse_poly("7") == [7]


def test_parse_poly_refuses_a_dangling_star():
    # "*" belongs between a coefficient and x, and nowhere else
    for bad in ["x^2+3*", "*x^2+1", "3*", "x*", "2**x", "+*x", "x^2-*1"]:
        with pytest.raises(RingParseError):
            parse_poly(bad)
    assert parse_poly("2*x^3 - x + 5") == [5, -1, 0, 2]
    assert parse_poly("-3*x+2*x^2") == [0, -3, 2]


def test_parse_poly_refuses_more_coefficients_than_the_budget():
    # x^(10^8) would need a dense list of 10^8 + 1 coefficients: refused
    # before it is built, with the count in full; the budget itself passes
    with pytest.raises(EnumerationLimitError) as info:
        parse_poly("x^100000000+1")
    assert str(info.value) == ("coefficients of 'x^100000000+1': 100000001 items "
                               "exceed the enumeration budget of 1048576")
    assert len(parse_poly(f"x^{rings.MAX_ENUMERATION - 1}+1")) == rings.MAX_ENUMERATION


def test_enumeration_budget_states_a_huge_count_by_its_power_of_two():
    # 2^3000 has 904 digits, and n^2 for a 2200-digit n is past int-to-str's
    # 4300-digit limit: a count of more than 64 bits is stated as the power
    # of 2 below it, and one of 64 bits in full
    with pytest.raises(EnumerationLimitError) as info:
        parse_ring("Z/2[x]/(x^3000+1)").elements()
    assert str(info.value) == ("elements of Z/2[x]/(x^3000+1): at least 2^3000 "
                               "items exceed the enumeration budget of 1048576")
    n = 10 ** 2199 + 7
    with pytest.raises(EnumerationLimitError) as info:
        rings.require_enumerable(n * n, str, "pairs")
    assert str(info.value) == (f"pairs: at least 2^{(n * n).bit_length() - 1} items "
                               "exceed the enumeration budget of 1048576")
    with pytest.raises(EnumerationLimitError) as info:
        rings.require_enumerable(2 ** 64 - 1, str, "pairs")
    assert str(info.value).startswith(f"pairs: {2 ** 64 - 1} items exceed")


def test_spec_string_round_trip():
    for spec in SMALL_RINGS + ["Z"]:
        ring = parse_ring(spec)
        assert parse_ring(ring.spec_string()) == ring


def test_arithmetic_examples():
    z4 = parse_ring("Z/4")
    assert z4.element(3) * z4.element(3) == z4.element(1)
    z = parse_ring("Z")
    assert z.element(-2) + z.element(5) == z.element(3)
    f4 = parse_ring("Z/2[x]/(x^2+x+1)")
    x = f4.element([0, 1])
    assert x * x == f4.element([1, 1])


def test_mixed_rings_rejected():
    a = parse_ring("Z/4").element(1)
    b = parse_ring("Z/5").element(1)
    with pytest.raises(MixedRingError):
        a + b


def test_enumeration_order():
    z4 = parse_ring("Z/4")
    assert [e.value for e in z4.elements()] == [0, 1, 2, 3]
    f4 = parse_ring("Z/2[x]/(x^2+x+1)")
    assert [str(e) for e in f4.elements()] == ["0", "1", "x", "x+1"]
    z = parse_ring("Z")
    with pytest.raises(InfiniteRingError):
        z.elements()
    with pytest.raises(InfiniteRingError, match="^ring is infinite$"):
        z.size
    # the kernel lists the elements through _residue_values(0)
    with pytest.raises(InfiniteRingError, match="^enumeration requires a finite ring$"):
        z.kernel()
    assert z._kernel is None


def test_enumeration_is_sorted_and_complete():
    for spec in SMALL_RINGS:
        ring = parse_ring(spec)
        els = ring.elements()
        assert len(els) == ring.size
        assert len(set(els)) == len(els)
        keys = [e.sort_key() for e in els]
        assert keys == sorted(keys)


def test_units_examples():
    z4 = parse_ring("Z/4")
    assert [u.value for u in z4.units()] == [1, 3]
    z = parse_ring("Z")
    assert z.is_unit(z.element(-1))
    assert not z.is_unit(z.element(2))
    with pytest.raises(InfiniteRingError):
        z.units()
    f4 = parse_ring("Z/2[x]/(x^2+x+1)")
    assert [str(u) for u in f4.units()] == ["1", "x", "x+1"]


def test_units_have_inverses_and_agree_with_is_unit():
    for spec in SMALL_RINGS:
        ring = parse_ring(spec)
        unit_set = set(ring.units())
        for a in ring.elements():
            assert ring.is_unit(a) == (a in unit_set)
        for u in unit_set:
            assert u * ring.inverse_of_unit(u) == ring.one


def test_nonzerodivisor_examples():
    z4 = parse_ring("Z/4")
    assert not z4.is_nonzerodivisor(z4.element(2))
    assert z4.is_nonzerodivisor(z4.element(3))
    z = parse_ring("Z")
    assert not z.is_nonzerodivisor(z.element(0))
    assert z.is_nonzerodivisor(z.element(7))


def test_ideal_membership_examples():
    z4 = parse_ring("Z/4")
    assert z4.in_principal_ideal(z4.element(2), z4.element(2))
    z = parse_ring("Z")
    assert not z.in_principal_ideal(z.element(3), z.element(2))
    assert z.in_principal_ideal(z.element(0), z.element(0))
    assert not z.in_principal_ideal(z.element(3), z.element(0))
    z12 = parse_ring("Z/12")
    assert z12.in_principal_ideal(z12.element(8), z12.element(4))


def test_ring_axioms_exhaustive():
    # all triples of every supported finite ring of size <= 64
    for spec in SMALL_RINGS:
        ring = parse_ring(spec)
        assert ring.size <= 64
        els = ring.elements()
        zero, one = ring.zero, ring.one
        for a in els:
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
        for a, b in product(els, repeat=2):
            assert a + b == b + a
            assert a * b == b * a
        for a, b, c in product(els, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_canonicalize_idempotent():
    for spec in SMALL_RINGS:
        ring = parse_ring(spec)
        for a in ring.elements():
            assert ring.canonicalize(a.value) == a.value
    z = parse_ring("Z")
    assert z.canonicalize(-17) == -17


def test_quotient_reduction():
    # x^3 reduces twice in Z/2[x]/(x^2+x+1): x^3 = x*x^2 = x(x+1) = x^2+x = 1
    f4 = parse_ring("Z/2[x]/(x^2+x+1)")
    x = f4.element([0, 1])
    assert x ** 3 == f4.one
    eps = parse_ring("Z/4[x]/(x^2)")
    e = eps.element([0, 1])
    assert e * e == eps.zero
    assert eps.size == 16


def test_zero_ring():
    z1 = parse_ring("Z/1")
    assert z1.size == 1
    assert z1.zero == z1.one
    assert z1.units() == [z1.zero]
    assert z1.is_nonzerodivisor(z1.zero)


def test_elements_are_immutable_and_hashable():
    z4 = parse_ring("Z/4")
    a = z4.element(3)
    with pytest.raises(AttributeError, match="^ring elements are immutable$"):
        a.value = 1
    assert len({z4.element(1), z4.element(1), z4.element(2)}) == 2
    # an object of another type, an int included, is not equal to an element
    for foreign in (None, "3", 3):
        assert not a == foreign and a != foreign


def test_poly_text_round_trip_fuzz():
    import random
    from quadrings.rings import format_poly
    rng = random.Random(13)
    for _ in range(200):
        deg = rng.randint(0, 5)
        coeffs = [rng.randint(0, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        assert parse_poly(format_poly(coeffs)) == coeffs


def test_arbitrary_precision_has_no_overflow():
    z = parse_ring("Z")
    big = 10 ** 50 + 7
    a = z.element(big)
    assert (a * a).value == big * big
    assert (a * a - z.element(4) * z.element(big - 1)).value == big * big - 4 * (big - 1)


def test_canonicalize_accepts_only_integers():
    from fractions import Fraction
    z, z7 = parse_ring("Z"), parse_ring("Z/7")
    f = parse_ring("Z/3[x]/(x^2+1)")
    for ring, value in [(z7, 2.9), (z, 2.5), (z, 3.0), (z7, Fraction(7, 2)),
                        (z7, "3"), (f, [2.7, 1.2]), (f, 2.0), (f, [1, Fraction(1, 2)]),
                        (f, [1, 2, 0.0])]:
        with pytest.raises(TypeError):
            ring.element(value)
    with pytest.raises(TypeError):
        z7.one + 0.5
    with pytest.raises(TypeError):
        QuadraticAlgebra(z7, 1.5, 0)
    # ints, bools and other types with __index__ are still exact
    class Four:
        def __index__(self):
            return 4
    assert z7.element(True) == z7.one
    assert z7.element(Four()) == z7.element(4)
    assert f.element([Four(), -1]) == f.element([1, 2])
    assert z.element(10 ** 40).value == 10 ** 40


def schoolbook_reduce(coeffs, n, f):
    """coeffs mod n by long division by the monic f, top coefficient first."""
    c = [x % n for x in coeffs]
    d = len(f) - 1
    for k in range(len(c) - 1, d - 1, -1):
        q = c[k]
        for i in range(d + 1):
            c[k - d + i] = (c[k - d + i] - q * f[i]) % n
    return tuple(c[:d] + [0] * (d - len(c)))


def schoolbook_mul(a, b, n, f):
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return schoolbook_reduce(conv, n, f)


@st.composite
def quotient_ring(draw):
    n = draw(st.integers(2, 12))
    degree = draw(st.integers(1, 5))
    f = draw(st.lists(st.integers(0, n - 1), min_size=degree,
                      max_size=degree)) + [1]
    return QuotientPolyRing(n, f), n, f


@settings(max_examples=300, deadline=None)
@given(quotient_ring(), st.data())
def test_quotient_arithmetic_matches_schoolbook(ring_n_f, data):
    ring, n, f = ring_n_f
    d = ring.degree
    # raw inputs up to 3d + 2 coefficients, so longer than a product's 2d - 1
    raw = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=3 * d + 2)
    p, q = data.draw(raw), data.draw(raw)
    a, b = ring.canonicalize(p), ring.canonicalize(q)
    assert a == schoolbook_reduce(p, n, f)
    assert b == schoolbook_reduce(q, n, f)
    assert ring._mul(a, b) == schoolbook_mul(a, b, n, f)
    assert ring._add(a, b) == tuple((x + y) % n for x, y in zip(a, b))
    assert ring._neg(a) == tuple((-x) % n for x in a)
    # a product taken in R equals the product of the raw polynomials reduced
    assert ring._mul(a, b) == schoolbook_mul(p or [0], q or [0], n, f)


def power_rows(n, f, top):
    """x^k mod (f, n) for k = 0, ..., top: x^(k+1) is x^k shifted up one
    place, less its top coefficient times f."""
    d = len(f) - 1
    rows = [[int(i == k) for i in range(d)] for k in range(d)]
    while len(rows) <= top:
        prev = rows[-1]
        rows.append([(s - prev[-1] * c) % n for s, c in zip([0] + prev[:-1], f)])
    return rows


def test_mul_matches_convolution_and_power_rows_on_every_pair():
    # _mul reduces by synthetic division; the reference sums the schoolbook
    # convolution against the rows x^k mod f, built by shifts alone
    for spec in SMALL_RINGS:
        ring = parse_ring(spec)
        n, values = ring.n, ring._values()
        if isinstance(ring, ModRing):
            assert all(ring._mul(a, b) == a * b % n for a in values for b in values)
            continue
        f, d = ring.modulus, ring.degree
        rows = power_rows(n, f, 2 * d - 2)
        for a, b in product(values, repeat=2):
            conv = [0] * (2 * d - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    conv[i + j] += x * y
            want = tuple(sum(c * row[i] for c, row in zip(conv, rows)) % n
                         for i in range(d))
            assert ring._mul(a, b) == want, (spec, a, b)


def test_unrolled_and_higher_degree_products_match_the_convolution():
    # degree 3 is unrolled (two division steps), and above it _mul
    # convolves in a loop and _reduce divides: both equal the plain
    # convolution reduced by _reduce and by long division, on every pair of
    # the two cubic rings and on a seeded sample of the other two
    rng = random.Random(34)
    for spec, pairs in [("Z/2[x]/(x^3+x+1)", None), ("Z/3[x]/(x^3+2x+1)", None),
                        ("Z/8[x]/(x^3+2x+5)", 3000), ("Z/2[x]/(x^5+x^2+1)", 300)]:
        ring = parse_ring(spec)
        n, f, values = ring.n, list(ring.modulus), ring._values()
        if pairs is None:
            cases = list(product(values, repeat=2))
        else:
            cases = [(rng.choice(values), rng.choice(values)) for _ in range(pairs)]
        for a, b in cases:
            conv = [0] * (2 * ring.degree - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    conv[i + j] += x * y
            want = schoolbook_reduce(conv, n, f)
            assert ring._reduce(conv) == want, (spec, a, b)
            assert ring._mul(a, b) == want, (spec, a, b)


# The quotient rings whose single unit questions are checked against a
# brute-force search: the six quotient rings that perfbench's queries
# workload parses, and two with a composite n above degree 2.
NORM_RINGS = ["Z/2[x]/(x^2+x+1)", "Z/3[x]/(x^2)", "Z/2[x]/(x^3+x+1)",
              "Z/4[x]/(x^2+x+1)", "Z/5[x]/(x^2+2)", "Z/9[x]/(x^2+1)",
              "Z/8[x]/(x^3+2x+5)", "Z/6[x]/(x^4+x+3)"]


def test_norm_answers_unit_questions_like_a_search_on_a_fresh_ring():
    # an instance with no kernel decides is_unit and _inverse by the
    # norm (closed forms for degrees 2 and 3, elimination for the others),
    # and builds no kernel for it; the oracle searches the ring for an
    # inverse, over every element, or over 48 of Z/6[x]/(x^4+x+3)'s 1296
    from test_quadratic import rings_up_to
    rng = random.Random(34)
    rings = [r for r in rings_up_to(27) if isinstance(r, QuotientPolyRing)]
    assert {r.degree for r in rings} == {1, 2, 3, 4}
    for ring in rings + [parse_ring(spec) for spec in NORM_RINGS]:
        values, one, mul = ring._values(), ring.canonicalize(1), ring._mul
        fresh = QuotientPolyRing(ring.n, ring.modulus)
        sample = values if len(values) <= 512 else rng.sample(values, 48)
        for a in sample:
            inverse = next((b for b in values if mul(a, b) == one), None)
            assert fresh._inverse(a) == inverse, (ring, a)
            element = fresh.element(a)
            assert fresh.is_unit(element) == (inverse is not None)
            if inverse is not None:
                assert fresh.inverse_of_unit(element).value == inverse
        assert fresh._kernel is None, ring
        # an instance that holds its kernel reads it, with the same answers
        ring.kernel()
        assert all(ring._inverse(a) == fresh._inverse(a) for a in sample)


@pytest.mark.parametrize("spec", ["Z/1000000000000000000000000000000[x]/(x^2+1)",
                                  "Z/1000000000000000000000[x]/(x^3+2x+5)"])
def test_unit_questions_on_a_ring_too_large_to_list(spec, monkeypatch):
    # the norm answers with no enumeration: listing the ring raises
    from quadrings import is_sec_algebra, is_sec_element

    def refuse(self, *args):
        raise AssertionError("the ring was listed")
    monkeypatch.setattr(QuotientPolyRing, "_residue_values", refuse)
    ring = parse_ring(spec)
    n, pad = ring.n, (0,) * (ring.degree - 1)
    three, x = ring.element(3), ring.element((0, 1) + pad[1:])
    assert ring.is_unit(ring.element(7)) and not ring.is_unit(ring.element(5))
    assert ring.inverse_of_unit(three) * three == ring.one
    with pytest.raises(ValueError, match="is not a unit"):
        ring.inverse_of_unit(ring.element(2))
    # x is a unit when f(0) is: x * (x^(d-1) + ...) = -f(0)
    assert ring.is_unit(x) == (math.gcd(ring.modulus[0], n) == 1)
    assert ring.is_nonzerodivisor(three) and not ring.is_nonzerodivisor(ring.element(10))
    assert is_sec_element(ring, three) and not is_sec_element(ring, ring.element(2))
    # disc 1 - 12 = -11 and 1 - 4 * 5 = -19 are units; disc 3^2 - 4 * 2 = 1
    # is too, and 2^2 - 4 * 1 = 0 is not
    assert QuadraticAlgebra(ring, 1, 3).is_separable()
    assert is_sec_algebra(QuadraticAlgebra(ring, 1, 5))
    assert QuadraticAlgebra(ring, 3, 2).is_separable()
    assert not is_sec_algebra(QuadraticAlgebra(ring, 2, 1))
    assert ring._kernel is None


def test_unit_questions_past_degree_101_still_refuse():
    # elimination would take more than MAX_ENUMERATION steps there, so the
    # kernel answers, and refuses a ring of 2^3000 elements
    ring = parse_ring("Z/2[x]/(x^3000+1)")
    with pytest.raises(EnumerationLimitError, match="at least 2\\^3000 items"):
        ring.is_unit(ring.one)


def test_halves_are_the_preimages_of_doubling():
    # _halves(y) lists the r with 2r = y in canonical order: one for odd n,
    # 2^d or none for even n
    from test_quadratic import rings_up_to
    for ring in rings_up_to(27) + [parse_ring(spec) for spec in NORM_RINGS[:6]]:
        values, add = ring._values(), ring._add
        for y in values:
            assert ring._halves(y) == [r for r in values if add(r, r) == y], (ring, y)


# The regex readers of ring specs and integers that parse_ring and
# parse_int replaced, kept as an independent reference.  The one intended
# difference is a zero modulus, which the ring constructors now refuse with
# their own message.
_REF_RING_RE = re.compile(r"Z/([0-9]+)(?:\[x\]/\((.+)\))?")
_REF_INT_RE = re.compile(r"[+-]?[0-9]+")


def _reference_parse_int(text, field):
    if not _REF_INT_RE.fullmatch(text):
        raise RingParseError(f"{field} {text!r} is not an integer")
    try:
        return int(text)
    except ValueError:
        raise RingParseError(
            f"{field} has {len(text.lstrip('+-'))} digits, more than the "
            f"interpreter's limit of {sys.get_int_max_str_digits()} "
            f"(PYTHONINTMAXSTRDIGITS)"
        ) from None


def _reference_parse_ring(spec):
    s = spec.replace(" ", "")
    if s == "Z":
        return IntegerRing()
    m = _REF_RING_RE.fullmatch(s)
    if not m:
        raise RingParseError(
            f"cannot parse ring spec {spec!r}; expected \"Z\", \"Z/<n>\", "
            f"or \"Z/<n>[x]/(<monic poly in x>)\""
        )
    n = _reference_parse_int(m.group(1), "modulus")
    if n == 0:
        raise RingParseError("modulus 0 is not allowed")
    return ModRing(n) if m.group(2) is None else QuotientPolyRing(n, parse_poly(m.group(2)))


def _outcome(read, *args):
    try:
        return read(*args)
    except (RingParseError, EnumerationLimitError) as exc:
        return type(exc), str(exc)


def test_parse_ring_and_parse_int_read_what_the_regexes_read():
    # value, error class and message equal the regex readers on every spec
    # of 1-5 tokens and every integer of 0-6 characters over these
    # alphabets; a zero modulus must still be a RingParseError
    zero = (RingParseError, "modulus 0 is not allowed")
    long = "1" * (sys.get_int_max_str_digits() + 1)    # over the limit, where set
    tokens = ["Z", "/", "0", "4", "[x]/(", "x", "^", "2", "+", "-", ")", "\n",
              "\u0663", " ", "(", "]"]
    specs = ["".join(p) for k in range(1, 6) for p in product(tokens, repeat=k)]
    specs += ["Z/4[x]/(x^2\n+1)", "Z/4[x]/(\n)", "Z/4[x]/(x)[x]/(x)", "Z/4[x]/(x))",
              "Z/4[x]/(x^2+1) ", "Z/0[x]/(x^2+1)", "Z/00", f"Z/{long}",
              f"Z/{long}[x]/(x^2+)", f"Z/4[x]/(x^{long})"]
    for spec in specs:
        want, got = _outcome(_reference_parse_ring, spec), _outcome(parse_ring, spec)
        if want == zero:
            assert got[0] is RingParseError, repr(spec)
        else:
            assert got == want, repr(spec)
    for k in range(7):
        for chars in product("+-07\u0663\n a", repeat=k):
            text = "".join(chars)
            assert (_outcome(rings.parse_int, text, "modulus")
                    == _outcome(_reference_parse_int, text, "modulus")), repr(text)
    assert (_outcome(rings.parse_int, "-" + long, "--s")
            == _outcome(_reference_parse_int, "-" + long, "--s"))


# The term-by-term polynomial reader that parse_poly replaced, kept as an
# independent reference: a "*" only between a coefficient and x, and every
# number through _reference_parse_int.  Anchored by fullmatch, where the old
# "^...$" with .match let a term end in a newline ("3\n" read as 3).
_REF_TERM_RE = re.compile(r"([+-]?)([0-9]+)?(?:(?<=[0-9])\*(?=x))?(x(?:\^([0-9]+))?)?")
_REF_TOKEN_RE = re.compile(r"[+-]?[^+-]+")


def _reference_parse_poly(text):
    s = text.replace(" ", "")
    if not s:
        raise RingParseError("empty polynomial")
    tokens = _REF_TOKEN_RE.findall(s)
    if "".join(tokens) != s:
        raise RingParseError(f"cannot parse polynomial {text!r}")
    coeffs = {}
    for tok in tokens:
        m = _REF_TERM_RE.fullmatch(tok)
        sign, digits, x, power = m.groups() if m else (None, None, None, None)
        if digits is None and x is None:
            raise RingParseError(f"cannot parse term {tok!r} in {text!r}")
        coeff = 1 if digits is None else _reference_parse_int(digits, "coefficient")
        deg = (0 if x is None else 1 if power is None
               else _reference_parse_int(power, "exponent"))
        coeffs[deg] = coeffs.get(deg, 0) + (-coeff if sign == "-" else coeff)
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def test_parse_poly_reads_what_the_term_reader_reads():
    # every string over this alphabet of up to 6 characters reads the same,
    # or raises the same error, as through the reference term reader
    alphabet = "x^*+-07 \n"
    for length in range(1, 7):
        for chars in product(alphabet, repeat=length):
            text = "".join(chars)
            try:
                want = _reference_parse_poly(text)
            except RingParseError as exc:
                want = str(exc)
            try:
                got = parse_poly(text)
            except RingParseError as exc:
                got = str(exc)
            assert got == want, text


def test_parse_poly_refuses_a_newline():
    # a regex "$" also matches before a final newline: these read as 3,
    # x^2 + 1, x and 1 + x through the old term reader
    for bad, term in [("3\n", "3\n"), ("x^2\n+1", "x^2\n"), ("x^2+1\n", "+1\n"),
                      ("x\n", "x\n"), ("1\n+x", "1\n")]:
        with pytest.raises(RingParseError) as info:
            parse_poly(bad)
        assert str(info.value) == f"cannot parse term {term!r} in {bad!r}"


def test_canonicalize_fast_paths_match_reduce():
    # ints, and coefficient sequences of length d, skip _reduce; every
    # other input still goes through it, and all agree with the long division
    big = [-1, -7, 0, 5, 12, 13, 10 ** 6 + 3, 2 ** 200, -2 ** 200]
    rings = [parse_ring(s) for s in SMALL_RINGS] + [QuotientPolyRing(7, [2, 3, 0, 0, 0, 1])]
    for ring in rings:
        n = ring.n
        if isinstance(ring, ModRing):
            for v in big:
                assert ring.canonicalize(v) == v % n
            continue
        f, d = list(ring.modulus), ring.degree
        for v in big:
            assert ring.canonicalize(v) == ring._reduce([v]) == schoolbook_reduce([v], n, f)
        for length in range(3 * d + 1):
            coeffs = [big[(i * 5 + length) % len(big)] for i in range(length)]
            want = schoolbook_reduce(coeffs, n, f) if coeffs else (0,) * d
            for seq in (coeffs, tuple(coeffs)):
                assert ring.canonicalize(seq) == ring._reduce(list(seq)) == want
    z = parse_ring("Z")
    for v in big:
        assert z.canonicalize(v) == v


def test_non_integers_raise_type_error_on_every_path():
    from fractions import Fraction
    rings = [parse_ring(s) for s in ("Z", "Z/7", "Z/3[x]/(x^2+1)", "Z/2[x]/(x^3+x+1)")]
    for ring in rings:
        d = getattr(ring, "degree", 1)
        e = ring.element(1)
        for bad in (2.0, 0.5, Fraction(1, 2), Fraction(4, 1), "3", None):
            inputs = [bad]
            if d > 1:
                inputs += [[bad] + [0] * (d - 1), tuple([0] * (d - 1) + [bad]),
                           [bad], [0] * (d + 1) + [bad]]
            for value in inputs:
                with pytest.raises(TypeError):
                    ring.canonicalize(value)
                with pytest.raises(TypeError):
                    ring.element(value)
            for op in (lambda: e + bad, lambda: bad + e, lambda: e - bad,
                       lambda: bad - e, lambda: e * bad, lambda: bad * e,
                       lambda: QuadraticAlgebra(ring, bad, 0),
                       lambda: QuadraticAlgebra(ring, 0, 1).element(bad, 0)):
                with pytest.raises(TypeError):
                    op()
        # bool is an int subclass and goes the general way, as 0 and 1
        assert ring.element(True) == ring.one and ring.element(False) == ring.zero
        assert e + True == e + 1 and True - e == ring.zero and e * False == ring.zero
        if d > 1:
            assert ring.element([True] + [False] * (d - 1)) == ring.one
            assert ring.element((False, True)) == ring.element([0, 1])


@pytest.mark.parametrize("spec", ["Z", "Z/12", "Z/2[x]/(x^3+x+1)", "Z/6[x]/(x^2+1)"])
def test_operands_of_equal_and_of_different_rings(spec):
    # an element of an equal but distinct ring instance takes the general
    # path through canonicalize and gives the same value; another ring raises
    ring, twin, other = parse_ring(spec), parse_ring(spec), parse_ring("Z/5")
    assert twin == ring and twin is not ring
    values = ring._values() if ring.is_finite else [-3, 0, 2, 10 ** 30]
    for a, b in product(values[:12], repeat=2):
        x, y = ring.element(a), twin.element(b)
        same = ring.element(b)
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            got = getattr(x, op)(y)
            assert got == getattr(x, op)(same) and got.ring is ring, (op, a, b)
        assert x - y == x + (-same) and y.__rsub__(x) == x - same
        assert 3 + x == x + 3 == x + ring.element(3)
        assert 3 - x == ring.element(3) - x and 3 * x == x * ring.element(3)
        assert (x == y) == (a == b)
    x, z = ring.element(1), other.element(1)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        with pytest.raises(MixedRingError):
            getattr(x, op)(z)
        with pytest.raises(MixedRingError):
            getattr(z, op)(x)


@pytest.mark.parametrize("spec", ["Z", "Z/7", "Z/9[x]/(x^2+1)"])
def test_a_refused_operand_is_reported_under_its_own_operator(spec):
    # an int on the left of a ring element is read by the reflected
    # operator; a float, or a float exponent or a modulus given to pow,
    # ends in Python's TypeError naming the operator used
    x = parse_ring(spec).element(3)
    assert 5 - x == x.ring.element(2) and 5 + x == x.ring.element(8)
    assert x ** 3 == x * x * x and x ** 0 == x.ring.one
    for sign, op in [("-", lambda: 0.5 - x), ("+", lambda: 0.5 + x),
                     ("*", lambda: 0.5 * x), ("-", lambda: x - 0.5),
                     ("** or pow()", lambda: x ** 2.0),
                     ("** or pow()", lambda: pow(x, 2, 5))]:
        with pytest.raises(TypeError, match=re.escape(f"unsupported operand type(s) for {sign}:")):
            op()
    with pytest.raises(ValueError, match="negative powers not supported"):
        x ** -1


def test_queried_ring_is_freed_by_refcount():
    # single queries keep only canonical values on the ring (the unit and
    # power tables), never an element, so the ring dies with its last
    # reference with the collector off
    import gc
    import weakref
    from quadrings import as_act, is_isomorphic
    gc.collect()
    gc.disable()
    try:
        for spec in ["Z", "Z/12", "Z/4[x]/(x^2)", "Z/9[x]/(x^2+1)"]:
            ring = parse_ring(spec)
            a, b = ring.element(3), ring.element([1, 1, 1] if "[x]" in spec else 5)
            sums = [a + b, a - b, a * b, 2 - a, -a, a ** 5, ring.zero, ring.one]
            s = QuadraticAlgebra(ring, a, b)
            t = QuadraticAlgebra(ring, a + 2 * b, b)
            found = [is_isomorphic(s, t), is_isomorphic(s, s), is_discriminant(ring, b),
                     as_act(s, ring.zero), s.disc(), s.element(a, b) * s.x]
            if ring.is_finite:
                found += [ring.units(), ring.inverse_of_unit(ring.one)]
            alive = weakref.ref(ring)
            del ring, a, b, sums, s, t, found
            assert alive() is None, spec
    finally:
        gc.enable()


# Brute-force definitions of the ring kernel: the oracles it is checked against.

def brute_units(ring):
    one = ring.one
    return [a for a in ring.elements() if any(a * b == one for b in ring.elements())]


def brute_inverse(ring, a):
    return next((b for b in ring.elements() if a * b == ring.one), None)


def brute_is_nonzerodivisor(ring, a):
    return all(b == ring.zero for b in ring.elements() if a * b == ring.zero)


def brute_in_principal_ideal(ring, a, t):
    return any(t * b == a for b in ring.elements())


def brute_coset_representative(a, k):
    ring = a.ring
    return min((a + ring.element(k) * b for b in ring.elements()),
               key=lambda e: e.sort_key())


def brute_is_discriminant(ring, d):
    target = brute_coset_representative(d, 4)
    witnesses = {brute_coset_representative(t, 2) for t in ring.elements()
                 if brute_coset_representative(t * t, 4) == target}
    return min(witnesses, key=lambda e: e.sort_key()) if witnesses else None


KERNEL_RINGS = ([f"Z/{n}" for n in range(1, 41)]
                + [s for s in SMALL_RINGS if "[x]" in s] + ["Z/9[x]/(x^2+1)"])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_RINGS), st.data())
def test_kernel_matches_brute_force(spec, data):
    ring = parse_ring(spec)
    elements = ring.elements()
    a = data.draw(st.sampled_from(elements))
    t = data.draw(st.sampled_from(elements))
    k = data.draw(st.integers(0, 8))
    assert ring.coset_representative(a, k) == brute_coset_representative(a, k)
    least = {brute_coset_representative(e, k) for e in elements}
    assert ring._residue_values(k) == [
        e.value for e in sorted(least, key=lambda e: e.sort_key())]
    assert ring.units() == brute_units(ring)
    inverse = brute_inverse(ring, a)
    assert ring.is_unit(a) == (inverse is not None)
    if inverse is None:
        with pytest.raises(ValueError):
            ring.inverse_of_unit(a)
    else:
        assert ring.inverse_of_unit(a) == inverse
    assert ring.is_nonzerodivisor(a) == brute_is_nonzerodivisor(ring, a)
    assert ring.in_principal_ideal(a, t) == brute_in_principal_ideal(ring, a, t)
    assert is_discriminant(ring, a) == brute_is_discriminant(ring, a)


@pytest.mark.parametrize("k", [-4, -1, 0, 1, 4])
def test_coset_representative_for_every_sign_of_k(k):
    # a + kR = a + (-k)R, and 0R = {0}: over Z the representative lies in
    # [0, |k|) and differs from a by a multiple of k, or is a when k = 0,
    # as over Z/n and (Z/n)[x]/(f)
    z = IntegerRing()
    for a in range(-9, 10):
        rep = z.coset_representative(z.element(a), k)
        assert rep == z.coset_representative(z.element(a), -k)
        if k == 0:
            assert rep.value == a
        else:
            assert 0 <= rep.value < abs(k) and (a - rep.value) % k == 0
    for spec in ["Z/12", "Z/4[x]/(x^2)"]:
        ring = parse_ring(spec)
        for a in ring.elements():
            rep = ring.coset_representative(a, k)
            assert rep == ring.coset_representative(a, -k)
            assert rep == (a if k == 0 else brute_coset_representative(a, abs(k)))


def test_mod_ring_never_enumerates(monkeypatch):
    def refuse(self):
        raise AssertionError("Z/n was enumerated")
    monkeypatch.setattr(ModRing, "elements", refuse)
    monkeypatch.setattr(ModRing, "_values", refuse)
    n = 7 * 11 * 13 * (10 ** 36 + 3)    # 40 digits, odd
    ring = parse_ring(f"Z/{n}")
    u, z = ring.element(10 ** 20 + 1), ring.element(7 * 11)
    assert ring.is_unit(u) and not ring.is_unit(z)
    assert u * ring.inverse_of_unit(u) == ring.one
    assert ring.is_nonzerodivisor(u) and not ring.is_nonzerodivisor(z)
    assert ring.in_principal_ideal(ring.element(143 * 10 ** 30), ring.element(13 * 11))
    assert not ring.in_principal_ideal(ring.element(13), ring.element(13 * 11))
    assert ring.coset_representative(ring.element(10 ** 30 + 5), 14) == ring.element(6)
    assert QuadraticAlgebra(ring, 1, 0).is_separable()


def test_enumeration_budget_refuses_before_listing(monkeypatch):
    # building any element fails, so a missing check fails at the first
    # element instead of filling memory
    def refuse(*args):
        raise AssertionError("a ring element was built")
    monkeypatch.setattr(rings, "RingElement", refuse)
    assert rings.MAX_ENUMERATION == 2 ** 20
    with pytest.raises(EnumerationLimitError):
        ModRing(2 ** 20 + 1).elements()
    with pytest.raises(EnumerationLimitError):
        QuotientPolyRing(2, [1] + [0] * 20 + [1]).elements()    # 2^21 elements


def test_enumeration_budget_boundary(monkeypatch):
    monkeypatch.setattr(rings, "MAX_ENUMERATION", 16)
    assert len(ModRing(16).elements()) == 16
    assert len(parse_ring("Z/4[x]/(x^2)").elements()) == 16
    with pytest.raises(EnumerationLimitError):
        ModRing(17).elements()
    with pytest.raises(EnumerationLimitError):
        parse_ring("Z/3[x]/(x^3)").elements()


# Each public function that takes, looks up or keeps an element, called on
# the element x: (name, the value of x, the call).  0 for as_act and
# ASGroup.class_of, the 4-torsion element of every ring; 1 for the rest, a
# unit, a discriminant and its own witness.
OPERAND_CALLS = [
    ("is_unit", 1, lambda ring, x: ring.is_unit(x)),
    ("inverse_of_unit", 1, lambda ring, x: ring.inverse_of_unit(x)),
    ("is_nonzerodivisor", 1, lambda ring, x: ring.is_nonzerodivisor(x)),
    ("in_principal_ideal", 1, lambda ring, x: (ring.in_principal_ideal(x, ring.one),
                                               ring.in_principal_ideal(ring.one, x))),
    ("coset_representative", 1, lambda ring, x: ring.coset_representative(x, 2)),
    ("as_act", 0, lambda ring, x: as_act(QuadraticAlgebra(ring, 1, 3), x)),
    ("is_sec_element", 1, lambda ring, x: is_sec_element(ring, x)),
    ("is_discriminant", 1, lambda ring, x: is_discriminant(ring, x)),
    ("sq_map", 1, lambda ring, x: sq_map(ring, x)),
    ("DiscClass", 1, lambda ring, x: DiscClass(ring, x, x)),
    ("forms_similar", 1, lambda ring, x: (
        forms_similar(Rank1Form(ring, ring.one), Rank1Form(ring, x)),
        forms_similar(Rank1Form(ring, x), Rank1Form(ring, ring.one)))),
    # u = 1 of x's own ring, so a basis change over another ring is built
    # and apply_basis_change is the one to refuse it
    ("apply_basis_change", 1, lambda ring, x: apply_basis_change(
        QuadraticAlgebra(ring, 1, 3), BasisChange(getattr(x, "ring", ring).one, x))),
    # the algebra is over x's own ring, so index_of is the one to refuse it
    ("Classification.index_of", 1, lambda ring, x: classify(ring).index_of(
        QuadraticAlgebra(getattr(x, "ring", ring), 1, x))),
    ("disc_class_of", 1, lambda ring, x: disc_class_of(ring, x)),
    ("DiscClassification.index_of", 1, lambda ring, x: disc_classes(ring).index_of(x)),
    ("ASGroup.class_of", 0, lambda ring, x: as_group(ring).class_of(x)),
    ("Rank1Form.a", 1, lambda ring, x: Rank1Form(ring, x).a),
]
# Z has no classification and no disc classes
FINITE_ONLY = {"Classification.index_of", "disc_class_of", "DiscClassification.index_of"}


@pytest.mark.parametrize("spec, name, value, call", [
    pytest.param(spec, name, value, call, id=f"{name}-{spec}")
    for name, value, call in OPERAND_CALLS
    for spec in ["Z", "Z/12", "Z/2[x]/(x^3+x+1)", "Z/4"]
    if spec != "Z" or name not in FINITE_ONLY])
def test_every_element_argument_follows_one_operand_rule(spec, name, value, call):
    # an element of an equal but distinct ring and an int give what the
    # ring's own element gives; another ring's element is a MixedRingError
    # and a float a TypeError
    ring, twin = parse_ring(spec), parse_ring(spec)
    want = call(ring, ring.element(value))
    assert call(ring, twin.element(value)) == want
    assert call(ring, value) == want
    with pytest.raises(MixedRingError):
        call(ring, ModRing(5).element(value))
    with pytest.raises(TypeError):
        call(ring, float(value))


# A non-member of each lookup in OPERAND_CALLS: (name, spec, value, text)
NON_MEMBERS = [
    ("disc_class_of", "Z/12", 2, "is not a discriminant"),
    ("disc_class_of", "Z/4", 2, "is not a discriminant"),
    ("disc_class_of", "Z/2[x]/(x^2)", [0, 1], "is not a discriminant"),
    ("DiscClassification.index_of", "Z/12", 2, "is not a discriminant"),
    ("ASGroup.class_of", "Z/12", 1, "is not 4-torsion"),
    ("ASGroup.class_of", "Z/8", 1, "is not 4-torsion"),
    ("ASGroup.class_of", "Z/3[x]/(x^2+1)", 1, "is not 4-torsion"),
]


@pytest.mark.parametrize("name, spec, value, text", NON_MEMBERS,
                         ids=[f"{name}-{spec}" for name, spec, _, _ in NON_MEMBERS])
def test_a_lookup_refuses_a_non_member_with_its_own_text(name, spec, value, text):
    # read by the operand rule first, so the plain value, the ring's own
    # element and an equal ring's element are refused alike, by the
    # lookup's own ValueError and not a MixedRingError
    call = {n: c for n, _, c in OPERAND_CALLS}[name]
    ring, twin = parse_ring(spec), parse_ring(spec)
    want = f"{ring.element(value)!r} {text}"
    for x in (value, ring.element(value), twin.element(value)):
        with pytest.raises(ValueError) as info:
            call(ring, x)
        assert type(info.value) is ValueError and str(info.value) == want


def test_require_ring_is_the_one_mismatch_check():
    # MixedRingError is a ValueError, and names what was given for which ring
    z4, z8 = ModRing(4), ModRing(8)
    assert issubclass(MixedRingError, ValueError)
    rings.require_ring(z4, ModRing(4).element(1), QuadraticAlgebra(ModRing(4), 1, 0))
    with pytest.raises(MixedRingError, match="^RingElement of Z/8 given for Z/4$"):
        rings.require_ring(z4, z4.element(1), z8.element(1))
    with pytest.raises(MixedRingError, match="^RingElement of Z/8 given for Z/4$"):
        z4.canonicalize(z8.element(1))


def test_integer_inverse_of_unit():
    # the units of Z are +-1, each its own inverse; any other integer, and
    # an element of another ring, is refused
    z = IntegerRing()
    for v in (1, -1):
        assert z.inverse_of_unit(z.element(v)) == z.element(v)
    for v in (0, 2):
        with pytest.raises(ValueError, match="is not a unit"):
            z.inverse_of_unit(z.element(v))
    with pytest.raises(MixedRingError):
        z.inverse_of_unit(ModRing(5).element(1))


def test_integer_sort_key_is_the_integer():
    z = IntegerRing()
    assert [z.sort_key(v) for v in (-3, 0, 7)] == [-3, 0, 7]
    assert sorted([z.element(v) for v in (4, -2, 0)],
                  key=lambda e: e.sort_key()) == [z.element(v) for v in (-2, 0, 4)]


@pytest.mark.parametrize("build", [lambda: ModRing(0),
                                   lambda: QuotientPolyRing(0, [1, 0, 1])])
def test_modulus_zero_is_a_parse_error(build):
    with pytest.raises(RingParseError, match="modulus must be >= 1, got 0"):
        build()

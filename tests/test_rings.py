import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrings.rings as rings
from quadrings import (EnumerationLimitError, InfiniteRingError,
                       MixedRingError, QuadraticAlgebra, RingParseError,
                       parse_ring)
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
    for bad in ["Q", "Z/0", "Z/-3", "Z/4[x]/(2x^2+1)", "Z/4[x]/(3)",
                "Z/4[x]/()", "Z mod 4", ""]:
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
    with pytest.raises(InfiniteRingError):
        parse_ring("Z").elements()


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
    with pytest.raises(AttributeError):
        a.value = 1
    assert len({z4.element(1), z4.element(1), z4.element(2)}) == 2


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
    # path through _coerce and gives the same value; another ring raises
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

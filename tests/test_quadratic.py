import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrings.quadratic as quadratic
from quadrings import (BasisChange, EnumerationLimitError, InfiniteRingError,
                       MixedRingError, ModRing, QuadraticAlgebra,
                       QuotientPolyRing, RingElement,
                       apply_basis_change,
                       basis_change_group, classify, disc_hom_check,
                       find_absorbing,
                       integer_algebra_for_disc, is_isomorphic, parse_ring,
                       quad_monoid, separable_square_check, star_product,
                       validate_monoid)

FINITE_RINGS = ["Z/2", "Z/3", "Z/4", "Z/5", "Z/6",
                "Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^2)"]


def all_algebras(ring):
    els = ring.elements()
    return [QuadraticAlgebra(ring, t, n) for t in els for n in els]


def test_element_arithmetic_examples():
    z = parse_ring("Z")
    a = QuadraticAlgebra(z, 1, 0)  # x^2 = x
    assert a.x * a.x == a.x
    s = QuadraticAlgebra(z, 3, 1)
    assert s.x.conjugate() == s.element(3, -1)
    assert s.x.trace() == z.element(3)
    assert s.x.norm() == z.element(1)
    z4 = parse_ring("Z/4")
    b = QuadraticAlgebra(z4, 1, 1)
    assert b.element(1, 1).norm() == z4.element(3)


def test_norm_against_expansion_oracle():
    # norm(alpha) must equal alpha * conjugate(alpha) computed elementwise
    for spec in ["Z/4", "Z/2[x]/(x^2+x+1)"]:
        ring = parse_ring(spec)
        for alg in all_algebras(ring):
            for a in ring.elements():
                for b in ring.elements():
                    alpha = alg.element(a, b)
                    prod = alpha * alpha.conjugate()
                    assert prod.b == ring.zero
                    assert prod.a == alpha.norm()
                    summed = alpha + alpha.conjugate()
                    assert summed.b == ring.zero
                    assert summed.a == alpha.trace()


def test_characteristic_equation():
    # alpha^2 - trace*alpha + norm = 0 for every element
    for spec in ["Z/4", "Z/3", "Z/2[x]/(x^2)"]:
        ring = parse_ring(spec)
        for alg in all_algebras(ring):
            for a in ring.elements():
                for b in ring.elements():
                    alpha = alg.element(a, b)
                    lhs = alpha * alpha - alpha * alpha.trace() + alpha.norm()
                    assert lhs == alg.element(0, 0)


def test_involution_is_ring_map():
    for spec in ["Z/4", "Z/2[x]/(x^2+x+1)"]:
        ring = parse_ring(spec)
        for alg in all_algebras(ring)[:8]:
            els = [alg.element(a, b)
                   for a in ring.elements() for b in ring.elements()]
            for alpha in els:
                assert alpha.conjugate().conjugate() == alpha
            for alpha in els:
                for beta in els:
                    assert (alpha * beta).conjugate() == alpha.conjugate() * beta.conjugate()


def test_mixed_algebras_rejected():
    z = parse_ring("Z")
    a = QuadraticAlgebra(z, 1, 0)
    b = QuadraticAlgebra(z, 0, 0)
    with pytest.raises(MixedRingError):
        a.x * b.x
    with pytest.raises(MixedRingError):
        star_product(a, QuadraticAlgebra(parse_ring("Z/4"), 1, 0))


def test_disc_examples():
    z = parse_ring("Z")
    assert QuadraticAlgebra(z, 1, 0).disc() == z.element(1)
    assert integer_algebra_for_disc(5).disc() == z.element(5)
    assert QuadraticAlgebra(z, 0, 0).disc() == z.element(0)


def test_star_product_examples():
    z = parse_ring("Z")
    s = QuadraticAlgebra(z, 7, -3)
    assert star_product(s, QuadraticAlgebra(z, 1, 0)) == s
    assert star_product(s, QuadraticAlgebra(z, 0, 0)) == QuadraticAlgebra(z, 0, 0)
    kummer = star_product(QuadraticAlgebra(z, 0, -2), QuadraticAlgebra(z, 0, -3))
    assert kummer == QuadraticAlgebra(z, 0, -24)
    f2 = parse_ring("Z/2")
    for n in range(2):
        for m in range(2):
            prod = star_product(QuadraticAlgebra(f2, 1, n),
                                QuadraticAlgebra(f2, 1, m))
            assert prod == QuadraticAlgebra(f2, 1, (n + m) % 2)


def test_is_separable():
    z = parse_ring("Z")
    assert QuadraticAlgebra(z, 1, 0).is_separable()
    assert not QuadraticAlgebra(z, 0, 0).is_separable()
    assert not QuadraticAlgebra(z, 1, 1).is_separable()  # disc -3 not a unit


def test_basis_change_examples():
    f2 = parse_ring("Z/2")
    g = BasisChange(f2.one, f2.one)
    assert apply_basis_change(QuadraticAlgebra(f2, 0, 0), g) == QuadraticAlgebra(f2, 0, 1)
    z = parse_ring("Z")
    s = QuadraticAlgebra(z, 3, 1)
    assert apply_basis_change(s, BasisChange(z.one, z.zero)) == s
    with pytest.raises(ValueError):
        BasisChange(z.element(2), z.zero)


def test_is_isomorphic_f2():
    f2 = parse_ring("Z/2")
    w = is_isomorphic(QuadraticAlgebra(f2, 0, 0), QuadraticAlgebra(f2, 0, 1))
    assert w is not None and w.u == f2.one and w.r == f2.one
    assert is_isomorphic(QuadraticAlgebra(f2, 1, 0), QuadraticAlgebra(f2, 1, 1)) is None


def test_is_isomorphic_returns_working_witness():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        algs = all_algebras(ring)
        for s in algs:
            for t in algs:
                w = is_isomorphic(s, t)
                if w is not None:
                    assert apply_basis_change(s, w) == t


def first_witness_by_search(s, t):
    for g in basis_change_group(s.ring):
        if apply_basis_change(s, g) == t:
            return g
    return None


def test_is_isomorphic_witness_is_first_in_group_order():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        algs = all_algebras(ring)
        for s in algs:
            for t in algs:
                assert is_isomorphic(s, t) == first_witness_by_search(s, t)
    rng = random.Random(11)
    for spec in ["Z/8", "Z/9", "Z/4[x]/(x^2)", "Z/3[x]/(x^2+1)"]:
        ring = parse_ring(spec)
        els = ring.elements()
        group = basis_change_group(ring)
        for k in range(100):
            s = QuadraticAlgebra(ring, rng.choice(els), rng.choice(els))
            t = (apply_basis_change(s, rng.choice(group)) if k % 2 else
                 QuadraticAlgebra(ring, rng.choice(els), rng.choice(els)))
            assert is_isomorphic(s, t) == first_witness_by_search(s, t), spec


@pytest.mark.parametrize("spec", ["Z", "Z/12", "Z/2[x]/(x^2+x+1)", "Z/3[x]/(x^2+1)"])
def test_algebras_take_elements_of_the_identical_ring_as_they_are(spec):
    # an element of the identical ring is kept as it is; one of an equal
    # ring instance and a plain value are brought in through ring.element;
    # one of another ring raises
    ring, twin = parse_ring(spec), parse_ring(spec)
    t, n = ring.element(3), ring.element(5)
    alg = QuadraticAlgebra(ring, t, n)
    assert alg.t is t and alg.n is n
    x = alg.element(n, t)
    assert x.a is n and x.b is t
    for a, b in [(twin.element(3), twin.element(5)), (3, 5), (3, ring.element(5))]:
        other = QuadraticAlgebra(ring, a, b)
        assert other == alg and other.t.ring is ring and other.n.ring is ring
        y = alg.element(b, a)
        assert y == x and y.a.ring is ring and y.b.ring is ring
    with pytest.raises(MixedRingError):
        QuadraticAlgebra(ring, parse_ring("Z/7").element(3), n)
    with pytest.raises(MixedRingError):
        alg.element(0, parse_ring("Z/7").element(1))


@pytest.mark.parametrize("spec", ["Z", "Z/12", "Z/2[x]/(x^2+x+1)", "Z/3[x]/(x^2+1)"])
def test_algebra_arithmetic_across_equal_algebras(spec):
    # products, sums, disc and is_isomorphic take operands over an equal
    # but distinct ring as if over the same one; another algebra raises
    ring, twin = parse_ring(spec), parse_ring(spec)
    alg, alg2 = QuadraticAlgebra(ring, 1, 2), QuadraticAlgebra(twin, 1, 2)
    for a, b, c, d in [(1, 2, 3, 4), (0, 5, 7, 1), (3, 3, 3, 3)]:
        x, y, y2 = alg.element(a, b), alg.element(c, d), alg2.element(c, d)
        assert x * y2 == x * y and x + y2 == x + y and x - y2 == x - y
        # the product by x^2 = tx - n, with the oracle on ring elements
        t, n = alg.t, alg.n
        want = (x.a * y.a - x.b * y.b * n, x.a * y.b + x.b * y.a + x.b * y.b * t)
        assert ((x * y).a, (x * y).b) == want
    other = QuadraticAlgebra(ring, 0, 1)
    with pytest.raises(MixedRingError):
        alg.x * other.x
    s, t = QuadraticAlgebra(ring, 1, 2), QuadraticAlgebra(twin, 3, 4)
    assert is_isomorphic(s, t) == is_isomorphic(s, QuadraticAlgebra(ring, 3, 4))
    assert star_product(s, t) == star_product(s, QuadraticAlgebra(ring, 3, 4))


def test_disc_matches_element_arithmetic():
    # disc is taken on canonical values; the oracle is t*t - 4*n on elements
    for spec in FINITE_RINGS + ["Z/12", "Z/3[x]/(x^2+1)"]:
        ring = parse_ring(spec)
        four = ring.element(4)
        for s in all_algebras(ring):
            assert s.disc() == s.t * s.t - four * s.n
    z = parse_ring("Z")
    for t, n in [(0, 0), (3, -7), (10 ** 40 + 1, -(10 ** 39))]:
        assert QuadraticAlgebra(z, t, n).disc().value == t * t - 4 * n


def orbit_partition_oracle(ring):
    """Independent single-step relation: p ~ q iff some g maps p to q."""
    group = [(u, r) for u in ring.units() for r in ring.elements()]
    two = ring.element(2)
    pairs = [(t, n) for t in ring.elements() for n in ring.elements()]

    def act(pair, g):
        t, n = pair
        u, r = g
        return (u * (t + two * r), u * u * (n + t * r + r * r))

    orbits = []
    for p in pairs:
        orbit = {act(p, g) for g in group}
        assert p in orbit
        if frozenset(orbit) not in orbits:
            orbits.append(frozenset(orbit))
    return set(orbits)


def test_classify_matches_oracle():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        cl = classify(ring)
        got = {frozenset(c.orbit_pairs) for c in cl}
        assert got == orbit_partition_oracle(ring)
        assert sum(c.orbit_size for c in cl) == ring.size ** 2


def classify_by_group(ring):
    """The object-level classification, kept as the oracle: the group G of
    basis changes applied to one seed per class.  Returns one record per
    class, sorted by representative, and the class index of every pair."""
    group = basis_change_group(ring)
    elements = ring.elements()
    pending = {(t, n) for t in elements for n in elements}
    classes = []
    while pending:
        seed = QuadraticAlgebra(ring, *next(iter(pending)))
        orbit = {apply_basis_change(seed, g).pair() for g in group}
        pending -= orbit
        pairs = sorted(orbit, key=lambda p: (p[0].sort_key(), p[1].sort_key()))
        rep = QuadraticAlgebra(ring, *pairs[0])
        classes.append({"rep": rep, "orbit_pairs": pairs,
                        "orbit_size": len(pairs), "disc": rep.disc(),
                        "separable": rep.is_separable()})
    classes.sort(key=lambda c: (c["rep"].t.sort_key(), c["rep"].n.sort_key()))
    index = {pair: i for i, c in enumerate(classes) for pair in c["orbit_pairs"]}
    return classes, index


def assert_classify_matches_group_oracle(ring):
    cl = classify(ring)
    want, index = classify_by_group(ring)
    assert len(cl) == len(want)
    # The last class is read first: one read lists the orbits of all classes.
    for got, c in reversed(list(zip(cl, want))):
        assert got.rep == c["rep"]
        assert got.orbit_pairs == c["orbit_pairs"]
        assert got.orbit_size == c["orbit_size"]
        assert got.disc == c["disc"]
        assert got.separable == c["separable"]
    assert len(index) == ring.size ** 2
    for (t, n), i in index.items():
        assert cl.index_of(QuadraticAlgebra(ring, t, n)) == i
    table = cl.star_table()
    for i, ci in enumerate(cl):
        for j, cj in enumerate(cl):
            assert table[i][j] == index[star_product(ci.rep, cj.rep).pair()]


# Every valid quotient ring named in the test files.
ORACLE_QUOTIENT_RINGS = ["Z/2[x]/(x^2)", "Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^3+x+1)",
                         "Z/3[x]/(x^2+1)", "Z/3[x]/(x^3)", "Z/4[x]/(x^2+3)",
                         "Z/4[x]/(x^2)", "Z/4[x]/(x^2+x+1)", "Z/6[x]/(x^2+1)",
                         "Z/9[x]/(x^2+1)"]


@pytest.mark.parametrize("spec", [f"Z/{n}" for n in range(1, 41)]
                         + ORACLE_QUOTIENT_RINGS)
def test_classify_matches_group_oracle(spec):
    assert_classify_matches_group_oracle(parse_ring(spec))


@st.composite
def small_quotient_rings(draw):
    """Z/m[x]/(f), f monic of degree 2 or 3, with at most 32 elements."""
    degree = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(2, 5 if degree == 2 else 3))
    lower = draw(st.lists(st.integers(0, m - 1), min_size=degree,
                          max_size=degree))
    return QuotientPolyRing(m, lower + [1])


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.integers(2, 64).map(ModRing), small_quotient_rings()))
def test_classify_matches_group_oracle_drawn(ring):
    assert_classify_matches_group_oracle(ring)


def direct_unit_rows(ring):
    """Units, in canonical order, that lie outside the subgroup generated by
    the units before them: the units whose multiplication rows classify
    builds from ring products rather than by composing known rows."""
    subgroup = {ring.one}
    direct = []
    for u in ring.units():
        if u in subgroup:
            continue
        direct.append(u)
        while not subgroup >= {u * k for k in subgroup}:
            subgroup |= {u * k for k in subgroup}
    return direct


def test_classify_cost_is_composed_rows_plus_slices(monkeypatch):
    # classify never builds a BasisChange; its ring products are one row per
    # unit outside the subgroup of the units before it, r^2 per element,
    # and per trace orbit one r(t0 + r) per member 2r of 2R and one
    # a(t0 + a) per generator a of R[2] = {a : 2a = 0}: none per class
    def refuse(*args):
        raise AssertionError("classify used the object-level basis change")
    monkeypatch.setattr(quadratic, "apply_basis_change", refuse)
    monkeypatch.setattr(quadratic, "BasisChange", refuse)
    for spec in ["Z/8", "Z/12", "Z/2[x]/(x^2+x+1)", "Z/4[x]/(x^2+x+1)",
                 "Z/9[x]/(x^2+1)", "Z/2[x]/(x^3+x+1)", "Z/4[x]/(x^2)"]:
        ring = parse_ring(spec)
        units = len(ring.units())    # builds a quotient ring's unit table
        direct = len(direct_unit_rows(ring))
        assert 2 ** direct <= units, spec
        # R[2] is elementary abelian, so it has log2|R[2]| generators
        torsion = sum(1 for a in ring.elements() if 2 * a == ring.zero)
        doubles = ring.size // torsion
        calls = 0
        original = ring._mul

        def counting(a, b):
            nonlocal calls
            calls += 1
            return original(a, b)

        monkeypatch.setattr(ring, "_mul", counting)
        cl = classify(ring)
        traces = len({c.rep.t for c in cl})    # one least trace per orbit
        assert calls == (ring.size * (direct + 1)
                         + traces * (doubles + torsion.bit_length() - 1)), spec


def test_orbit_pairs_are_listed_only_when_read(monkeypatch):
    # classify, quad_monoid and the hom check never list an orbit; the first
    # read lists every class's orbit from the class map, once.
    def refuse(self):
        raise AssertionError("orbit_pairs was read")
    ring = parse_ring("Z/2[x]/(x^2)")
    with monkeypatch.context() as patch:
        patch.setattr(quadratic.IsoClass, "orbit_pairs", property(refuse))
        cl = classify(ring)
        quad_monoid(ring, cl)
        disc_hom_check(ring, cl)
    listed = []
    real = quadratic.ClassMap.row
    monkeypatch.setattr(quadratic.ClassMap, "row",
                        lambda self, y: listed.append(y) or real(self, y))
    pairs = [c.orbit_pairs for c in cl]
    assert [c.orbit_pairs for c in cl] == pairs
    assert listed == list(range(ring.size))    # one pass over the class rows
    assert [len(p) for p in pairs] == [c.orbit_size for c in cl]
    assert [p[0] for p in pairs] == [c.rep.pair() for c in cl]


def test_star_table_is_built_once_and_shared():
    ring = parse_ring("Z/12")
    cl = classify(ring)
    table = cl.star_table()
    assert all(isinstance(row, tuple) for row in table)
    monoid = quad_monoid(ring, cl)
    disc_hom_check(ring, cl)
    assert cl.star_table() is table
    assert monoid.table == [list(row) for row in table]
    monoid.table[0][0] = 1 - monoid.table[0][0]
    assert cl.star_table()[0][0] != monoid.table[0][0]


@pytest.mark.parametrize("spec", ["Z/120", "Z/360", "Z/6[x]/(x^2+1)",
                                  "Z/4[x]/(x^4+x+1)"])
def test_star_table_matches_star_product_entry_by_entry(spec):
    # many classes share a trace, a disc or a norm here, so rows and
    # columns read shared product lists; the group oracle is too slow
    ring = parse_ring(spec)
    cl = classify(ring)
    table = cl.star_table()
    for i, ci in enumerate(cl):
        assert list(table[i]) == [cl.index_of(star_product(ci.rep, cj.rep))
                                  for cj in cl], (spec, ci.label)


@pytest.mark.parametrize("spec", ["Z/24", "Z/4[x]/(x^2)"])
def test_star_table_takes_one_product_per_distinct_pair_of_codes(monkeypatch, spec):
    # (t, n) * (s, m) = (st, d*m + n*s^2): the products are trace x trace,
    # disc x norm and norm x trace square, one per distinct pair of values
    ring = parse_ring(spec)
    cl = classify(ring)
    traces = {c.rep.t for c in cl}
    norms = {c.rep.n for c in cl}
    discs = {c.disc for c in cl}
    squares = {t * t for t in traces}
    calls = 0
    original = ring._mul

    def counting(a, b):
        nonlocal calls
        calls += 1
        return original(a, b)

    monkeypatch.setattr(ring, "_mul", counting)
    table = cl.star_table()
    assert calls == (len(traces) ** 2 + len(discs) * len(norms)
                     + len(norms) * len(squares)), spec
    calls = 0
    assert cl.star_table() is table
    assert calls == 0


def rings_up_to(size):
    """Z/n, (Z/n)[x]/(x) and every (Z/n)[x]/(f) with f monic of degree >= 2,
    for |R| <= size."""
    rings = [ModRing(n) for n in range(1, size + 1)]
    rings += [QuotientPolyRing(n, [0, 1]) for n in range(2, size + 1)]
    for n in range(2, size + 1):
        degree = 2
        while n ** degree <= size:
            rings += [QuotientPolyRing(n, list(lower) + [1])
                      for lower in product(range(n), repeat=degree)]
            degree += 1
    return rings


def classify_by_seeds(ring):
    """The seed loop that classified before the trace slices, kept as the
    oracle: each seed, in increasing pair code, is the least pair of its
    class, and its orbit is the union over units u of u applied to its
    translates (t + 2r, n + tr + r^2), on the kernel's codes, with the
    multiplication rows of the units composed from at most log2|U| direct
    ones.  Returns per class (t, n, orbit size, disc, separable), on
    canonical values and sorted like classify's classes, and the class
    index of every pair code."""
    kernel = ring.kernel()
    values, code, square, add_row = (kernel.values, kernel.code, kernel.square,
                                     kernel.add_row)
    size = len(values)
    mul, add, neg = ring._mul, ring._add, ring._neg
    four = ring.element(4).value
    rows = {code[ring.one.value]: add_row(0)}
    for cu in kernel.units:
        if cu in rows:
            continue
        row_u = [code[mul(values[cu], x)] for x in values]
        coset = list(rows)
        while row_u[coset[0]] not in rows:
            for k in coset:
                rows[row_u[k]] = [row_u[c] for c in rows[k]]
            coset = [row_u[k] for k in coset]
    actions = [(rows[cu], rows[square[cu]]) for cu in kernel.units]    # u, u^2
    doubles = kernel.multiple_row(2)
    class_at = [-1] * (size * size)
    classes = []
    for seed in range(size * size):
        if class_at[seed] >= 0:
            continue
        a0, b0 = divmod(seed, size)
        plus_t, plus_n = add_row(a0), add_row(b0)
        t_codes = [plus_t[r2] for r2 in doubles]
        n_shifts = [code[mul(r, values[tr])] for r, tr in zip(values, plus_t)]
        translates = {(a, plus_n[v]) for a, v in zip(t_codes, n_shifts)}
        orbit = set()
        for row_t, row_n in actions:
            if row_t[a0] * size + row_n[b0] not in orbit:
                orbit.update([row_t[a] * size + row_n[b] for a, b in translates])
        for c in orbit:
            class_at[c] = len(classes)
        disc = add(values[square[a0]], neg(mul(four, values[b0])))
        classes.append((values[a0], values[b0], len(orbit), disc,
                        ring.is_unit(RingElement(ring, disc))))
    return classes, class_at


def assert_classify_matches_seed_loop(ring):
    cl = classify(ring)
    want, class_at = classify_by_seeds(ring)
    assert [(c.rep.t.value, c.rep.n.value, c.orbit_size, c.disc.value,
             c.separable) for c in cl] == want
    size, class_map = ring.size, cl.class_map
    for y in range(size):
        assert class_map.row(y) == class_at[y * size:(y + 1) * size], (ring, y)
    t, n = (7 * size) // 11, (3 * size) // 5
    assert cl.index_of_values(ring.kernel().values[t], ring.kernel().values[n]) == (
        class_at[t * size + n])


def test_classify_matches_seed_loop_on_rings_up_to_27():
    for ring in rings_up_to(27):
        assert_classify_matches_seed_loop(ring)


GF256 = "Z/2[x]/(x^8+x^4+x^3+x+1)"
GF1024 = "Z/2[x]/(x^10+x^3+1)"


@pytest.mark.parametrize("spec", ["Z/256", "Z/960", "Z/1024", GF256, GF1024,
                                  "Z/8[x]/(x^2)", "Z/9[x]/(x^2+1)"])
def test_classify_matches_seed_loop(spec):
    assert_classify_matches_seed_loop(parse_ring(spec))


@pytest.mark.parametrize("spec, factors", [("Z/960", ["Z/64", "Z/3", "Z/5"]),
                                           ("Z/1000", ["Z/8", "Z/125"])])
def test_class_counts_multiply_over_coprime_factors(spec, factors):
    # R = R1 x R2 makes Quad(R) = Quad(R1) x Quad(R2), class by class
    count = 1
    for factor in factors:
        count *= len(classify(parse_ring(factor)))
    assert len(classify(parse_ring(spec))) == count


@pytest.mark.parametrize("spec", ["Z/1024", GF1024])
def test_classify_peak_memory(spec):
    # the class map holds a trace table and one slice per trace orbit, not
    # |R|^2 class indices; the composed unit rows, |U|*|R| codes, dominate
    ring = parse_ring(spec)
    tracemalloc.start()
    try:
        classify(ring)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_is_isomorphic_matches_group_search_on_rings_up_to_27():
    rng = random.Random(27)
    for ring in rings_up_to(27):
        els = ring.elements()
        group = basis_change_group(ring)
        seeds = (all_algebras(ring) if ring.size <= 3 else
                 [QuadraticAlgebra(ring, rng.choice(els), rng.choice(els))])
        for s in seeds:
            first = {}    # image -> first witness in group order
            for g in group:
                first.setdefault(apply_basis_change(s, g).pair(), g)
            images = list(first)
            targets = ([QuadraticAlgebra(ring, *p)
                        for p in rng.sample(images, min(8, len(images)))]
                       + [QuadraticAlgebra(ring, rng.choice(els), rng.choice(els))
                          for _ in range(8)])
            for t in targets:
                assert is_isomorphic(s, t) == first.get(t.pair()), (ring, s, t)


def test_index_of_checks_the_ring():
    cl = classify(parse_ring("Z/24"))
    with pytest.raises(KeyError):
        cl.index_of(QuadraticAlgebra(parse_ring("Z/12"), 1, 0))
    with pytest.raises(KeyError):
        cl.index_of(QuadraticAlgebra(parse_ring("Z"), 1, 0))
    again = QuadraticAlgebra(parse_ring("Z/24"), 1, 0)
    assert cl.index_of(again) == cl.index_of(QuadraticAlgebra(cl.ring, 1, 0))
    assert cl[cl.index_of(again)].label == "(1,0)"


def burnside_class_count(ring):
    """|G|^-1 * sum over g of |Fix g|, with no orbit enumeration."""
    two = ring.element(2)
    els = ring.elements()
    group = [(u, r) for u in ring.units() for r in els]
    fixed = sum(1 for u, r in group for t in els if u * (t + two * r) == t
                for n in els if u * u * (n + t * r + r * r) == n)
    assert fixed % len(group) == 0
    return fixed // len(group)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.integers(2, 20).map(lambda n: f"Z/{n}"),
                 st.sampled_from(FINITE_RINGS)))
def test_class_count_matches_burnside(spec):
    ring = parse_ring(spec)
    assert len(classify(ring)) == burnside_class_count(ring)


def test_classify_f2():
    cl = classify(parse_ring("Z/2"))
    assert [c.label for c in cl] == ["(0,0)", "(1,0)", "(1,1)"]
    assert [c.orbit_size for c in cl] == [2, 1, 1]


def test_classify_z4():
    cl = classify(parse_ring("Z/4"))
    assert len(cl) == 6
    even_t = [c for c in cl if c.rep.t.value % 2 == 0]
    odd_t = [c for c in cl if c.rep.t.value % 2 == 1]
    assert len(even_t) == 4 and len(odd_t) == 2
    assert all(c.disc.value == 0 for c in even_t)
    assert all(c.disc.value == 1 for c in odd_t)


def test_classify_requires_finite():
    with pytest.raises(InfiniteRingError):
        classify(parse_ring("Z"))


def test_quad_monoid_structure():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        cl = classify(ring)
        m = quad_monoid(ring, cl)
        assert validate_monoid(m)
        assert m.labels[m.identity] == cl[cl.index_of(QuadraticAlgebra(ring, 1, 0))].label
        absorbing = find_absorbing(m)
        assert m.labels[absorbing] == cl[cl.index_of(QuadraticAlgebra(ring, 0, 0))].label


def test_classification_labels_format_each_value_once(monkeypatch):
    # the labels are the representatives' own labels, from one element_text
    # call per distinct trace or norm value, and each class keeps its label
    for ring in rings_up_to(16):
        cl = classify(ring)
        formatted = []
        real = type(ring).element_text
        monkeypatch.setattr(type(ring), "element_text",
                            lambda self, value: formatted.append(value) or real(self, value))
        labels = cl.labels()
        monkeypatch.undo()
        assert labels == [c.rep.label() for c in cl], ring
        values = {v for c in cl for v in (c.rep.t.value, c.rep.n.value)}
        assert sorted(formatted, key=ring.sort_key) == sorted(values, key=ring.sort_key)
        assert all(c._label == label for c, label in zip(cl, labels))
        assert cl.labels() == labels


def test_disc_multiplicative_exhaustive():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        algs = all_algebras(ring)
        for s in algs:
            for t in algs:
                assert star_product(s, t).disc() == s.disc() * t.disc()


def test_disc_multiplicative_randomized_over_z():
    rng = random.Random(7)
    z = parse_ring("Z")
    for _ in range(200):
        s = QuadraticAlgebra(z, rng.randint(-50, 50), rng.randint(-50, 50))
        t = QuadraticAlgebra(z, rng.randint(-50, 50), rng.randint(-50, 50))
        assert star_product(s, t).disc() == s.disc() * t.disc()


def test_disc_transforms_by_unit_square():
    for spec in ["Z/4", "Z/5", "Z/2[x]/(x^2+x+1)"]:
        ring = parse_ring(spec)
        for s in all_algebras(ring):
            for g in basis_change_group(ring):
                assert apply_basis_change(s, g).disc() == g.u * g.u * s.disc()


def test_product_functorial_under_basis_changes():
    # class of S*T only depends on the classes of S and T, and the explicit
    # witness is apply(S*T, (uv, qt + rs + 2qr))
    for spec in ["Z/2", "Z/4", "Z/2[x]/(x^2+x+1)"]:
        ring = parse_ring(spec)
        cl = classify(ring)
        two = ring.element(2)
        group = basis_change_group(ring)
        algs = all_algebras(ring)
        # Each algebra's images under the group, computed once.
        moved = [[apply_basis_change(s, g) for g in group] for s in algs]
        for s, s_moved in zip(algs, moved):
            for t, t_moved in zip(algs, moved):
                st = star_product(s, t)
                st_class = cl.index_of(st)
                for g, sp in zip(group, s_moved):
                    for h, tp in zip(group, t_moved):
                        lhs = star_product(sp, tp)
                        assert cl.index_of(lhs) == st_class
                        c = h.r * s.t + g.r * t.t + two * h.r * g.r
                        wit = BasisChange(g.u * h.u, c)
                        assert apply_basis_change(st, wit) == lhs


def test_star_associative_at_pair_level():
    # exact associativity before passing to classes
    for spec in ["Z/2", "Z/3", "Z/4", "Z/2[x]/(x^2+x+1)"]:
        ring = parse_ring(spec)
        algs = all_algebras(ring)
        for a in algs:
            for b in algs:
                ab = star_product(a, b)
                for c in algs:
                    assert star_product(ab, c) == star_product(a, star_product(b, c))


def test_is_isomorphic_over_z_bounded_search():
    rng = random.Random(5)
    z = parse_ring("Z")
    for _ in range(200):
        s = QuadraticAlgebra(z, rng.randint(-30, 30), rng.randint(-30, 30))
        g = BasisChange(z.element(rng.choice([1, -1])),
                        z.element(rng.randint(-20, 20)))
        t = apply_basis_change(s, g)
        w = is_isomorphic(s, t)
        assert w is not None
        assert apply_basis_change(s, w) == t


def test_separable_square_check():
    z = parse_ring("Z")
    assert separable_square_check(QuadraticAlgebra(z, 1, 0))
    f2 = parse_ring("Z/2")
    assert separable_square_check(QuadraticAlgebra(f2, 1, 1))
    z4 = parse_ring("Z/4")
    s = QuadraticAlgebra(z4, 1, 1)
    assert star_product(s, s) == QuadraticAlgebra(z4, 1, 2)
    assert separable_square_check(s)
    with pytest.raises(ValueError):
        separable_square_check(QuadraticAlgebra(z4, 0, 0))


def test_separable_square_all_finite():
    for spec in FINITE_RINGS:
        ring = parse_ring(spec)
        for c in classify(ring):
            if c.separable:
                assert separable_square_check(c.rep)


def test_integer_algebra_table():
    z = parse_ring("Z")
    assert integer_algebra_for_disc(0) == QuadraticAlgebra(z, 0, 0)
    assert integer_algebra_for_disc(4) == QuadraticAlgebra(z, 2, 0)
    assert integer_algebra_for_disc(9) == QuadraticAlgebra(z, 3, 0)
    assert integer_algebra_for_disc(5) == QuadraticAlgebra(z, 5, 5)
    assert integer_algebra_for_disc(-4) == QuadraticAlgebra(z, -4, 5)
    with pytest.raises(ValueError):
        integer_algebra_for_disc(2)
    for d in range(-100, 101):
        if d % 4 in (0, 1):
            assert integer_algebra_for_disc(d).disc() == z.element(d)


@pytest.mark.parametrize("root", [10 ** 19 + 7, 10 ** 160 + 1],
                         ids=["20-digit", "161-digit"])
def test_integer_algebra_for_large_square_disc(root):
    # a float square root misjudges 20-digit squares and overflows past 1e308
    z = parse_ring("Z")
    assert integer_algebra_for_disc(root * root) == QuadraticAlgebra(z, root, 0)
    d = root * root + 4
    assert integer_algebra_for_disc(d) == QuadraticAlgebra(z, d, (d * d - d) // 4)


def test_integer_classes_inject_into_discriminants():
    discs = [d for d in range(-100, 101) if d % 4 in (0, 1) and d != 0]
    algs = {d: integer_algebra_for_disc(d) for d in discs}
    for i, d1 in enumerate(discs):
        for d2 in discs[i + 1:]:
            assert is_isomorphic(algs[d1], algs[d2]) is None
        assert is_isomorphic(algs[d1], algs[d1]) is not None


def test_every_finite_field_has_three_classes():
    # odd q: the null algebra plus one class per square class of the disc;
    # even q: the null algebra plus the two Artin-Schreier classes
    fields = ["Z/2", "Z/3", "Z/5", "Z/7",
              "Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^3+x+1)", "Z/3[x]/(x^2+1)"]
    for spec in fields:
        ring = parse_ring(spec)
        cl = classify(ring)
        assert len(cl) == 3, spec
        from quadrings import disc_classes
        dc = disc_classes(ring)
        fibers = {}
        for c in cl:
            fibers.setdefault(dc.index_of(c.disc), []).append(c.label)
        assert len(fibers[dc.index_of(ring.zero)]) == 1
        if ring.size % 2 == 1:
            # disc is a bijection onto the three disc classes
            assert len(dc) == 3 and all(len(v) == 1 for v in fibers.values())
        else:
            assert len(dc) == 2
            assert len(fibers[dc.index_of(ring.one)]) == 2


def test_zero_ring_classification():
    ring = parse_ring("Z/1")
    cl = classify(ring)
    assert len(cl) == 1
    m = quad_monoid(ring, cl)
    assert validate_monoid(m)
    assert m.identity == find_absorbing(m)


def test_classify_refuses_over_budget_before_enumerating(monkeypatch):
    # |R|^2 = 1025^2 pairs exceed the 2^20 budget; nothing may be listed first
    def refuse(self):
        raise AssertionError("the ring was enumerated before the budget check")
    monkeypatch.setattr(ModRing, "elements", refuse)
    with pytest.raises(EnumerationLimitError):
        classify(ModRing(1025))


def test_classify_formats_no_ring_spec(monkeypatch):
    # the budget checks name what they list only when they refuse
    import quadrings.rings as rings
    ring = parse_ring("Z/2[x]/(x^3+x+1)")
    calls = []
    real = rings.format_poly
    monkeypatch.setattr(rings, "format_poly", lambda c: calls.append(c) or real(c))
    classify(ring)
    assert calls == []


def test_kernel_matches_ring_arithmetic_on_rings_up_to_27():
    # add rows, code sums and multiple rows need no ring operation; each
    # must agree with ring._add and ring._mul on every code, and the product tables
    # with their definitions
    for ring in rings_up_to(27):
        kernel = ring.kernel()
        values, code = kernel.values, kernel.code
        assert values == ring._values() and ring.kernel() is kernel
        assert [code[v] for v in values] == list(range(ring.size))
        for c, a in enumerate(values):
            assert [values[k] for k in kernel.add_row(c)] == [
                ring._add(a, b) for b in values], (ring, a)
            assert [kernel.add_code(c, k) for k in range(ring.size)] == [
                code[ring._add(a, b)] for b in values], (ring, a)
        for k in (-4, -1, 2, 4):
            assert [values[c] for c in kernel.multiple_row(k)] == [
                ring._mul(ring.element(k).value, a) for a in values], (ring, k)
        assert [values[c] for c in kernel.square] == [ring._mul(a, a) for a in values]
        assert kernel.minus_four == kernel.multiple_row(-4)
        fours = [ring._mul(ring.element(4).value, a) for a in values]
        assert kernel.norms == {code[q]: [c for c, f in enumerate(fours) if f == q]
                                for q in set(fours)}
        assert [values[c] for c in kernel.units] == ring._unit_values()
        unit_squares = {ring._mul(u, u) for u in ring._unit_values()}
        assert kernel.unit_squares == sorted(unit_squares, key=ring.sort_key)


def test_kernel_root_table_groups_the_squares_on_rings_up_to_27():
    # code(t^2) -> [t] holds every t under each square, increasing, and is
    # built once per kernel
    for ring in rings_up_to(27):
        kernel = ring.kernel()
        square = kernel.square
        assert kernel.roots == {tt: [t for t, s in enumerate(square) if s == tt]
                                for tt in set(square)}, ring
        assert all(ts == sorted(set(ts)) for ts in kernel.roots.values()), ring
        assert kernel.roots is kernel.roots

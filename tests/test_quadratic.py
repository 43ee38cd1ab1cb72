import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrings.quadratic as quadratic
from quadrings import (BasisChange, EnumerationLimitError, InfiniteRingError,
                       MixedRingError, ModRing, QuadraticAlgebra,
                       apply_basis_change,
                       basis_change_group, classify, find_absorbing,
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


def test_classify_applies_group_once_per_class(monkeypatch):
    calls = 0
    original = quadratic.apply_basis_change

    def counting(s, g):
        nonlocal calls
        calls += 1
        return original(s, g)

    monkeypatch.setattr(quadratic, "apply_basis_change", counting)
    for spec in ["Z/8", "Z/12", "Z/2[x]/(x^2+x+1)"]:
        ring = parse_ring(spec)
        calls = 0
        cl = classify(ring)
        assert calls == len(cl) * len(basis_change_group(ring)), spec


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
        for s in all_algebras(ring):
            for t in all_algebras(ring):
                st = star_product(s, t)
                for g in group:
                    for h in group:
                        sp = apply_basis_change(s, g)
                        tp = apply_basis_change(t, h)
                        lhs = star_product(sp, tp)
                        assert cl.index_of(lhs) == cl.index_of(st)
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

import random
from fractions import Fraction
from math import prod

import pytest

from quadrings import (IDENTITY_NAMES, AlgebraElement, MultiPoly,
                       QuadraticAlgebra, verify_all, verify_named_identity)
from quadrings.identities import _swap, _tensor_model
from quadrings.polynomials import variables


def test_poly_basics():
    t, n = variables("t", "n")
    assert (t + n) * (t - n) == t ** 2 - n ** 2
    assert t - t == 0
    assert MultiPoly.const(0).term_count() == 0
    assert str(t ** 2 - 4 * n) == "t^2-4*n"
    assert (t * n).vars == ("n", "t")


@pytest.mark.parametrize("bad", [2.7, 0.5, Fraction(7, 2)])
def test_poly_const_refuses_non_integers(bad):
    with pytest.raises(TypeError):
        MultiPoly.const(bad)


def test_poly_terms_refuse_non_integers():
    with pytest.raises(TypeError):
        MultiPoly(("t",), {(1,): 1.5})
    assert MultiPoly(("t",), {(1,): True}) == MultiPoly.variable("t")


def test_poly_variable_pruning():
    t, n = variables("t", "n")
    p = t + n - n
    assert p.vars == ("t",)
    assert p == t
    s, m = variables("s", "m")
    q = t * n + s * m
    assert q.vars == ("m", "n", "s", "t")
    assert (q - s * m).vars == ("n", "t")
    assert (t + 1) * (t - 1) - t ** 2 == -1
    assert ((t + 1) * (t - 1) - t ** 2).vars == ()
    assert (q - q).vars == () and q * 0 == 0


POLY_NAMES = ("t", "n", "s", "m")


def random_spec(rng):
    """Up to four of t, n, s, m in a shuffled order, and dense terms over them."""
    names = rng.sample(POLY_NAMES, rng.randint(0, 4))
    return names, {tuple(rng.randint(0, 3) for _ in names): rng.randint(-5, 5)
                   for _ in range(rng.randint(0, 5))}


def spec_value(names, terms, point):
    """The value at point of the polynomial the constructor is given."""
    return sum(c * prod(point[v] ** e for v, e in zip(names, exp))
               for exp, c in terms.items())


def poly_value(p, point):
    """The value of p at point, read off its monomials, each checked canonical:
    names strictly increasing, every power and coefficient nonzero."""
    assert all(c and [v for v, _ in mono] == sorted({v for v, _ in mono})
               and all(e for _, e in mono) for mono, c in p.terms.items())
    return sum(c * prod(point[v] ** e for v, e in mono) for mono, c in p.terms.items())


def test_poly_arithmetic_matches_integer_evaluation():
    rng = random.Random(33)
    for _ in range(300):
        (na, ta), (nb, tb) = random_spec(rng), random_spec(rng)
        a, b = MultiPoly(na, ta), MultiPoly(nb, tb)
        k, c = rng.randint(0, 3), rng.randint(-4, 4)
        for _ in range(3):
            point = {v: rng.randint(-50, 50) for v in POLY_NAMES}
            x, y = spec_value(na, ta, point), spec_value(nb, tb, point)
            assert poly_value(a + b, point) == x + y
            assert poly_value(a - b, point) == x - y
            assert poly_value(a * b, point) == x * y
            assert poly_value(a ** k, point) == x ** k
            assert poly_value(c - a * c, point) == c - x * c
            assert poly_value(-a + c, point) == c - x


def test_poly_equality_and_hash_ignore_build_order():
    rng = random.Random(34)
    for _ in range(200):
        names, terms = random_spec(rng)
        order = rng.sample(range(len(names)), len(names))
        p = MultiPoly(names, terms)
        shuffled = MultiPoly([names[i] for i in order],
                             {tuple(exp[i] for i in order): c for exp, c in terms.items()})
        assert p == shuffled and hash(p) == hash(shuffled)
        q = MultiPoly(*random_spec(rng))
        assert p + q == q + p and hash(p + q) == hash(q + p)
        assert p * q == q * p and hash(p * q) == hash(q * p)
        assert (p + q) - q == p and hash((p + q) - q) == hash(p)


def test_poly_terms_are_read_only():
    # terms is a read-only view, from the constructor and from arithmetic,
    # so no caller can change a polynomial's value or hash after the fact
    t, n = variables("t", "n")
    built = MultiPoly(("t",), {(2,): 1})
    for p in [built, t * t, t + n, -t, MultiPoly.const(5)]:
        value, key = MultiPoly._of(dict(p.terms)), hash(p)
        with pytest.raises(TypeError):
            p.terms[()] = 5
        with pytest.raises(TypeError):
            del p.terms[next(iter(p.terms))]
        assert p == value and hash(p) == key == hash(value)


def test_poly_repeated_name_adds_its_powers():
    t, n = variables("t", "n")
    p = MultiPoly(("t", "n", "t"), {(1, 1, 2): 3, (0, 0, 1): -1, (1, 0, 0): 1})
    assert p == 3 * t ** 3 * n and hash(p) == hash(3 * t ** 3 * n)
    assert p.vars == ("n", "t")
    assert MultiPoly(("t", "t"), {(1, 0): 2, (0, 1): -2}) == 0
    with pytest.raises(ValueError):
        MultiPoly(("t", "t"), {(1,): 1})



# S (x) T as the package's algebra over an algebra: S[y]/(y^2 - sy + m) over
# S = Z[t, n, s, m][x]/(x^2 - tx + n).
INNER, TENSOR = _tensor_model()


def tensor_element(c11=0, cx1=0, c1y=0, cxy=0):
    """c11*1(x)1 + cx1*x(x)1 + c1y*1(x)y + cxy*x(x)y."""
    return TENSOR.element(INNER.element(c11, cx1), INNER.element(c1y, cxy))


def test_tensor_defining_relation():
    t, n = variables("t", "n")
    x1 = tensor_element(0, 1, 0, 0)
    assert x1 * x1 == tensor_element(-n, t, 0, 0)
    y1 = tensor_element(0, 0, 1, 0)
    assert x1 * y1 == tensor_element(0, 0, 0, 1)


def test_tensor_involution_on_basis():
    t, s = variables("t", "s")
    xy = tensor_element(0, 0, 0, 1)
    assert _swap(xy) == tensor_element(t * s, -s, -t, 1)
    one = tensor_element(1, 0, 0, 0)
    assert _swap(one) == one


def test_tensor_involution_is_ring_involution():
    rng = random.Random(11)
    t, n, s, m = variables("t", "n", "s", "m")
    gens = [MultiPoly.const(1), t, n, s, m]

    def random_elem():
        coeffs = []
        for _ in range(4):
            p = MultiPoly.const(rng.randint(-3, 3))
            p = p + rng.randint(-2, 2) * gens[rng.randrange(len(gens))]
            coeffs.append(p)
        return tensor_element(*coeffs)

    for _ in range(40):
        a, b = random_elem(), random_elem()
        assert _swap(_swap(a)) == a
        assert _swap(a * b) == _swap(a) * _swap(b)
        assert _swap(a + b) == _swap(a) + _swap(b)


def test_tensor_associativity_random_triples():
    rng = random.Random(23)
    t, n, s, m = variables("t", "n", "s", "m")
    gens = [MultiPoly.const(1), t, n, s, m]

    def random_elem():
        return tensor_element(*[rng.randint(-2, 2) * gens[rng.randrange(len(gens))]
                                for _ in range(4)])

    for _ in range(50):
        a, b, c = random_elem(), random_elem(), random_elem()
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_fixed_element_is_fixed():
    xy = tensor_element(0, 0, 0, 1)
    z = xy + _swap(xy)
    assert _swap(z) == z


def test_all_identities_pass():
    results = verify_all()
    assert len(results) == 7
    for r in results:
        assert r.passed, r.name
    assert [r.name for r in results] == IDENTITY_NAMES


def test_verify_all_term_counts():
    assert [tuple(r) for r in verify_all()] == [
        ("disc-multiplicativity", True, 4, 4),
        ("star-associativity", True, 8, 8),
        ("change-of-basis-functoriality", True, 13, 13),
        ("fixed-element-z-squared", True, 7, 7),
        ("wp-closure", True, 8, 8),
        ("as-action-norm", True, 3, 3),
        ("square-product", True, 6, 6),
    ]


def failing_identities():
    return {r.name for r in verify_all() if not r.passed}


def test_verifier_runs_the_package_algebra(monkeypatch):
    """A wrong formula in the package's own algebra fails the laws that
    rest on it, and only those."""
    assert failing_identities() == set()
    with monkeypatch.context() as patch:
        patch.setattr(QuadraticAlgebra, "disc",
                      lambda self: self.t * self.t - self.ring.element(2) * self.n)
        assert failing_identities() == {"disc-multiplicativity", "square-product",
                                        "as-action-norm"}
    with monkeypatch.context() as patch:
        def mul(self, other):
            other = self._coerce(other)
            t, n = self.algebra.t, self.algebra.n
            a, b, c, d = self.a, self.b, other.a, other.b
            return AlgebraElement(self.algebra, a * c - b * d * n,
                                  a * d + b * c - b * d * t)
        patch.setattr(AlgebraElement, "__mul__", mul)
        assert failing_identities() == {"change-of-basis-functoriality",
                                        "fixed-element-z-squared"}
    with monkeypatch.context() as patch:
        # x -> t + x in place of x -> t - x: no longer an involution.
        patch.setattr(AlgebraElement, "conjugate",
                      lambda self: AlgebraElement(
                          self.algebra, self.a + self.b * self.algebra.t, self.b))
        assert failing_identities() == {"fixed-element-z-squared"}
    assert failing_identities() == set()


def test_unknown_identity():
    with pytest.raises(KeyError):
        verify_named_identity("no-such-law")


# Independent plain-integer oracles for each identity, evaluated at random
# points; a canonicalization bug that let a false identity slip through the
# symbolic comparison would show up here.

def _star(t, n, s, m):
    return (s * t, m * t * t + n * s * s - 4 * n * m)


def _oracle_disc_multiplicativity(v):
    t, n, s, m = v["t"], v["n"], v["s"], v["m"]
    st, norm = _star(t, n, s, m)
    return st ** 2 - 4 * norm == (t * t - 4 * n) * (s * s - 4 * m)


def _oracle_star_associativity(v):
    t, n, s, m, p, q = (v[k] for k in "tnsmpq")
    return _star(*_star(t, n, s, m), p, q) == _star(t, n, *_star(s, m, p, q))


def _oracle_change_of_basis(v):
    u, w, r, q, tp, np_, sp, mp = (v[k] for k in
                                   ("u", "v", "r", "q", "tp", "np", "sp", "mp"))
    t = u * tp + 2 * r
    n = u * u * np_ + t * r - r * r
    s = w * sp + 2 * q
    m = w * w * mp + s * q - q * q
    trace, norm = _star(tp, np_, sp, mp)
    a, b = q * t + r * s - 2 * q * r, u * w
    lhs = (a * a - norm * b * b, 2 * a * b + trace * b * b)
    st = s * t
    big = m * t * t + n * s * s - 4 * n * m
    return lhs == (st * a - big, st * b)


def _tensor_mul_int(a, b, t, n, s, m):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - n * a1 * b1 - m * a2 * b2 + n * m * a3 * b3,
        a0 * b1 + a1 * b0 + t * a1 * b1 - m * (a2 * b3 + a3 * b2) - t * m * a3 * b3,
        a0 * b2 + a2 * b0 + s * a2 * b2 - n * (a1 * b3 + a3 * b1) - n * s * a3 * b3,
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1 + t * (a1 * b3 + a3 * b1)
        + s * (a2 * b3 + a3 * b2) + t * s * a3 * b3,
    )


def _oracle_fixed_element(v):
    t, n, s, m = v["t"], v["n"], v["s"], v["m"]
    z = (t * s, -s, -t, 2)
    z2 = _tensor_mul_int(z, z, t, n, s, m)
    big = m * t * t + n * s * s - 4 * n * m
    st = s * t
    rhs = (st * z[0] - big, st * z[1], st * z[2], st * z[3])
    return z2 == rhs


def _oracle_wp_closure(v):
    r, s = v["r"], v["s"]
    c = r + s + 2 * r * s
    return c + c * c == (r + r * r) + (s + s * s) + 4 * (r + r * r) * (s + s * s)


def _oracle_as_action_norm(v):
    t, n, m = v["t"], v["n"], v["m"]
    return m * t * t + n - 4 * n * m == n + (t * t - 4 * n) * m


def _oracle_square_product(v):
    t, n, w = v["t"], v["n"], v["w"]
    st, norm = _star(t, n, t, n)
    if st != t * t or norm != 2 * n * (t * t - 2 * n):
        return False
    if st ** 2 - 4 * norm != (t * t - 4 * n) ** 2:
        return False
    wo = w + 2 * n  # the shifted generator
    return wo * wo - st * wo + norm == w * w - (t * t - 4 * n) * w


ORACLES = {
    "disc-multiplicativity": (_oracle_disc_multiplicativity, "tnsm"),
    "star-associativity": (_oracle_star_associativity, "tnsmpq"),
    "change-of-basis-functoriality": (
        _oracle_change_of_basis, ["u", "v", "r", "q", "tp", "np", "sp", "mp"]),
    "fixed-element-z-squared": (_oracle_fixed_element, "tnsm"),
    "wp-closure": (_oracle_wp_closure, "rs"),
    "as-action-norm": (_oracle_as_action_norm, "tnm"),
    "square-product": (_oracle_square_product, "tnw"),
}


def test_identities_hold_at_random_integer_points():
    rng = random.Random(2026)
    assert set(ORACLES) == set(IDENTITY_NAMES)
    for name, (oracle, names) in ORACLES.items():
        assert verify_named_identity(name).passed
        for _ in range(100):
            point = {k: rng.randint(-10 ** 6, 10 ** 6) for k in names}
            assert oracle(point), (name, point)

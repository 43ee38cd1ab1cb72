import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrings import (FiniteCommMonoid, MonoidError, find_absorbing,
                       grothendieck_group, parse_ring, validate_monoid)
from quadrings import classify, quad_monoid
from quadrings.monoids import (AbelianGroup, find_monoid_violation,
                               require_valid_monoid)


def mult_monoid(n):
    """(Z/n, *) as an explicit table."""
    return FiniteCommMonoid([str(i) for i in range(n)],
                            [[(i * j) % n for j in range(n)] for i in range(n)],
                            1)


def add_monoid(n):
    """(Z/n, +) as an explicit table."""
    return FiniteCommMonoid([str(i) for i in range(n)],
                            [[(i + j) % n for j in range(n)] for i in range(n)],
                            0)


def trivial_monoid():
    return FiniteCommMonoid(["1"], [[0]], 0)


def klein_four():
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return FiniteCommMonoid(["0", "1", "2", "3"], table, 0)


SAMPLE_MONOIDS = [mult_monoid(2), mult_monoid(4), mult_monoid(6),
                  add_monoid(2), add_monoid(3), add_monoid(6),
                  trivial_monoid(), klein_four()]
BOOL_MULT = FiniteCommMonoid(["0", "1"], [[0, 0], [0, 1]], 1)


def test_validate_monoid():
    for m in SAMPLE_MONOIDS:
        assert validate_monoid(m)
    broken = FiniteCommMonoid(["e", "a"], [[0, 1], [1, 1]], 0)
    # a*a = a but table is not associative-violating; tweak to break commutativity
    broken2 = FiniteCommMonoid(["e", "a", "b"],
                               [[0, 1, 2], [1, 2, 0], [2, 1, 0]], 0)
    assert not validate_monoid(broken2)
    kind, witness = find_monoid_violation(broken2)
    assert kind in ("commutativity", "associativity")
    with pytest.raises(MonoidError):
        require_valid_monoid(broken2)
    assert validate_monoid(broken)


def monoid_violation_by_triples(m):
    """find_monoid_violation as the plain triple loop, kept as the oracle."""
    n, t, e = m.size, m.table, m.identity
    for x in range(n):
        if t[e][x] != x or t[x][e] != x:
            return ("identity", (e, x))
    for x in range(n):
        for y in range(x + 1, n):
            if t[x][y] != t[y][x]:
                return ("commutativity", (x, y))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if t[t[x][y]][z] != t[x][t[y][z]]:
                    return ("associativity", (x, y, z))
    return None


RELABELLED_MONOIDS = SAMPLE_MONOIDS + [f(k) for f in (mult_monoid, add_monoid)
                                       for k in range(2, 9)]


@st.composite
def small_tables(draw):
    """Tables on n <= 8 elements.  A monoid of SAMPLE_MONOIDS or (Z/n, +, *),
    relabelled by a permutation, is associative; with one symmetric pair of
    entries changed it mostly is not.  Tables with identity 0 and random
    other entries, symmetric or not, or with no structure at all, reach the
    associativity, commutativity and identity checks."""
    kind = draw(st.sampled_from(["monoid", "changed monoid", "commutative",
                                 "unital", "any"]))
    if kind in ("monoid", "changed monoid"):
        base = draw(st.sampled_from(RELABELLED_MONOIDS))
        n = base.size
        perm = draw(st.permutations(range(n)))
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[perm[i]][perm[j]] = perm[base.table[i][j]]
        e = perm[base.identity]
        others = [i for i in range(n) if i != e]
        if kind == "changed monoid" and others:
            i, j = draw(st.sampled_from(others)), draw(st.sampled_from(others))
            table[i][j] = table[j][i] = draw(st.integers(0, n - 1))
        return FiniteCommMonoid(range(n), table, e)
    n = draw(st.integers(1, 8))
    entry = st.integers(0, n - 1)
    if kind == "any":
        table = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=n, max_size=n))
        return FiniteCommMonoid(range(n), table, draw(entry))
    table = [list(range(n))] + [[i] + [draw(entry) for _ in range(1, n)]
                                for i in range(1, n)]
    if kind == "commutative":
        for i in range(n):
            for j in range(i):
                table[j][i] = table[i][j]
    return FiniteCommMonoid(range(n), table, 0)


@settings(max_examples=200, deadline=None)
@given(small_tables())
def test_monoid_violation_matches_triple_loop(m):
    assert find_monoid_violation(m) == monoid_violation_by_triples(m)


def monoid_violation_by_rows(m):
    """find_monoid_violation as a loop over the pairs (x, y), comparing row
    xy with row y mapped through row x; the oracle for the byte-row path."""
    n, t, e = m.size, m.table, m.identity
    for x in range(n):
        if t[e][x] != x or t[x][e] != x:
            return ("identity", (e, x))
    for x in range(n):
        for y in range(x + 1, n):
            if t[x][y] != t[y][x]:
                return ("commutativity", (x, y))
    for x in range(n):
        for y in range(n):
            row_xy, mapped = t[t[x][y]], [t[x][c] for c in t[y]]
            if row_xy != mapped:
                z = next(z for z in range(n) if row_xy[z] != mapped[z])
                return ("associativity", (x, y, z))
    return None


def error_text(m):
    try:
        require_valid_monoid(m)
    except MonoidError as exc:
        return str(exc)
    return None


def relabelled(m, perm, changes=()):
    """m with element i renamed perm[i], then with each (i, j, v) of changes
    written to entries (i, j) and (j, i)."""
    n = m.size
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[m.table[i][j]]
    for i, j, v in changes:
        table[i][j] = table[j][i] = v
    return FiniteCommMonoid(range(n), table, perm[m.identity])


@st.composite
def mid_tables(draw):
    """Relabelled (Z/n, +) or (Z/n, *) for 9 <= n <= 40, with up to two
    symmetric pairs of entries changed."""
    n = draw(st.integers(9, 40))
    base = draw(st.sampled_from([add_monoid, mult_monoid]))(n)
    perm = draw(st.permutations(range(n)))
    entry = st.integers(0, n - 1)
    changes = draw(st.lists(st.tuples(entry, entry, entry), max_size=2))
    return relabelled(base, perm, changes)


@settings(max_examples=60, deadline=None)
@given(mid_tables())
def test_byte_rows_match_row_loop(m):
    want = monoid_violation_by_rows(m)
    assert find_monoid_violation(m) == want
    assert error_text(m) == (None if want is None else
                             f"{want[0]} fails at "
                             f"{tuple(m.labels[i] for i in want[1])}")


@pytest.mark.parametrize("n", [200, 256, 257, 300])
def test_associativity_witness_on_both_sides_of_256(n):
    # n <= 256 compares byte rows, n > 256 loops over rows; at 256 the
    # translation table is row x itself, with no padding.
    rng = random.Random(n)
    perm = list(range(n))
    rng.shuffle(perm)
    base = add_monoid(n)
    good = relabelled(base, perm)
    assert find_monoid_violation(good) is None
    assert error_text(good) is None
    others = [k for k in range(n) if k != good.identity]
    for _ in range(3):
        i, j = rng.choice(others), rng.choice(others)
        v = (good.table[i][j] + 1 + rng.randrange(n - 1)) % n
        broken = relabelled(base, perm, [(i, j, v)])
        want = monoid_violation_by_rows(broken)
        assert want[0] == "associativity"
        assert find_monoid_violation(broken) == want
        assert want == monoid_violation_by_triples(broken)
        labels = tuple(broken.labels[k] for k in want[1])
        assert error_text(broken) == f"associativity fails at {labels}"


def test_range_check_names_the_first_bad_entry():
    for table, text in [([[0, 1], [1, 2]], "table entry (1,1) out of range: 2"),
                        ([[0, -1], [5, 1]], "table entry (0,1) out of range: -1")]:
        with pytest.raises(MonoidError) as exc:
            FiniteCommMonoid(["a", "b"], table, 0)
        assert str(exc.value) == text


def test_copy_is_equal_and_aliases_nothing():
    m = FiniteCommMonoid(["e", "a", "0"], [[0, 1, 2], [1, 1, 2], [2, 2, 2]], 0)
    c = m.copy()
    assert type(c) is FiniteCommMonoid and c == m and c is not m
    assert c.labels is not m.labels
    assert c.table is not m.table
    assert all(x is not y for x, y in zip(c.table, m.table))
    c.labels[0], c.table[0][0], c.identity = "x", 2, 1
    assert m.labels[0] == "e" and m.table[0][0] == 0 and m.identity == 0


def test_table_checks_carry_witnesses():
    cases = [
        ((["a", "b", "a"], [[0] * 3] * 3, 0), {"kind": "labels", "labels": ["a"]}),
        ((["a", "b"], [[0, 1], [1]], 0),
         {"kind": "shape", "row_lengths": [2, 1]}),
        ((["a", "b"], [[0, 1], [1, 2]], 0),
         {"kind": "range", "indices": [1, 1], "value": 2}),
        ((["a", "b"], [[0, 1], [1, 1]], 2), {"kind": "identity", "indices": [2]}),
    ]
    for args, witness in cases:
        with pytest.raises(MonoidError) as exc:
            FiniteCommMonoid(*args)
        assert exc.value.witness == witness


def test_require_valid_monoid_witness_names_kind_indices_and_labels():
    broken = FiniteCommMonoid(["e", "a", "b"],
                              [[0, 1, 2], [1, 2, 0], [2, 1, 0]], 0)
    kind, indices = find_monoid_violation(broken)
    with pytest.raises(MonoidError) as exc:
        require_valid_monoid(broken)
    assert exc.value.witness == {"kind": kind, "indices": list(indices),
                                 "labels": [broken.labels[i] for i in indices]}
    assert MonoidError("no witness").witness is None


def test_find_absorbing():
    m = mult_monoid(4)
    assert find_absorbing(m) == 0
    g = add_monoid(2)
    assert find_absorbing(g) is None
    assert find_absorbing(BOOL_MULT) == 0
    # 2 absorbs on its row but not on its column: 1*2 = 0
    one_sided = FiniteCommMonoid(["0", "1", "2"],
                                 NON_CONGRUENCE_TABLES["e does not commute"], 0)
    assert one_sided.table[2] == [2, 2, 2] and one_sided.table[1][2] == 0
    assert find_absorbing(one_sided) is None


def test_grothendieck_absorbing_direction():
    for m in SAMPLE_MONOIDS:
        if find_absorbing(m) is not None:
            assert grothendieck_group(m).is_trivial()


def assert_universal_map_is_hom(m, k0):
    # the identity goes to the identity, and products to products
    f, g = k0.universal_map, k0.monoid
    assert f[m.identity] == g.identity
    assert all(f[m.table[x][y]] == g.table[f[x]][f[y]]
               for x in range(m.size) for y in range(m.size))


def grothendieck_by_pairs(m):
    """Oracle: every pair against every class representative, then an n^4
    check that the class of a product is the product of the classes.  Its
    invariant factors are [] when the group is trivial, and None otherwise:
    grothendieck_group refuses those monoids, so they are not compared."""
    n = m.size
    t = m.table
    pairs = [(x, xp) for x in range(n) for xp in range(n)]

    def related(p, q):
        x, xp = p
        y, yp = q
        a = t[x][yp]
        b = t[xp][y]
        return any(t[a][z] == t[b][z] for z in range(n))

    class_of = {}
    reps = []
    for p in pairs:
        for c, r in enumerate(reps):
            if related(r, p):
                class_of[p] = c
                break
        else:
            class_of[p] = len(reps)
            reps.append(p)

    labels = [f"[{m.labels[x]},{m.labels[xp]}]" for x, xp in reps]
    table = [[class_of[(t[x][y], t[xp][yp])] for y, yp in reps]
             for x, xp in reps]
    group = FiniteCommMonoid(labels, table, class_of[(m.identity, m.identity)])
    for p in pairs:
        for q in pairs:
            prod = (t[p[0]][q[0]], t[p[1]][q[1]])
            if class_of[prod] != table[class_of[p]][class_of[q]]:
                raise MonoidError("Grothendieck relation is not a congruence")
    universal = [class_of[(x, m.identity)] for x in range(n)]
    return AbelianGroup(group, [] if group.size == 1 else None, universal)


NO_ABSORBING = {"kind": "no absorbing element"}


def assert_k0_matches_oracle(m):
    got = grothendieck_group(m)
    want = grothendieck_by_pairs(m)
    assert got.monoid.labels == want.monoid.labels
    assert got.monoid.table == want.monoid.table
    assert got.monoid.identity == want.monoid.identity
    assert got.invariant_factors == want.invariant_factors
    assert got.universal_map == want.universal_map
    return got


def cyclic_with_tail(k, p):
    """<a | a^(k+p) = a^k>: elements a^0 .. a^(k+p-1)."""
    size = k + p

    def reduce(i):
        return i if i < size else k + (i - k) % p

    return FiniteCommMonoid([f"a{i}" for i in range(size)],
                            [[reduce(i + j) for j in range(size)]
                             for i in range(size)], 0)


def unit_group(m):
    """(Z/m)^x under multiplication, for m > 1."""
    units = [u for u in range(m) if gcd(u, m) == 1]
    pos = {u: k for k, u in enumerate(units)}
    return FiniteCommMonoid(units, [[pos[u * v % m] for v in units] for u in units],
                            pos[1])


def direct_product(a, b):
    nb = b.size
    labels = [f"({la},{lb})" for la in a.labels for lb in b.labels]
    table = [[a.table[i // nb][j // nb] * nb + b.table[i % nb][j % nb]
              for j in range(a.size * nb)] for i in range(a.size * nb)]
    return FiniteCommMonoid(labels, table, a.identity * nb + b.identity)


UNIT_GROUPS = [unit_group(q) for q in (3, 5, 7, 8, 12)]
QUOTIENT_RINGS = ["Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^2)", "Z/4[x]/(x^2)"]


def test_grothendieck_matches_pair_oracle_on_quad_monoids():
    for spec in [f"Z/{n}" for n in range(1, 25)] + QUOTIENT_RINGS:
        ring = parse_ring(spec)
        k0 = assert_k0_matches_oracle(quad_monoid(ring, classify(ring)))
        assert k0.is_trivial(), spec


def assert_refused_exactly_where_k0_is_not_trivial(m):
    """grothendieck_group equals the pair oracle where the oracle's K0 is
    trivial, and raises MonoidError naming the missing absorbing element
    where it is not; returns whether it refused."""
    if grothendieck_by_pairs(m).is_trivial():
        assert_universal_map_is_hom(m, assert_k0_matches_oracle(m))
        return False
    with pytest.raises(MonoidError) as exc:
        grothendieck_group(m)
    assert exc.value.witness == NO_ABSORBING
    return True


# name -> (monoid, whether grothendieck_group refuses it).  The monoids with
# a zero have trivial K0; the groups are their own K0, which is not trivial.
K0_CASES = {
    **{f"(Z/{n}, *)": (mult_monoid(n), False) for n in (2, 4, 6)},
    "trivial": (trivial_monoid(), False),
    "({0, 1}, *)": (BOOL_MULT, False),
    **{f"(Z/{n}, +)": (add_monoid(n), True) for n in (2, 3, 6)},
    "Klein four": (klein_four(), True),
    **{f"(Z/{q})^x": (unit_group(q), True) for q in (4, 3, 5, 7, 8, 12)},
}


@pytest.mark.parametrize("name", K0_CASES)
def test_grothendieck_refuses_exactly_where_k0_is_not_trivial(name):
    m, refused = K0_CASES[name]
    assert assert_refused_exactly_where_k0_is_not_trivial(m) == refused
    if refused:
        assert grothendieck_by_pairs(m).order == m.size


@st.composite
def monoids_with_nontrivial_k0(draw):
    k = draw(st.integers(0, 3))
    p = draw(st.integers(2, 5))
    m = cyclic_with_tail(k, p)
    other = draw(st.sampled_from(["none", "add", "units", "tail"]))
    room = 24 // m.size
    if other == "none":
        return m
    if other == "add":
        return direct_product(m, add_monoid(draw(st.integers(2, room))))
    if other == "units":
        return direct_product(m, draw(st.sampled_from(
            [g for g in UNIT_GROUPS if g.size <= room])))
    return direct_product(m, cyclic_with_tail(draw(st.integers(0, 1)), 2))


@settings(max_examples=60, deadline=None)
@given(monoids_with_nontrivial_k0())
def test_grothendieck_refuses_tailed_products(m):
    assert validate_monoid(m)
    assert assert_refused_exactly_where_k0_is_not_trivial(m)


# Tables with identity 0 that are not monoids, and whose Grothendieck
# relation is not a congruence.  broken2 is the one of test_validate_monoid;
# none has an absorbing element.
NON_CONGRUENCE_TABLES = {
    "broken2": [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
    # e, f, g are all idempotent and f*g = e: none lies below the others
    "no least idempotent": [[0, 1, 2], [1, 1, 0], [2, 0, 2]],
    "e does not commute": [[0, 1, 2], [1, 2, 0], [2, 2, 2]],
    "eM not associative": [[0, 1, 2], [1, 2, 0], [2, 0, 0]],
    # e = 3 and eM = {2, 3}, but 2*2 = 0
    "eM not closed": [[0, 1, 2, 3], [1, 3, 0, 3], [2, 0, 0, 2], [3, 3, 2, 3]],
    "x -> e*x not multiplicative": [[0, 1, 2, 3], [1, 1, 2, 1],
                                    [2, 2, 2, 3], [3, 1, 3, 2]],
    # the symmetric group S3: eM = M is a group, but not an abelian one
    "eM not commutative": [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3],
                           [2, 3, 0, 1, 5, 4], [3, 2, 5, 4, 0, 1],
                           [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]],
}


@pytest.mark.parametrize("name", sorted(NON_CONGRUENCE_TABLES))
def test_grothendieck_rejects_non_congruence_tables(name):
    table = NON_CONGRUENCE_TABLES[name]
    m = FiniteCommMonoid([str(i) for i in range(len(table))], table, 0)
    with pytest.raises(MonoidError, match="not a congruence"):
        grothendieck_by_pairs(m)
    with pytest.raises(MonoidError, match="absorbing element") as exc:
        grothendieck_group(m)
    assert exc.value.witness == NO_ABSORBING


# Not a monoid; the pair-by-pair test happens to accept it and returns the
# trivial group, but no element absorbs, so grothendieck_group refuses it.
E_NOT_IDENTITY_OF_EM = [[1, 2, 1], [2, 1, 1], [2, 1, 1]]


def test_grothendieck_rejects_table_where_e_is_not_the_identity_of_eM():
    m = FiniteCommMonoid(["0", "1", "2"], E_NOT_IDENTITY_OF_EM, 1)
    assert grothendieck_by_pairs(m).is_trivial()
    with pytest.raises(MonoidError, match="absorbing element") as exc:
        grothendieck_group(m)
    assert exc.value.witness == NO_ABSORBING


@st.composite
def tables_with_an_absorbing_element(draw):
    """A table with an absorbing element z and arbitrary other entries,
    associative or not, and any identity index."""
    n = draw(st.integers(1, 8))
    z = draw(st.integers(0, n - 1))
    table = [[z if z in (x, y) else draw(st.integers(0, n - 1))
              for y in range(n)] for x in range(n)]
    return FiniteCommMonoid([str(i) for i in range(n)], table,
                            draw(st.integers(0, n - 1)))


@settings(max_examples=100, deadline=None)
@given(tables_with_an_absorbing_element())
def test_grothendieck_of_a_table_with_an_absorbing_element_is_trivial(m):
    # x*y'*z = z = x'*y*z for every pair: all pairs are related, whether
    # the table is associative or not, and every element maps to the one class
    k0 = grothendieck_group(m)
    assert k0.is_trivial()
    assert k0.monoid.table == [[0]] and k0.monoid.identity == 0
    assert k0.invariant_factors == []
    assert k0.universal_map == [0] * m.size


def test_json_round_trip():
    m = mult_monoid(4)
    data = m.to_json_dict()
    again = FiniteCommMonoid(data["elements"], data["table"], data["identity"])
    assert again == m
    assert data["identity"] == 1
    assert data["elements"] == ["0", "1", "2", "3"]

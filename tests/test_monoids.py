import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrings import (FiniteCommMonoid, MonoidError, find_absorbing,
                       grothendieck_group, parse_ring, validate_monoid)
from quadrings import classify, quad_monoid
from quadrings.monoids import (AbelianGroup, _invariant_factors, _minimal_ideal,
                               find_monoid_violation, require_valid_monoid)
from test_quadratic import rings_up_to


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
    bool_mult = FiniteCommMonoid(["0", "1"], [[0, 0], [0, 1]], 1)
    assert find_absorbing(bool_mult) == 0


def test_grothendieck_examples():
    assert grothendieck_group(mult_monoid(4)).is_trivial()
    k0 = grothendieck_group(add_monoid(3))
    assert k0.invariant_factors == [3]
    assert grothendieck_group(unit_group(4)).invariant_factors == [2]


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


def test_grothendieck_universal_map_is_hom():
    for m in SAMPLE_MONOIDS:
        assert_universal_map_is_hom(m, grothendieck_group(m))


def test_grothendieck_of_group_is_itself():
    k0 = grothendieck_group(klein_four())
    assert k0.invariant_factors == [2, 2]
    assert k0.order == 4
    k0 = grothendieck_group(add_monoid(6))
    assert k0.invariant_factors == [6]


def grothendieck_by_pairs(m):
    """Oracle: every pair against every class representative, then an n^4
    check that the class of a product is the product of the classes."""
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
    return AbelianGroup(group, _invariant_factors(group), universal)


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


def test_grothendieck_matches_pair_oracle_on_samples():
    bool_mult = FiniteCommMonoid(["0", "1"], [[0, 0], [0, 1]], 1)
    for m in SAMPLE_MONOIDS + [bool_mult, unit_group(8), unit_group(4)]:
        assert_k0_matches_oracle(m)


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
def test_grothendieck_matches_pair_oracle_on_tailed_products(m):
    assert validate_monoid(m)
    k0 = assert_k0_matches_oracle(m)
    assert not k0.is_trivial()
    assert_universal_map_is_hom(m, k0)


def grothendieck_by_key_scan(m):
    """The scan grothendieck_group made before it kept to first
    representatives: every pair (x, x') by its key psi(x) * psi(x')^-1,
    n^2 keys, classes numbered in order of first appearance."""
    e, inverse = _minimal_ideal(m)
    t = m.table
    psi = t[e]

    def key(x, xp):
        return t[psi[x]][inverse[psi[xp]]]

    class_of, reps = {}, []
    for x in range(m.size):
        for xp in range(m.size):
            if key(x, xp) not in class_of:
                class_of[key(x, xp)] = len(reps)
                reps.append((x, xp))
    labels = [f"[{m.labels[x]},{m.labels[xp]}]" for x, xp in reps]
    table = [[class_of[key(t[x][y], t[xp][yp])] for y, yp in reps]
             for x, xp in reps]
    group = FiniteCommMonoid(labels, table, class_of[key(m.identity, m.identity)])
    universal = [class_of[key(x, m.identity)] for x in range(m.size)]
    return AbelianGroup(group, _invariant_factors(group), universal)


def assert_k0_matches_key_scan(m):
    got, want = grothendieck_group(m), grothendieck_by_key_scan(m)
    assert got.monoid == want.monoid
    assert got.invariant_factors == want.invariant_factors
    assert got.universal_map == want.universal_map


def test_grothendieck_matches_key_scan_on_quad_monoids_up_to_27():
    for ring in rings_up_to(27):
        assert_k0_matches_key_scan(quad_monoid(ring, classify(ring)))


@settings(max_examples=60, deadline=None)
@given(mid_tables())
def test_grothendieck_matches_key_scan_on_mid_tables(m):
    if validate_monoid(m):
        assert_k0_matches_key_scan(m)


# Tables with identity 0 that are not monoids.  broken2 is the one of
# test_validate_monoid; each of the others fails exactly one of the checks
# that stand in for the pair-by-pair congruence test.
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


# The witness grothendieck_group gives each table: the check that failed
# first and where.  broken2's e is 0, so eM = M, and (1*1)*1 != 1*(1*1).
NON_CONGRUENCE_WITNESSES = {
    "broken2": {"kind": "eM associativity", "indices": [1, 1, 1]},
    "no least idempotent": {"kind": "least idempotent", "indices": [0, 1, 2]},
    "e does not commute": {"kind": "centrality", "indices": [2, 1]},
    "eM not associative": {"kind": "eM associativity", "indices": [1, 1, 2]},
    "eM not closed": {"kind": "eM closure", "indices": [2, 2]},
    "x -> e*x not multiplicative": {"kind": "multiplicativity", "indices": [1, 3]},
    "eM not commutative": {"kind": "eM commutativity", "indices": [1, 2]},
}


@pytest.mark.parametrize("name", sorted(NON_CONGRUENCE_TABLES))
def test_grothendieck_rejects_non_congruence_tables(name):
    table = NON_CONGRUENCE_TABLES[name]
    m = FiniteCommMonoid([str(i) for i in range(len(table))], table, 0)
    with pytest.raises(MonoidError, match="not a congruence"):
        grothendieck_by_pairs(m)
    with pytest.raises(MonoidError, match="not a congruence") as exc:
        grothendieck_group(m)
    assert exc.value.witness == NON_CONGRUENCE_WITNESSES[name]


def test_grothendieck_names_the_pair_that_leaves_eM():
    m = FiniteCommMonoid(["0", "1", "2", "3"], NON_CONGRUENCE_TABLES["eM not closed"], 0)
    with pytest.raises(MonoidError) as exc:
        grothendieck_group(m)
    assert str(exc.value) == ("Grothendieck relation is not a congruence: "
                              "eM closure fails at ('2', '2')")


# Not a monoid; the pair-by-pair test happens to accept it (and returns the
# trivial group), but e*e*x != e*x here, so eM has no identity.
E_NOT_IDENTITY_OF_EM = [[1, 2, 1], [2, 1, 1], [2, 1, 1]]


def test_grothendieck_rejects_table_where_e_is_not_the_identity_of_eM():
    m = FiniteCommMonoid(["0", "1", "2"], E_NOT_IDENTITY_OF_EM, 1)
    assert grothendieck_by_pairs(m).is_trivial()
    with pytest.raises(MonoidError, match="not a congruence") as exc:
        grothendieck_group(m)
    assert exc.value.witness == {"kind": "eM identity", "indices": [1, 2]}


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
    # z is the least idempotent and eM = {z}, where e(xy) = e = (ex)(ey):
    # no check can fail, and every element maps to the one class
    k0 = grothendieck_group(m)
    assert k0.is_trivial()
    assert k0.monoid.table == [[0]] and k0.monoid.identity == 0
    assert k0.invariant_factors == []
    assert k0.universal_map == [0] * m.size


def witness_breaks_its_check(t, kind, indices):
    """Whether `indices` show, from the table alone, the failure `kind` names."""
    n = len(t)
    idempotents = [x for x in range(n) if t[x][x] == x]
    if kind == "least idempotent":
        return indices == idempotents and not any(
            all(t[f][g] == f for g in idempotents) for f in idempotents)
    if kind in ("centrality", "eM identity"):
        e, x = indices
        assert t[e][e] == e and all(t[e][g] == e for g in idempotents)
        return t[x][e] != t[e][x] if kind == "centrality" else t[e][x] != x
    e = next(f for f in idempotents if all(t[f][g] == f for g in idempotents))
    em = set(t[e])
    if kind == "multiplicativity":
        x, y = indices
        return t[e][t[x][y]] != t[t[e][x]][t[e][y]]
    assert all(a in em for a in indices)
    if kind == "eM closure":
        a, b = indices
        return t[a][b] not in em
    if kind == "eM commutativity":
        a, b = indices
        return t[a][b] != t[b][a]
    if kind == "eM associativity":
        a, b, c = indices
        return t[t[a][b]][c] != t[a][t[b][c]]
    if kind == "eM inverses":
        (a,) = indices
        return all(t[a][b] != e for b in em)
    raise AssertionError(f"unknown kind {kind!r}")


@pytest.mark.parametrize("name", sorted(NON_CONGRUENCE_TABLES) + ["e not the identity of eM"])
def test_non_congruence_witness_breaks_the_check_it_names(name):
    # read the failure back off the table, without _minimal_ideal
    table = NON_CONGRUENCE_TABLES.get(name, E_NOT_IDENTITY_OF_EM)
    identity = 1 if table is E_NOT_IDENTITY_OF_EM else 0
    m = FiniteCommMonoid([str(i) for i in range(len(table))], table, identity)
    with pytest.raises(MonoidError, match="not a congruence") as exc:
        grothendieck_group(m)
    witness = exc.value.witness
    assert witness_breaks_its_check(table, witness["kind"], witness["indices"])


def test_json_round_trip():
    m = mult_monoid(4)
    data = m.to_json_dict()
    again = FiniteCommMonoid(data["elements"], data["table"], data["identity"])
    assert again == m
    assert data["identity"] == 1
    assert data["elements"] == ["0", "1", "2", "3"]

"""Finite commutative monoids as explicit operation tables.

Provides validation with a witness for the first failing axiom, the
absorbing element, and the Grothendieck group with its invariant factors.
Validation and the absorbing element are exhaustive: the monoids in this
package have at most a few hundred elements.  The Grothendieck group is
read off the minimal ideal eM, where e is the least idempotent, in
O(n^2 + |eM|^3) table lookups; when eM is one element, as in every monoid
with an absorbing element, in O(n) beyond the search for e.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import MonoidError


class FiniteCommMonoid:
    """Explicit finite commutative monoid: labels, operation table, identity index."""

    def __init__(self, labels, table, identity: int):
        self.labels = [str(x) for x in labels]
        self.table = [list(row) for row in table]
        self.identity = identity
        if len(set(self.labels)) != len(self.labels):
            repeated = [x for k, x in enumerate(self.labels) if x in self.labels[:k]]
            raise MonoidError("element labels must be distinct",
                              {"kind": "labels", "labels": repeated[:1]})
        n = len(self.labels)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise MonoidError("operation table must be square of size |elements|",
                              {"kind": "shape", "row_lengths": list(map(len, self.table))})
        if not set().union(*self.table) <= set(range(n)):
            for i, row in enumerate(self.table):
                for j, v in enumerate(row):
                    if not (0 <= v < n):
                        raise MonoidError(
                            f"table entry ({i},{j}) out of range: {v}",
                            {"kind": "range", "indices": [i, j], "value": v})
        if not (0 <= identity < n):
            raise MonoidError(f"identity index out of range: {identity}",
                              {"kind": "identity", "indices": [identity]})

    def copy(self) -> FiniteCommMonoid:
        """A new monoid over copies of labels and table, which were checked
        when this one was built and are not checked again."""
        new = object.__new__(FiniteCommMonoid)
        new.labels = self.labels[:]
        new.table = [row[:] for row in self.table]
        new.identity = self.identity
        return new

    @property
    def size(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        return (isinstance(other, FiniteCommMonoid)
                and self.labels == other.labels
                and self.table == other.table
                and self.identity == other.identity)

    def __repr__(self):
        return f"FiniteCommMonoid({self.size} elements, identity={self.labels[self.identity]!r})"

    def to_json_dict(self) -> dict:
        return {"elements": list(self.labels),
                "table": [list(row) for row in self.table],
                "identity": self.identity}


def find_monoid_violation(m: FiniteCommMonoid):
    """First failing axiom as (kind, witness indices), or None.

    Commutativity compares row x with column x: the pairs (x, y) with y < x
    passed at row y, so the first difference is the least y > x.
    Associativity is checked a row at a time: (xy)z = x(yz) for every z says
    that row xy is row y mapped through row x.  For n <= 256 the rows are
    bytes, and all of x's rows are compared at once, the rows xy laid end to
    end against the whole table translated through row x; the first
    differing byte k gives (y, z) = divmod(k, n).  Above 256 each row y is an
    itemgetter, which maps row x through it as one tuple.  Either way the
    witness is the first (x, y, z) in lexicographic order.
    """
    n = m.size
    t = m.table
    e = m.identity
    for x in range(n):
        if t[e][x] != x or t[x][e] != x:
            return ("identity", (e, x))
    for x, column in enumerate(zip(*t)):
        if tuple(t[x]) != column:
            y = next(y for y in range(x + 1, n) if t[x][y] != t[y][x])
            return ("commutativity", (x, y))
    if n <= 256:
        rows = [bytes(row) for row in t]
        flat, pad = b"".join(rows), bytes(256 - n)
        for x in range(n):
            left = b"".join([rows[v] for v in t[x]])
            right = flat.translate(rows[x] + pad)
            if left != right:
                k = next(k for k in range(n * n) if left[k] != right[k])
                return ("associativity", (x, *divmod(k, n)))
        return None
    rows = [tuple(row) for row in t]
    gets = [operator.itemgetter(*row) for row in t]
    for x in range(n):
        row_x = t[x]
        for y in range(n):
            row_xy = rows[row_x[y]]
            mapped = gets[y](row_x)
            if row_xy != mapped:
                z = next(z for z in range(n) if row_xy[z] != mapped[z])
                return ("associativity", (x, y, z))
    return None


def validate_monoid(m: FiniteCommMonoid) -> bool:
    return find_monoid_violation(m) is None


def require_valid_monoid(m: FiniteCommMonoid) -> None:
    bad = find_monoid_violation(m)
    if bad is not None:
        kind, witness = bad
        labels = tuple(m.labels[i] for i in witness)
        raise MonoidError(f"{kind} fails at {labels}", {
            "kind": kind, "indices": list(witness), "labels": list(labels)})


def find_absorbing(m: FiniteCommMonoid):
    """Index of the absorbing element, or None; a monoid has at most one."""
    for z in range(m.size):
        if all(m.table[z][x] == z for x in range(m.size)):
            return z
    return None


@dataclass
class AbelianGroup:
    """A finite abelian group with its invariant-factor decomposition.

    ``monoid`` is the group table, ``invariant_factors`` is the ascending
    chain d1 | d2 | ... (empty for the trivial group), and ``universal_map``
    sends each element of the original monoid to its class.
    """

    monoid: FiniteCommMonoid
    invariant_factors: list[int]
    universal_map: list[int]

    @property
    def order(self) -> int:
        return self.monoid.size

    def is_trivial(self) -> bool:
        return self.monoid.size == 1


def grothendieck_group(m: FiniteCommMonoid) -> AbelianGroup:
    """Universal group of a finite commutative monoid, through its minimal ideal.

    K0 is the set of pairs (x, x') modulo (x, x') ~ (y, y') iff
    x*y'*z = x'*y*z for some z; the class of (x, 1) is the image of x.  Let e
    be the least idempotent, the one with e*g = e for every idempotent g.
    Then K = eM is a group with identity e, and a*z = b*z for some z iff
    e*a = e*b.  So the class of (x, x') is psi(x) * psi(x')^-1 in K, where
    psi(x) = e*x, and K0 is K.  Classes are numbered, and represented, by
    their first pair in lexicographic order.  The class of (x, x') depends
    on psi(x) and psi(x') alone, so that first pair is made of elements
    that are each the first with their value of psi: only those |eM|^2
    pairs are scanned.  If the monoid has an absorbing element, that
    element is e and the result is trivial.
    """
    e, inverse = _minimal_ideal(m)
    t = m.table
    psi = t[e]

    def key(x, xp):
        return t[psi[x]][inverse[psi[xp]]]

    firsts: dict[int, int] = {}    # psi(x) -> the first x with that value
    for x, a in enumerate(psi):
        firsts.setdefault(a, x)
    class_of: dict[int, int] = {}
    reps: list[tuple[int, int]] = []
    for x in firsts.values():
        for xp in firsts.values():
            k = key(x, xp)
            if k not in class_of:
                class_of[k] = len(reps)
                reps.append((x, xp))

    labels = [f"[{m.labels[x]},{m.labels[xp]}]" for x, xp in reps]
    table = [[class_of[key(t[x][y], t[xp][yp])] for y, yp in reps]
             for x, xp in reps]
    group = FiniteCommMonoid(labels, table, class_of[key(m.identity, m.identity)])
    factors = _invariant_factors(group)
    universal = [class_of[key(x, m.identity)] for x in range(m.size)]
    return AbelianGroup(group, factors, universal)


def _minimal_ideal(m: FiniteCommMonoid):
    """(least idempotent e, inverse of each element of eM).

    Raises MonoidError unless e exists, commutes with every element, eM is
    an abelian group under the table with identity e, and x -> e*x is
    multiplicative.  These make (x, x') -> e*x * (e*x')^-1 a homomorphism
    M x M -> eM, which is what makes the Grothendieck relation a
    congruence.  The error's witness names the first check that failed and
    where: "least idempotent" lists the idempotents, none of which is below
    all the others; "centrality" is (e, x) with x*e != e*x; "eM identity"
    is (e, a) with e*a != a; "eM closure" and "eM commutativity" are (a, b);
    "eM associativity" is (a, b, c); "eM inverses" is (a); and
    "multiplicativity" is (x, y) with e*(x*y) != (e*x)*(e*y).
    """
    n = m.size
    t = m.table
    idempotents = [x for x in range(n) if t[x][x] == x]
    least = [f for f in idempotents if all(t[f][g] == f for g in idempotents)]
    if not least:
        raise _not_a_congruence(m, "least idempotent", idempotents)
    e = least[0]
    psi, column = t[e], [row[e] for row in t]
    if column != psi:
        x = next(x for x in range(n) if column[x] != psi[x])
        raise _not_a_congruence(m, "centrality", [e, x])
    group = sorted(set(psi))
    members = set(group)
    inverse: dict[int, int] = {}
    for a in group:
        row = t[a]
        if psi[a] != a:
            raise _not_a_congruence(m, "eM identity", [e, a])
        for b in group:
            ab = row[b]
            if ab not in members:
                raise _not_a_congruence(m, "eM closure", [a, b])
            if ab != t[b][a]:
                raise _not_a_congruence(m, "eM commutativity", [a, b])
            c = next((c for c in group if t[ab][c] != row[t[b][c]]), None)
            if c is not None:
                raise _not_a_congruence(m, "eM associativity", [a, b, c])
            if ab == e:
                inverse.setdefault(a, b)
        # Not reached once the checks above pass for a; kept as a guard.
        # Closure and the associativity of (a, b, c) for b, c in eM keep the
        # powers of a in eM with a^i * a^j = a^(i+j), and c = e with
        # centrality gives e * a^i = a^i.  Some power a^k is idempotent, so
        # the least-idempotent check gives e * a^k = e: a^k = e, and
        # a^(k-1) (e when k = 1) is an inverse of a in eM.
        if a not in inverse:
            raise _not_a_congruence(m, "eM inverses", [a])
    for x in range(n if len(group) > 1 else 0):    # else e(xy) = e = (ex)(ey)
        ex = t[psi[x]]
        got, want = [psi[xy] for xy in t[x]], [ex[a] for a in psi]
        if got != want:
            y = next(y for y in range(n) if got[y] != want[y])
            raise _not_a_congruence(m, "multiplicativity", [x, y])
    return e, inverse


def _not_a_congruence(m: FiniteCommMonoid, kind: str, indices) -> MonoidError:
    labels = tuple(m.labels[i] for i in indices)
    return MonoidError(f"Grothendieck relation is not a congruence: {kind} fails at {labels}",
                       {"kind": kind, "indices": list(indices)})


def _element_order(m: FiniteCommMonoid, x: int) -> int:
    k = 1
    acc = x
    while acc != m.identity:
        acc = m.table[acc][x]
        k += 1
    return k


def _invariant_factors(group: FiniteCommMonoid) -> list[int]:
    """Invariant factors by repeatedly splitting off a maximal-order cyclic piece."""
    if group.size == 1:
        return []
    orders = [_element_order(group, x) for x in range(group.size)]
    top = max(orders)
    gen = orders.index(top)
    # Cosets of the cyclic subgroup generated by `gen`.
    cyclic = set()
    acc = group.identity
    for _ in range(top):
        cyclic.add(acc)
        acc = group.table[acc][gen]
    seen: dict[int, int] = {}
    reps: list[int] = []
    for x in range(group.size):
        if x in seen:
            continue
        c = len(reps)
        reps.append(x)
        for h in cyclic:
            seen[group.table[x][h]] = c
    table = [[seen[group.table[i][j]] for j in reps] for i in reps]
    quotient = FiniteCommMonoid([str(i) for i in range(len(reps))], table,
                                seen[group.identity])
    return _invariant_factors(quotient) + [top]

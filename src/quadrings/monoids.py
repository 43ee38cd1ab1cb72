"""Finite commutative monoids as explicit operation tables.

Provides validation with a witness for the first failing axiom, the
absorbing element, and the Grothendieck group K0.  Validation and the
absorbing element are exhaustive: the monoids in this package have at most
a few hundred elements.  K0 is read off the absorbing element, which makes
it trivial, in O(n^2) table lookups; a monoid with no absorbing element is
refused with MonoidError.
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
    """Index of the two-sided absorbing element, z*x = x*z = z for every x,
    or None; a table has at most one."""
    t = m.table
    for z, row in enumerate(t):
        if all(v == z for v in row) and all(r[z] == z for r in t):
            return z
    return None


@dataclass
class AbelianGroup:
    """The group K0 that ``grothendieck_group`` reads off a monoid's
    absorbing element: always trivial, since a monoid with no absorbing
    element is refused with MonoidError.

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
    """Universal group K0 of a commutative monoid with an absorbing element.

    K0 is the set of pairs (x, x') modulo (x, x') ~ (y, y') iff
    x*y'*z = x'*y*z for some z.  If z is absorbing, both sides are z, so
    every pair is related and K0 is the trivial group: its one class is
    labelled by the first pair, [l0,l0], and every element maps to it.
    Only the absorbing element is looked for; the table is not validated.
    A table with no two-sided absorbing element raises MonoidError with
    witness {"kind": "no absorbing element"}: for a finite commutative
    monoid, K0 is trivial exactly when such an element exists, and every
    monoid this package builds has one.
    """
    if find_absorbing(m) is None:
        raise MonoidError("K0 is read off the absorbing element, and this monoid has none",
                          {"kind": "no absorbing element"})
    first = m.labels[0]
    group = FiniteCommMonoid([f"[{first},{first}]"], [[0]], 0)
    return AbelianGroup(group, [], [0] * m.size)

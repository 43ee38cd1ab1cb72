"""Independent arithmetic for the `queries` oracles.

Nothing here imports quadrings.  Finite rings are Z/n (values are ints) or
(Z/n)[x]/(f) with f monic (values are coefficient tuples c0..c_{d-1}, the
same canonical form the package uses), so oracle values compare directly with
`RingElement.value`.
"""

from __future__ import annotations

from itertools import product


class FiniteRing:
    """Brute-force tables for one small ring: units, R[4], 4R, witnesses."""

    def __init__(self, spec: str, n: int, modulus: tuple[int, ...] | None = None):
        self.spec = spec
        self.n = n
        self.modulus = modulus  # low-to-high coefficients of monic f, or None
        if modulus is None:
            self.elements = list(range(n))
        else:
            deg = len(modulus) - 1
            self.elements = [tuple(reversed(rev))
                             for rev in product(range(n), repeat=deg)]
        self.zero = self.lift(0)
        self.one = self.lift(1)
        self.units = [a for a in self.elements
                      if any(self.mul(a, b) == self.one for b in self.elements)]
        self.unit_set = set(self.units)
        self.four_torsion = [a for a in self.elements
                             if self.mul(self.lift(4), a) == self.zero]
        four_r = {self.mul(self.lift(4), b) for b in self.elements}
        two_r = {self.mul(self.lift(2), b) for b in self.elements}
        # Canonical representative of t + 2R: least member in enumeration order.
        rep2 = {t: min((self.add(t, w) for w in two_r), key=self.sort_key)
                for t in self.elements}
        self.disc_witness = {}
        for d in self.elements:
            reps = {rep2[t] for t in self.elements
                    if self.sub(self.mul(t, t), d) in four_r}
            self.disc_witness[d] = min(reps, key=self.sort_key) if reps else None

    def lift(self, k: int):
        if self.modulus is None:
            return k % self.n
        deg = len(self.modulus) - 1
        return tuple([k % self.n] + [0] * (deg - 1))

    def sort_key(self, a):
        return a if self.modulus is None else tuple(reversed(a))

    def add(self, a, b):
        if self.modulus is None:
            return (a + b) % self.n
        return tuple((x + y) % self.n for x, y in zip(a, b))

    def sub(self, a, b):
        if self.modulus is None:
            return (a - b) % self.n
        return tuple((x - y) % self.n for x, y in zip(a, b))

    def mul(self, a, b):
        if self.modulus is None:
            return a * b % self.n
        f = self.modulus
        deg = len(f) - 1
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for k in range(len(conv) - 1, deg - 1, -1):
            lead = conv[k]
            for i in range(deg + 1):
                conv[k - deg + i] -= lead * f[i]
        return tuple(c % self.n for c in conv[:deg])

    def disc(self, t, n):
        return self.sub(self.mul(t, t), self.mul(self.lift(4), n))

    def act(self, u, r, t, n):
        """Basis change x -> u(x + r): (u(t + 2r), u^2(n + tr + r^2))."""
        t2 = self.mul(u, self.add(t, self.mul(self.lift(2), r)))
        inner = self.add(self.add(n, self.mul(t, r)), self.mul(r, r))
        return t2, self.mul(self.mul(u, u), inner)

    def unit_square_class(self, d):
        return {self.mul(self.mul(u, u), d) for u in self.units}


def z_disc_witness(d: int):
    """Least t in {0, 1} with t^2 = d mod 4, or None (d is then no discriminant)."""
    for t in (0, 1):
        if (t * t - d) % 4 == 0:
            return t
    return None


def z_sec_element(t: int) -> bool:
    """An integer is sec iff it is nonzero and not divisible by 4."""
    return t != 0 and t % 4 != 0

"""Exact arithmetic in commutative rings.

Three kinds of ring are supported: the integers Z (arbitrary precision),
modular rings Z/n, and quotient polynomial rings (Z/n)[x]/(f) with f monic.
Elements carry a canonical representative, so equality is representational
and enumeration order is fixed (lexicographic on canonical representatives,
constant coefficient least significant).  All values are immutable.
"""

from __future__ import annotations

import math
import re
from itertools import product

from .errors import (EnumerationLimitError, InfiniteRingError, MixedRingError,
                     RingParseError)

MAX_ENUMERATION = 2 ** 20    # the most items one enumeration may list


def require_enumerable(count: int, what: str) -> None:
    """Refuse, before any work, to list more than MAX_ENUMERATION items."""
    if count > MAX_ENUMERATION:
        raise EnumerationLimitError(f"{what}: {count} items exceed the "
                                    f"enumeration budget of {MAX_ENUMERATION}")


class Ring:
    """Base class; concrete rings implement arithmetic on canonical values."""

    is_finite = False

    def element(self, value) -> RingElement:
        return RingElement(self, self.canonicalize(value))

    @property
    def zero(self) -> RingElement:
        return self.element(0)

    @property
    def one(self) -> RingElement:
        return self.element(1)

    def canonicalize(self, value):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def sort_key(self, value):
        raise NotImplementedError

    @property
    def size(self) -> int:
        raise InfiniteRingError("ring is infinite")

    def elements(self) -> list[RingElement]:
        """All elements, each exactly once, in canonical order."""
        raise InfiniteRingError("enumeration requires a finite ring")

    # The finite-ring kernel.  Each concrete ring answers these from its own
    # structure in closed form; none scans the ring to answer for one element.

    def units(self) -> list[RingElement]:
        """The invertible elements, in canonical order (finite rings only)."""
        if not self.is_finite:
            raise InfiniteRingError(
                "units() requires a finite ring; use is_unit for single elements"
            )
        return [a for a in self.elements() if self.is_unit(a)]

    def is_unit(self, a: RingElement) -> bool:
        raise NotImplementedError

    def inverse_of_unit(self, a: RingElement) -> RingElement:
        raise NotImplementedError

    def is_nonzerodivisor(self, a: RingElement) -> bool:
        """True iff a*b = 0 forces b = 0.

        In a finite ring this is is_unit: if multiplication by a is
        injective it is a bijection, so some b has a*b = 1.
        """
        return self.is_unit(a)

    def in_principal_ideal(self, a: RingElement, t: RingElement) -> bool:
        """Decide a in tR."""
        raise NotImplementedError

    def coset_representative(self, a: RingElement, k: int) -> RingElement:
        """Canonical representative of a + kR."""
        raise NotImplementedError

    def _check_mine(self, a: RingElement) -> None:
        if a.ring != self:
            raise MixedRingError(f"element of {a.ring!r} used in {self!r}")

    def spec_string(self) -> str:
        raise NotImplementedError

    def element_text(self, value) -> str:
        return str(value)

    def __repr__(self):
        return self.spec_string()


class IntegerRing(Ring):
    """The ring of integers with arbitrary-precision arithmetic."""

    is_finite = False

    def canonicalize(self, value):
        if isinstance(value, RingElement):
            self._check_mine(value)
            return value.value
        return int(value)

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def sort_key(self, value):
        return value

    def is_unit(self, a: RingElement) -> bool:
        self._check_mine(a)
        return a.value in (1, -1)

    def inverse_of_unit(self, a: RingElement) -> RingElement:
        if not self.is_unit(a):
            raise ValueError(f"{a!r} is not a unit")
        return a

    def is_nonzerodivisor(self, a: RingElement) -> bool:
        self._check_mine(a)
        return a.value != 0

    def in_principal_ideal(self, a: RingElement, t: RingElement) -> bool:
        self._check_mine(a)
        self._check_mine(t)
        if t.value == 0:
            return a.value == 0
        return a.value % t.value == 0

    def coset_representative(self, a: RingElement, k: int) -> RingElement:
        """a mod k, the canonical representative of a + kZ."""
        self._check_mine(a)
        return RingElement(self, a.value % k)

    def spec_string(self) -> str:
        return "Z"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")


class ModRing(Ring):
    """Z/n with least nonnegative residues as canonical representatives."""

    is_finite = True

    def __init__(self, n: int):
        if n < 1:
            raise RingParseError(f"modulus must be >= 1, got {n}")
        self.n = n

    def canonicalize(self, value):
        if isinstance(value, RingElement):
            self._check_mine(value)
            return value.value
        return int(value) % self.n

    def _add(self, a, b):
        return (a + b) % self.n

    def _mul(self, a, b):
        return (a * b) % self.n

    def _neg(self, a):
        return (-a) % self.n

    def sort_key(self, value):
        return value

    @property
    def size(self) -> int:
        return self.n

    def elements(self) -> list[RingElement]:
        require_enumerable(self.n, f"elements of {self!r}")
        return [RingElement(self, v) for v in range(self.n)]

    # Closed forms via gcd: Z/n is never enumerated, so these stay cheap for
    # moduli far too large to list.

    def is_unit(self, a: RingElement) -> bool:
        """a is a unit iff gcd(a, n) = 1."""
        self._check_mine(a)
        return math.gcd(a.value, self.n) == 1

    def inverse_of_unit(self, a: RingElement) -> RingElement:
        if not self.is_unit(a):
            raise ValueError(f"{a!r} is not a unit")
        return RingElement(self, pow(a.value, -1, self.n))

    def in_principal_ideal(self, a: RingElement, t: RingElement) -> bool:
        """a in tR iff a = 0 mod gcd(t, n), since tR = gcd(t, n)R."""
        self._check_mine(a)
        self._check_mine(t)
        return a.value % math.gcd(t.value, self.n) == 0

    def coset_representative(self, a: RingElement, k: int) -> RingElement:
        """Least member of a + kR: a mod gcd(k, n), since kR = gcd(k, n)R."""
        self._check_mine(a)
        return RingElement(self, a.value % math.gcd(k, self.n))

    def spec_string(self) -> str:
        return f"Z/{self.n}"

    def __eq__(self, other):
        return isinstance(other, ModRing) and self.n == other.n

    def __hash__(self):
        return hash(("Z/", self.n))


class QuotientPolyRing(Ring):
    """(Z/n)[x]/(f) for monic f, elements as reduced coefficient vectors.

    The canonical representative of an element is the tuple (c0, ..., c_{d-1})
    of coefficients mod n, d = deg f.  Enumeration counts with c0 as the least
    significant digit, so Z/2[x]/(x^2+x+1) lists 0, 1, x, x+1.
    """

    is_finite = True

    def __init__(self, n: int, modulus):
        if n < 1:
            raise RingParseError(f"modulus must be >= 1, got {n}")
        coeffs = [c % n for c in modulus]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise RingParseError(
                "quotient modulus must be monic of degree >= 1 after reduction mod n"
            )
        self.n = n
        self.modulus = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self._inverses: dict | None = None

    def canonicalize(self, value):
        if isinstance(value, RingElement):
            self._check_mine(value)
            return value.value
        if isinstance(value, int):
            return self._reduce([value])
        return self._reduce(list(value))

    def _reduce(self, coeffs: list) -> tuple:
        c = [int(v) % self.n for v in coeffs]
        d = self.degree
        for k in range(len(c) - 1, d - 1, -1):
            lead = c[k]
            if lead:
                for i in range(d + 1):
                    c[k - d + i] = (c[k - d + i] - lead * self.modulus[i]) % self.n
        c = c[:d]
        c.extend([0] * (d - len(c)))
        return tuple(c)

    def _add(self, a, b):
        return tuple((x + y) % self.n for x, y in zip(a, b))

    def _mul(self, a, b):
        conv = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return self._reduce(conv)

    def _neg(self, a):
        return tuple((-x) % self.n for x in a)

    def sort_key(self, value):
        return tuple(reversed(value))

    @property
    def size(self) -> int:
        return self.n ** self.degree

    def elements(self) -> list[RingElement]:
        require_enumerable(self.size, f"elements of {self!r}")
        out = []
        for rev in product(range(self.n), repeat=self.degree):
            out.append(RingElement(self, tuple(reversed(rev))))
        return out

    def _inverse_table(self) -> dict:
        """Unit -> inverse on canonical values, built on first use per ring.

        Walks the powers a, a^2, ... of each element not yet placed.  A walk
        that reaches a known unit p = a^k (at first only 1 is known) makes
        each a^i with i < k a unit with inverse a^(k-i) p^-1.  A walk that reaches a known
        non-unit or repeats itself makes them all non-units: a power of a
        non-unit is never a unit, and the powers of a unit come back to 1
        before they repeat.  Each element is placed by one walk, so the table
        costs at most 2|R| products.
        """
        if self._inverses is None:
            one = self.one.value
            inverses = {one: one}
            nonunits = set()
            for e in self.elements():
                a = e.value
                if a in inverses or a in nonunits:
                    continue
                chain, walked = [a], {a}    # chain[i] = a^(i+1)
                p = self._mul(a, a)
                while p not in inverses and p not in nonunits and p not in walked:
                    chain.append(p)
                    walked.add(p)
                    p = self._mul(p, a)
                if p in inverses:
                    k, q = len(chain) + 1, inverses[p]
                    for i, c in enumerate(chain, 1):
                        inverses[c] = self._mul(chain[k - i - 1], q)
                else:
                    nonunits |= walked
            self._inverses = inverses
        return self._inverses

    def is_unit(self, a: RingElement) -> bool:
        """A lookup in the unit table of this ring instance."""
        self._check_mine(a)
        return a.value in self._inverse_table()

    def inverse_of_unit(self, a: RingElement) -> RingElement:
        self._check_mine(a)
        inverse = self._inverse_table().get(a.value)
        if inverse is None:
            raise ValueError(f"{a!r} is not a unit")
        return RingElement(self, inverse)

    def in_principal_ideal(self, a: RingElement, t: RingElement) -> bool:
        """a in tR: always when t is a unit, since then tR = R; otherwise
        decided by listing the multiples of t."""
        self._check_mine(a)
        self._check_mine(t)
        return self.is_unit(t) or any(t * b == a for b in self.elements())

    def coset_representative(self, a: RingElement, k: int) -> RingElement:
        """Least member of a + kR: each coefficient mod gcd(k, n), since
        additively R = (Z/n)^d and kR = (gcd(k, n) Z/n)^d."""
        self._check_mine(a)
        g = math.gcd(k, self.n)
        return RingElement(self, tuple(c % g for c in a.value))

    def spec_string(self) -> str:
        return f"Z/{self.n}[x]/({format_poly(self.modulus)})"

    def element_text(self, value) -> str:
        return format_poly(value)

    def __eq__(self, other):
        return (isinstance(other, QuotientPolyRing)
                and self.n == other.n and self.modulus == other.modulus)

    def __hash__(self):
        return hash(("Z/[x]", self.n, self.modulus))


class RingElement:
    """An immutable ring element in canonical form; equality is representational."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("ring elements are immutable")

    def _coerce(self, other) -> RingElement:
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise MixedRingError(
                    f"mixed rings: {self.ring!r} and {other.ring!r}"
                )
            return other
        return self.ring.element(other)

    def __add__(self, other):
        other = self._coerce(other)
        return RingElement(self.ring, self.ring._add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return RingElement(self.ring, self.ring._mul(self.value, other.value))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.value))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.ring == other.ring and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.value))

    def sort_key(self):
        return self.ring.sort_key(self.value)

    def __str__(self):
        return self.ring.element_text(self.value)

    def __repr__(self):
        return f"{self} in {self.ring!r}"

    def to_json(self):
        """int for Z and Z/n, list of coefficients for quotient polynomial rings."""
        if isinstance(self.value, tuple):
            return list(self.value)
        return self.value


_MOD_RE = re.compile(r"^Z/(\d+)$")
_QUOT_RE = re.compile(r"^Z/(\d+)\[x\]/\((.+)\)$")
_TERM_RE = re.compile(r"^([+-]?)(\d+)?\*?(x(?:\^(\d+))?)?$")


def parse_poly(text: str) -> list[int]:
    """Parse a polynomial in x ("x^2+3x+1", "2*x^3-1") into a coefficient list."""
    s = text.replace(" ", "")
    if not s:
        raise RingParseError("empty polynomial")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise RingParseError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for tok in tokens:
        m = _TERM_RE.match(tok)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise RingParseError(f"cannot parse term {tok!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) is not None else 1
        if m.group(3) is None:
            deg = 0
        elif m.group(4) is not None:
            deg = int(m.group(4))
        else:
            deg = 1
        coeffs[deg] = coeffs.get(deg, 0) + sign * coeff
    top = max(coeffs)
    return [coeffs.get(i, 0) for i in range(top + 1)]


def format_poly(coeffs) -> str:
    """Canonical text for a coefficient vector, highest degree first."""
    parts = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        if deg == 0:
            parts.append(str(c))
        else:
            lead = "" if c == 1 else str(c)
            parts.append(f"{lead}x" if deg == 1 else f"{lead}x^{deg}")
    return "+".join(parts) if parts else "0"


def parse_ring(spec: str) -> Ring:
    """Parse a ring spec: "Z", "Z/<n>", or "Z/<n>[x]/(<monic poly in x>)"."""
    s = spec.replace(" ", "")
    if s == "Z":
        return IntegerRing()
    m = _MOD_RE.match(s)
    if m:
        n = int(m.group(1))
        if n == 0:
            raise RingParseError("modulus 0 is not allowed")
        return ModRing(n)
    m = _QUOT_RE.match(s)
    if m:
        n = int(m.group(1))
        if n == 0:
            raise RingParseError("modulus 0 is not allowed")
        return QuotientPolyRing(n, parse_poly(m.group(2)))
    raise RingParseError(
        f"cannot parse ring spec {spec!r}; expected \"Z\", \"Z/<n>\", "
        f"or \"Z/<n>[x]/(<monic poly in x>)\""
    )


# Module-level conveniences mirroring the element/ring methods.

def enumerate_elements(ring: Ring) -> list[RingElement]:
    return ring.elements()


def units(ring: Ring) -> list[RingElement]:
    return ring.units()


def is_unit(a: RingElement) -> bool:
    return a.ring.is_unit(a)


def is_nonzerodivisor(a: RingElement) -> bool:
    return a.ring.is_nonzerodivisor(a)


def ideal_membership(a: RingElement, t: RingElement) -> bool:
    """Decide a in tR."""
    return a.ring.in_principal_ideal(a, t)

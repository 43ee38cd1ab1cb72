"""Exact arithmetic in commutative rings.

Three kinds of ring are supported: the integers Z (arbitrary precision),
modular rings Z/n, and quotient polynomial rings (Z/n)[x]/(f) with f monic.
Elements carry a canonical representative, so equality is representational
and enumeration order is fixed (lexicographic on canonical representatives,
constant coefficient least significant).  All values are immutable.

Units, inverses, nonzerodivisors, principal-ideal membership and coset
representatives are methods of the ring.  Any Ring subclass that defines
canonicalize, _add, _mul and _neg gets RingElement arithmetic, and with it
the quadratic-algebra code: the symbolic verifier runs that code over
integer polynomials this way.

Most queries are a few ring operations on a ring that was just parsed, so
the fixed cost of one operation is kept low.  An operand that is an element
of the identical ring instance is used as it is; anything else (an element
of an equal ring, an int, a coefficient list) goes through canonicalize,
which keeps the exactness check (TypeError on non-integers) and raises
MixedRingError for another ring.  canonicalize takes an int, and a list of
d coefficients, reduced mod n alone.  (Z/n)[x]/(f) reduces a product's
convolution, and any longer coefficient list, by synthetic division by the
monic f (unrolled for d = 2).  A parse builds no table, so one cold query
costs the parse and its ring operations: a star product seven products,
an AS action four, a discriminant test one product per residue mod 2R.
An isomorphism test over a finite ring costs |R| additions and one product
per unit, plus u^2 for a unit whose trace equation has a solution and two
products per solution, after the unit table of a quotient ring (at most
2|R| products).  Nothing is cached on a ring but canonical values, so a
ring holds no element and no reference to itself, and a pickle or copy of
it leaves its caches behind.

Each finite ring instance has one Kernel, built on first use by
ring.kernel(): its elements as int codes, the value -> code map, the codes
of t^2 and -4n, the norm map 4n -> [n], the root table t^2 -> [t], the
unit squares, and add rows code(x_c + x_k) that need no ring operation.
classify, the star table, the AS group and the fiber reports all read it,
and the disc classes and the AS group are kept in its derived slot once
built.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from functools import cached_property
from itertools import product

from .errors import (EnumerationLimitError, InfiniteRingError, MixedRingError,
                     RingParseError)

MAX_ENUMERATION = 2 ** 20    # the most items one enumeration may list


def _exact(value) -> int:
    """value as an int; anything else (a float, a Fraction) is a TypeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"ring values must be integers, got {value!r}") from None


def require_enumerable(count: int, what, *args) -> None:
    """Refuse, before any work, to list more than MAX_ENUMERATION items;
    what(*args), called only then, names them.  A count of more than 64
    bits is stated as the power of 2 below it, since its decimal digits
    could run to thousands or past int-to-str's limit."""
    if count > MAX_ENUMERATION:
        bits = count.bit_length()
        size = count if bits <= 64 else f"at least 2^{bits - 1}"
        raise EnumerationLimitError(f"{what(*args)}: {size} items exceed the "
                                    f"enumeration budget of {MAX_ENUMERATION}")


def _listing_text(ring, k: int) -> str:
    """What Ring._residue_values(k) lists, for an enumeration error."""
    if k == 0:
        return f"elements of {ring!r}"
    return f"residues mod {k}R of {ring!r}"


class Ring:
    """Base class; concrete rings implement arithmetic on canonical values."""

    is_finite = False
    _kernel = None
    _caches = ("_kernel",)    # built on first use, and left out of pickles

    def element(self, value) -> RingElement:
        if isinstance(value, RingElement) and value.ring is self:
            return value
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

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _inverse(self, a):
        """The inverse of the canonical value a of a unit."""
        raise NotImplementedError

    def sort_key(self, value):
        raise NotImplementedError

    def __getstate__(self):
        """What a pickle or copy of the ring keeps: its defining data, not
        the caches named in _caches, which the copy rebuilds on first use."""
        caches = self._caches
        return {k: v for k, v in self.__dict__.items() if k not in caches}

    @property
    def size(self) -> int:
        raise InfiniteRingError("ring is infinite")

    def elements(self) -> list[RingElement]:
        """All elements, each exactly once, in canonical order."""
        raise InfiniteRingError("enumeration requires a finite ring")

    def _values(self) -> list:
        """The canonical values of elements(), in the same order."""
        return self._residue_values(0)

    def _residue_values(self, k: int) -> list:
        """The canonical value of each least member of a coset of kR, in
        canonical order: one per residue mod kR, every element for k = 0."""
        raise InfiniteRingError("enumeration requires a finite ring")

    def kernel(self) -> Kernel:
        """The int-coded Kernel of this finite ring instance, built on first
        use and kept; an infinite ring raises InfiniteRingError."""
        if self._kernel is None:
            self._kernel = Kernel(self)
        return self._kernel

    # Units, inverses and ideals.  Each concrete ring answers these from its
    # own structure in closed form; none scans the ring for one element.

    def units(self) -> list[RingElement]:
        """The invertible elements, in canonical order (finite rings only)."""
        return [RingElement(self, v) for v in self._unit_values()]

    def _unit_values(self) -> list:
        """The canonical values of units(), in the same order."""
        raise InfiniteRingError(
            "units() requires a finite ring; use is_unit for single elements"
        )

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
        """Canonical representative of a + kR: its least member over a
        finite ring, a mod |k| over Z; a itself when k = 0."""
        self._check_mine(a)
        return RingElement(self, self._coset_rep(a.value, k))

    def _coset_rep(self, a, k: int):
        """coset_representative on canonical values."""
        raise NotImplementedError

    def _check_mine(self, a: RingElement) -> None:
        if a.ring is not self and a.ring != self:
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
        if type(value) is int:
            return value
        if isinstance(value, RingElement):
            self._check_mine(value)
            return value.value
        return _exact(value)

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _sub(self, a, b):
        return a - b

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

    def _coset_rep(self, a, k: int):
        """a mod |k|, the canonical representative of a + kZ; a itself
        when k = 0, since 0Z = {0}."""
        return a % abs(k) if k else a

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
        if type(value) is int:
            return value % self.n
        if isinstance(value, RingElement):
            self._check_mine(value)
            return value.value
        return _exact(value) % self.n

    def _add(self, a, b):
        return (a + b) % self.n

    def _mul(self, a, b):
        return (a * b) % self.n

    def _neg(self, a):
        return (-a) % self.n

    def _sub(self, a, b):
        return (a - b) % self.n

    def _inverse(self, a):
        return pow(a, -1, self.n)

    def sort_key(self, value):
        return value

    @property
    def size(self) -> int:
        return self.n

    def elements(self) -> list[RingElement]:
        return [RingElement(self, v) for v in self._values()]

    def _residue_values(self, k: int) -> list:
        """0, ..., gcd(k, n) - 1, since kR = gcd(k, n)R."""
        g = math.gcd(k, self.n)
        require_enumerable(g, _listing_text, self, k)
        return list(range(g))

    def _unit_values(self) -> list:
        n = self.n
        return [v for v in self._values() if math.gcd(v, n) == 1]

    # Closed forms via gcd: Z/n is never enumerated, so these stay cheap for
    # moduli far too large to list.

    def is_unit(self, a: RingElement) -> bool:
        """a is a unit iff gcd(a, n) = 1."""
        self._check_mine(a)
        return math.gcd(a.value, self.n) == 1

    def inverse_of_unit(self, a: RingElement) -> RingElement:
        if not self.is_unit(a):
            raise ValueError(f"{a!r} is not a unit")
        return RingElement(self, self._inverse(a.value))

    def in_principal_ideal(self, a: RingElement, t: RingElement) -> bool:
        """a in tR iff a = 0 mod gcd(t, n), since tR = gcd(t, n)R."""
        self._check_mine(a)
        self._check_mine(t)
        return a.value % math.gcd(t.value, self.n) == 0

    def _coset_rep(self, a, k: int):
        """Least member of a + kR: a mod gcd(k, n), since kR = gcd(k, n)R."""
        return a % math.gcd(k, self.n)

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
    _inverses = None    # the unit table, per instance once built
    _caches = Ring._caches + ("_inverses",)

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
        self.degree = d = len(coeffs) - 1
        # x^d mod f = -(f_0 + f_1 x + ... + f_(d-1) x^(d-1)), and the d - 1
        # zero coefficients above the constant of an int
        self._x_d = tuple([(-c) % n for c in coeffs[:d]])
        self._pad = (0,) * (d - 1)

    def canonicalize(self, value):
        """An int, or a list or tuple of d coefficients, is reduced mod n
        alone; a longer or shorter one goes through _reduce."""
        if type(value) is int:
            return (value % self.n,) + self._pad
        if isinstance(value, RingElement):
            self._check_mine(value)
            return value.value
        if isinstance(value, (list, tuple)):
            if len(value) == self.degree:
                n = self.n
                return tuple([_exact(c) % n for c in value])
            return self._reduce([_exact(c) for c in value])
        return self._reduce([_exact(value)])

    def _reduce(self, coeffs: list) -> tuple:
        """Integer coefficients, constant first and of any length, reduced
        mod f and n by synthetic division by the monic f from the top: c x^k
        with k >= d becomes c x^(k-d) (x^d mod f), with c taken mod n first.
        The list coeffs is consumed."""
        d, n, x_d = self.degree, self.n, self._x_d
        if len(coeffs) < d:
            coeffs = coeffs + [0] * (d - len(coeffs))
        for k in range(len(coeffs) - d - 1, -1, -1):
            c = coeffs.pop() % n
            if c:
                for i, r in enumerate(x_d, k):
                    coeffs[i] += c * r
        return tuple([c % n for c in coeffs])

    def _add(self, a, b):
        n = self.n
        return tuple([(x + y) % n for x, y in zip(a, b)])

    def _sub(self, a, b):
        n = self.n
        return tuple([(x - y) % n for x, y in zip(a, b)])

    def _mul(self, a, b):
        """The convolution of a and b, reduced by _reduce."""
        d, n, x_d = self.degree, self.n, self._x_d
        if d == 2:    # the same, unrolled: one division step
            (a0, a1), (b0, b1), (f0, f1) = a, b, x_d
            top = a1 * b1 % n
            return (a0 * b0 + top * f0) % n, (a0 * b1 + a1 * b0 + top * f1) % n
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    conv[j] += x * y
        return self._reduce(conv)

    def _neg(self, a):
        n = self.n
        return tuple([(-x) % n for x in a])

    def sort_key(self, value):
        return tuple(reversed(value))

    @property
    def size(self) -> int:
        return self.n ** self.degree

    def elements(self) -> list[RingElement]:
        return [RingElement(self, v) for v in self._values()]

    def _residue_values(self, k: int) -> list:
        """Each coefficient below g = gcd(k, n), since additively
        kR = (g Z/n)^d."""
        g = math.gcd(k, self.n)
        require_enumerable(g ** self.degree, _listing_text, self, k)
        return [rev[::-1] for rev in product(range(g), repeat=self.degree)]

    def _unit_values(self) -> list:
        inverses = self._inverse_table()
        return [v for v in self._values() if v in inverses]

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
            one = self.canonicalize(1)
            inverses = {one: one}
            nonunits = set()
            for a in self._values():
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

    def _inverse(self, a):
        return self._inverse_table()[a]

    def in_principal_ideal(self, a: RingElement, t: RingElement) -> bool:
        """a in tR: always when t is a unit, since then tR = R; otherwise
        decided by listing the multiples of t."""
        self._check_mine(a)
        self._check_mine(t)
        return self.is_unit(t) or any(t * b == a for b in self.elements())

    def _coset_rep(self, a, k: int):
        """Least member of a + kR: each coefficient mod gcd(k, n), since
        additively R = (Z/n)^d and kR = (gcd(k, n) Z/n)^d."""
        g = math.gcd(k, self.n)
        return tuple([c % g for c in a])

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
        _set_ring(self, ring)
        _set_value(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("ring elements are immutable")

    def __reduce__(self):
        return RingElement, (self.ring, self.value)

    def _coerce(self, other) -> RingElement:
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise MixedRingError(
                    f"mixed rings: {self.ring!r} and {other.ring!r}"
                )
            return other
        return self.ring.element(other)

    # An operand of the identical ring needs no _coerce; any other goes
    # through it, which checks an equal ring and canonicalizes the rest.

    def __add__(self, other):
        ring = self.ring
        if type(other) is not RingElement or other.ring is not ring:
            other = self._coerce(other)
        return RingElement(ring, ring._add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        ring = self.ring
        if type(other) is not RingElement or other.ring is not ring:
            other = self._coerce(other)
        return RingElement(ring, ring._sub(self.value, other.value))

    def __rsub__(self, other):
        other = self._coerce(other)
        return RingElement(self.ring, self.ring._sub(other.value, self.value))

    def __mul__(self, other):
        ring = self.ring
        if type(other) is not RingElement or other.ring is not ring:
            other = self._coerce(other)
        return RingElement(ring, ring._mul(self.value, other.value))

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
            return ((self.ring is other.ring or self.ring == other.ring)
                    and self.value == other.value)
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


# The slots' own setters: __init__ fills them without going through the
# blocked __setattr__ or object.__setattr__'s lookup by name.
_set_ring = RingElement.ring.__set__
_set_value = RingElement.value.__set__

_RING_RE = re.compile(r"^Z/([0-9]+)(?:\[x\]/\((.+)\))?$")
# A "*" only between a coefficient and x: "3*" and "*x" are malformed.
_TERM_RE = re.compile(r"^([+-]?)([0-9]+)?(?:(?<=[0-9])\*(?=x))?(x(?:\^([0-9]+))?)?$")
_TOKEN_RE = re.compile(r"[+-]?[^+-]+")
_INT_RE = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str, field: str) -> int:
    """The integer that text writes in ASCII digits after an optional sign.

    Anything else is a RingParseError, and so are more digits than int()
    converts (sys.get_int_max_str_digits(), where set); that refusal names
    field and the digit count, never the digits.  A ring spec's own grammar
    keeps signs out of its numbers.
    """
    if not _INT_RE.fullmatch(text):
        raise RingParseError(f"{field} {text!r} is not an integer")
    try:
        return int(text)
    except ValueError:    # over the limit, which int() checks before any work
        raise RingParseError(
            f"{field} has {len(text.lstrip('+-'))} digits, more than the "
            f"interpreter's limit of {sys.get_int_max_str_digits()} "
            f"(PYTHONINTMAXSTRDIGITS)"
        ) from None


def parse_poly(text: str) -> list[int]:
    """Parse a polynomial in x ("x^2+3x+1", "2*x^3-1") into a coefficient list."""
    s = text.replace(" ", "")
    if not s:
        raise RingParseError("empty polynomial")
    tokens = _TOKEN_RE.findall(s)
    if "".join(tokens) != s:
        raise RingParseError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for tok in tokens:
        m = _TERM_RE.match(tok)
        sign, digits, x, power = m.groups() if m else (None, None, None, None)
        if digits is None and x is None:
            raise RingParseError(f"cannot parse term {tok!r} in {text!r}")
        coeff = 1 if digits is None else parse_int(digits, "coefficient")
        deg = 0 if x is None else 1 if power is None else parse_int(power, "exponent")
        coeffs[deg] = coeffs.get(deg, 0) + (-coeff if sign == "-" else coeff)
    top = max(coeffs)
    require_enumerable(top + 1, lambda: f"coefficients of {text!r}")
    dense = [0] * (top + 1)
    for deg, c in coeffs.items():
        dense[deg] = c
    return dense


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
    m = _RING_RE.match(s)
    if not m:
        raise RingParseError(
            f"cannot parse ring spec {spec!r}; expected \"Z\", \"Z/<n>\", "
            f"or \"Z/<n>[x]/(<monic poly in x>)\""
        )
    n = parse_int(m.group(1), "modulus")
    if n == 0:
        raise RingParseError("modulus 0 is not allowed")
    return ModRing(n) if m.group(2) is None else QuotientPolyRing(n, parse_poly(m.group(2)))


class Kernel:
    """The int-coded tables of one finite ring instance, which Ring.kernel()
    builds on first use and keeps.

    The code of an element is its index in ring.elements(): the value itself
    for Z/n, and c_0 + c_1 n + ... + c_(d-1) n^(d-1) for (Z/n)[x]/(f).  Both
    kinds enumerate in sort_key order, so codes sort like sort keys, and the
    code pair (t, n) sorts like (t.sort_key(), n.sort_key()).  Additively
    R is (Z/n)^d, so x -> x_c + x and x -> k*x act on the digits of a code
    one by one: add_row and multiple_row are built from digit maps with no
    ring operation.  Ring products fill only the table of t^2 (|R|) and the
    unit squares; the norm map and the root table group those tables by
    value on first read.  derived is the slot where the discriminants and
    artin_schreier modules keep their per-ring tables, filled on first use.
    The kernel holds ints, canonical values and strings, never the ring or
    an object over it, so the ring stays free of reference cycles.
    """

    def __init__(self, ring: Ring):
        self.values = values = ring._values()
        self.code = code = {v: i for i, v in enumerate(values)}
        n, mul = ring.n, ring._mul
        self._ints = ints = list(range(len(values)))
        self._places = [[ints[j * n ** i] for j in range(n)]
                        for i in range(getattr(ring, "degree", 1))]
        self._rows: list = [None] * len(values)
        self.square = [code[mul(t, t)] for t in values]
        self.units = [code[u] for u in ring._unit_values()]
        self.unit_squares = [values[s]
                             for s in sorted({self.square[u] for u in self.units})]
        self.derived: dict = {}

    def _digitwise(self, digit_maps: list) -> list[int]:
        """The code table of the additive map that sends digit j of place i
        to digit_maps[i][j], each given as its value at that place."""
        ints, row = self._ints, digit_maps[0]
        for high in digit_maps[1:]:
            row = [ints[h + low] for h in high for low in row]
        return row

    def add_row(self, c: int) -> list[int]:
        """code(x_c + x_k) for every code k, built on first use and kept:
        each digit of c rotates its place."""
        row = self._rows[c]
        if row is None:
            maps, rest = [], c
            for place in self._places:
                rest, j = divmod(rest, len(place))
                maps.append(place[j:] + place[:j])
            row = self._rows[c] = self._digitwise(maps)
        return row

    def add_code(self, a: int, b: int) -> int:
        """code(x_a + x_b), digit by digit, with no row built."""
        n = len(self._places[0])
        if len(self._places) == 1:
            return (a + b) % n
        total, scale = 0, 1
        for _ in self._places:
            a, i = divmod(a, n)
            b, j = divmod(b, n)
            total += (i + j) % n * scale
            scale *= n
        return total

    def multiple_row(self, k: int) -> list[int]:
        """code(k * x_c) for every code c."""
        n = len(self._places[0])
        return self._digitwise([[place[j * k % n] for j in range(n)]
                                for place in self._places])

    @cached_property
    def minus_four(self) -> list[int]:
        """code(-4 * x_c) for every code c."""
        return self.multiple_row(-4)

    @cached_property
    def norms(self) -> dict[int, list[int]]:
        """The norm map: code(4n) -> the codes of its n, increasing."""
        return _preimages(self.multiple_row(4))

    @cached_property
    def roots(self) -> dict[int, list[int]]:
        """The root table: code(t^2) -> the codes of its t, increasing."""
        return _preimages(self.square)


def _preimages(row: list[int]) -> dict[int, list[int]]:
    """Each value of a code table -> the codes that map to it, increasing."""
    found: dict = {}
    for c, q in enumerate(row):
        found.setdefault(q, []).append(c)
    return found


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

Every element argument, of a ring method, an operator or a public
function of the package, is read one way: by canonicalize, or by
ring.element where the element is kept (Rank1Form.a).  The lookups by
element (disc_class_of, DiscClassification.index_of, ASGroup.class_of)
read theirs by canonicalize before they look it up, so only a true
non-member raises the lookup's own ValueError.  canonicalize first takes an
element of this ring instance as it is, with no further call.  It then
takes an int, an element of an equal ring, a coefficient list, and
anything else that operator.index accepts.  Another ring's element
raises MixedRingError from require_ring, the one check of a ring
mismatch, and a non-integer (a float, a Fraction) raises TypeError.  An
operator whose operand canonicalize refuses with TypeError returns
NotImplemented, so an algebra element on the right takes over.

Most queries are a few ring operations on a ring that was just parsed, so
the fixed cost of one operation is kept low.  canonicalize reduces an int,
and a list of d coefficients, mod n alone.  (Z/n)[x]/(f) reduces a product's
convolution, and any longer coefficient list, by synthetic division by the
monic f, unrolled for d = 2 and d = 3 (sums and differences too for
d = 2).  A parse builds no table, so one cold query costs the parse and
its ring operations: a star product seven products, an AS action four
(two of them by 4), a discriminant test one product per residue mod 2R
up to the first witness.  A quotient ring answers is_unit and inverses
by the norm det(x -> a x) over Z/n, in closed form for d = 2 and d = 3,
and reads them off its kernel instead once it holds one.
An isomorphism test over a finite ring costs a product or two per element,
for u^2 disc(s) = disc(t), and for each u that passes and is a unit one
inverse and three products; the solutions r of its trace equation cost a
product each for the first unit that meets that equation, and one lookup
for every later one.

Each finite ring instance has one Kernel, its only cache, built on first
use by ring.kernel(): its elements as int codes, the value -> code map,
the codes of t^2, of each element's inverse (-1 for a non-unit) and of
the units, and the rows code(x_c + x_k) and code(k x_c), kept as they are
built, which need no ring operation; Kernel.span generates additive
subgroups from them.  units(), classify, the star table, the disc
classes, the AS group and the fiber reports all read it, and the disc
classes and the AS group are kept in its derived slot once built.  The
kernel holds ints, canonical values and strings, so a ring holds no
element and no reference to itself, and a pickle or copy of the ring
leaves the kernel behind.
"""

from __future__ import annotations

import math
import operator
import re
import sys
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


def _read(ring, value):
    """What canonicalize reads past its fast paths: the value of an element
    of a ring equal to ring (MixedRingError for another ring), or value
    through _exact (TypeError for a non-integer)."""
    if isinstance(value, RingElement):
        require_ring(ring, value)
        return value.value
    return _exact(value)


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


def require_ring(ring: Ring, *given) -> None:
    """MixedRingError (a ValueError) unless each object given (an element,
    an algebra, a classification, a disc class, an AS group) is over ring."""
    for g in given:
        if g.ring is not ring and g.ring != ring:
            raise MixedRingError(f"{type(g).__name__} of {g.ring!r} given for {ring!r}")


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
        if type(value) is RingElement and value.ring is self:
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
        """The inverse of the canonical value a, or None unless a is a unit."""
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

    # Units, inverses and ideals.  units() reads the kernel's inverse codes.
    # Each concrete ring answers the rest from its own structure in closed
    # form (for units of a quotient ring, its norm, or its kernel once
    # built), with one exception:
    # QuotientPolyRing.in_principal_ideal lists the multiples of a non-unit
    # t, a scan of the ring per call; forms_similar is its one caller.

    def units(self) -> list[RingElement]:
        """The invertible elements, in canonical order (finite rings only),
        read off the kernel's inverse codes."""
        if not self.is_finite:
            raise InfiniteRingError(
                "units() requires a finite ring; use is_unit for single elements"
            )
        kernel = self.kernel()
        return [RingElement(self, kernel.values[c]) for c in kernel.units]

    def is_unit(self, a: RingElement) -> bool:
        raise NotImplementedError

    def inverse_of_unit(self, a: RingElement) -> RingElement:
        """a^-1, from _inverse; ValueError unless a is a unit."""
        inverse = self._inverse(self.canonicalize(a))
        if inverse is None:
            raise ValueError(f"{a!r} is not a unit")
        return RingElement(self, inverse)

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
        return RingElement(self, self._coset_rep(self.canonicalize(a), k))

    def _coset_rep(self, a, k: int):
        """coset_representative on canonical values."""
        raise NotImplementedError

    def _halves(self, y) -> list:
        """The canonical values r with 2r = y, in canonical order (finite
        rings): coefficient by coefficient, y (n + 1)/2 for odd n; for even
        n each coefficient c must be even, and gives c/2 and c/2 + n/2."""
        raise NotImplementedError

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
        if type(value) is RingElement and value.ring is self:
            return value.value
        return value if type(value) is int else _read(self, value)

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
        return self.canonicalize(a) in (1, -1)

    def inverse_of_unit(self, a: RingElement) -> RingElement:
        if not self.is_unit(a):
            raise ValueError(f"{a!r} is not a unit")
        return self.element(a)

    def is_nonzerodivisor(self, a: RingElement) -> bool:
        return self.canonicalize(a) != 0

    def in_principal_ideal(self, a: RingElement, t: RingElement) -> bool:
        a, t = self.canonicalize(a), self.canonicalize(t)
        return a % t == 0 if t else a == 0

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
        if type(value) is RingElement and value.ring is self:
            return value.value
        return (value if type(value) is int else _read(self, value)) % self.n

    def _add(self, a, b):
        return (a + b) % self.n

    def _mul(self, a, b):
        return (a * b) % self.n

    def _neg(self, a):
        return (-a) % self.n

    def _sub(self, a, b):
        return (a - b) % self.n

    def _inverse(self, a):
        return pow(a, -1, self.n) if math.gcd(a, self.n) == 1 else None

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

    # Closed forms via gcd: Z/n is never enumerated, so these stay cheap for
    # moduli far too large to list.

    def is_unit(self, a: RingElement) -> bool:
        """a is a unit iff gcd(a, n) = 1."""
        return math.gcd(self.canonicalize(a), self.n) == 1

    def in_principal_ideal(self, a: RingElement, t: RingElement) -> bool:
        """a in tR iff a = 0 mod gcd(t, n), since tR = gcd(t, n)R."""
        return self.canonicalize(a) % math.gcd(self.canonicalize(t), self.n) == 0

    def _coset_rep(self, a, k: int):
        """Least member of a + kR: a mod gcd(k, n), since kR = gcd(k, n)R."""
        return a % math.gcd(k, self.n)

    def _halves(self, y) -> list:
        n = self.n
        if n % 2:
            return [y * (n + 1) // 2 % n]
        return [] if y % 2 else [y // 2, y // 2 + n // 2]

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
        self.degree = d = len(coeffs) - 1
        # x^d mod f = -(f_0 + f_1 x + ... + f_(d-1) x^(d-1)), and the d - 1
        # zero coefficients above the constant of an int
        self._x_d = tuple([(-c) % n for c in coeffs[:d]])
        self._pad = (0,) * (d - 1)

    def canonicalize(self, value):
        """An int, or a list or tuple of d coefficients, is reduced mod n
        alone; a longer or shorter one goes through _reduce."""
        if type(value) is RingElement and value.ring is self:
            return value.value
        if type(value) is int:
            return (value % self.n,) + self._pad
        if isinstance(value, RingElement):
            require_ring(self, value)
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
        if self.degree == 2:    # unrolled
            return (a[0] + b[0]) % n, (a[1] + b[1]) % n
        return tuple([(x + y) % n for x, y in zip(a, b)])

    def _sub(self, a, b):
        n = self.n
        if self.degree == 2:    # unrolled
            return (a[0] - b[0]) % n, (a[1] - b[1]) % n
        return tuple([(x - y) % n for x, y in zip(a, b)])

    def _mul(self, a, b):
        """The convolution of a and b, reduced by _reduce (unrolled for
        d = 2 and d = 3)."""
        d, n, x_d = self.degree, self.n, self._x_d
        if d == 2:    # the same, unrolled: one division step
            (a0, a1), (b0, b1), (f0, f1) = a, b, x_d
            top = a1 * b1 % n
            return (a0 * b0 + top * f0) % n, (a0 * b1 + a1 * b0 + top * f1) % n
        if d == 3:    # two division steps
            (a0, a1, a2), (b0, b1, b2), (f0, f1, f2) = a, b, x_d
            c4 = a2 * b2 % n
            c3 = (a1 * b2 + a2 * b1 + c4 * f2) % n
            return ((a0 * b0 + c3 * f0) % n,
                    (a0 * b1 + a1 * b0 + c4 * f0 + c3 * f1) % n,
                    (a0 * b2 + a1 * b1 + a2 * b0 + c4 * f1 + c3 * f2) % n)
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

    def is_unit(self, a: RingElement) -> bool:
        """Whether _inverse finds an inverse: from the kernel once this
        instance holds it, else by the norm, building no kernel."""
        return self._inverse(self.canonicalize(a)) is not None

    def _inverse(self, a):
        """The inverse of the canonical value a, or None unless a is a unit.

        An instance that holds its kernel reads its inverse codes.
        Otherwise the norm N(a), the determinant of x -> a x over Z/n,
        decides: a is a unit iff gcd(N(a), n) = 1, and then a^-1 = adj / N(a),
        where adj, the first column of the adjugate, has a * adj = N(a).
        For d = 2, with
        x^2 = f0 + f1 x, N(a) = a0 (a0 + f1 a1) - f0 a1^2 and
        adj = (a0 + f1 a1) - a1 x; d = 3 is in closed form too, and other
        degrees take exact elimination over Z (_norm_solve).  Past degree
        101 that elimination would take more than MAX_ENUMERATION steps, and
        the kernel answers, which refuses a ring that large.
        """
        d = self.degree
        if self._kernel is not None or d ** 3 > MAX_ENUMERATION:
            kernel = self.kernel()
            c = kernel.inverse[kernel.code[a]]
            return kernel.values[c] if c >= 0 else None
        n, x_d = self.n, self._x_d
        if d == 2:
            (a0, a1), (f0, f1) = a, x_d
            adj = (a0 + f1 * a1, -a1)
            norm = a0 * adj[0] - f0 * a1 * a1
        elif d == 3:
            # the columns a, b = a x and c = a x^2 of x -> a x, and the
            # cofactors of its first row
            (a0, a1, a2), (f0, f1, f2) = a, x_d
            b0, b1, b2 = a2 * f0, a0 + a2 * f1, a1 + a2 * f2
            c0, c1, c2 = b2 * f0, b0 + b2 * f1, b1 + b2 * f2
            adj = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
            norm = a0 * adj[0] + b0 * adj[1] + c0 * adj[2]
        else:
            x, columns = self.canonicalize([0, 1]), [a]
            while len(columns) < d:    # a x^j, the columns of x -> a x
                columns.append(self._mul(columns[-1], x))
            norm, adj = _norm_solve([list(row) + [int(i == 0)]
                                     for i, row in enumerate(zip(*columns))])
        if math.gcd(norm, n) != 1:
            return None
        inverse = pow(norm, -1, n)
        return tuple([c * inverse % n for c in adj])

    def in_principal_ideal(self, a: RingElement, t: RingElement) -> bool:
        """a in tR: always when t is a unit, since then tR = R; otherwise
        decided by listing the multiples of t, a scan of the ring."""
        a, t = self.element(a), self.element(t)
        return self.is_unit(t) or any(t * b == a for b in self.elements())

    def _coset_rep(self, a, k: int):
        """Least member of a + kR: each coefficient mod gcd(k, n), since
        additively R = (Z/n)^d and kR = (gcd(k, n) Z/n)^d."""
        g = math.gcd(k, self.n)
        return tuple([c % g for c in a])

    def _halves(self, y) -> list:
        n = self.n
        if n % 2:
            h = (n + 1) // 2
            return [tuple([c * h % n for c in y])]
        if any(c % 2 for c in y):
            return []
        h = n // 2    # highest coefficient first, as sort_key orders
        choices = [(c // 2, c // 2 + h) for c in reversed(y)]
        return [rev[::-1] for rev in product(*choices)]

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

    # An operand of the identical ring is used as it is; any other is read
    # by _operand, which gives None for one that canonicalize refuses with
    # TypeError, so the operator returns NotImplemented and Python tries
    # the other operand's reflected operator (an algebra element's).

    def __add__(self, other):
        ring = self.ring
        if type(other) is not RingElement or other.ring is not ring:
            other = _operand(ring, other)
            if other is None:
                return NotImplemented
        return RingElement(ring, ring._add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        ring = self.ring
        if type(other) is not RingElement or other.ring is not ring:
            other = _operand(ring, other)
            if other is None:
                return NotImplemented
        return RingElement(ring, ring._sub(self.value, other.value))

    def __rsub__(self, other):
        other = _operand(self.ring, other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        ring = self.ring
        if type(other) is not RingElement or other.ring is not ring:
            other = _operand(ring, other)
            if other is None:
                return NotImplemented
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


def _operand(ring: Ring, other) -> RingElement | None:
    """other as an element of ring, read by canonicalize, or None where
    canonicalize refuses it with TypeError."""
    try:
        return RingElement(ring, ring.canonicalize(other))
    except TypeError:
        return None


_RING_RE = re.compile(r"^Z/([0-9]+)(?:\[x\]/\((.+)\))?$")
# A "*" only between a coefficient and x: "3*" and "*x" are malformed.
_TERM_RE = re.compile(r"^([+-]?)([0-9]+)?(?:(?<=[0-9])\*(?=x))?(x(?:\^([0-9]+))?)?$")
_TOKEN_RE = re.compile(r"[+-]?[^+-]+")
_INT_RE = re.compile(r"[+-]?[0-9]+")
# A whole polynomial of the terms _TERM_RE reads, each after the first signed.
_TERM = r"(?:[0-9]+(?:\*?x(?:\^[0-9]+)?)?|x(?:\^[0-9]+)?)"
_POLY_RE = re.compile(rf"[+-]?{_TERM}(?:[+-]{_TERM})*")
_SIGN_COEFF = {"": 1, "-": -1}    # the coefficient of a bare x or -x


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
    """Parse a polynomial in x ("x^2+3x+1", "2*x^3-1") into a coefficient list.

    A polynomial that _POLY_RE matches whole is split at its signs and each
    term at its x, with no further match; anything else, and a number over
    int()'s digit limit, goes term by term through _TERM_RE and parse_int,
    which name what is wrong.
    """
    s = text.replace(" ", "")
    coeffs: dict[int, int] = {}
    if _POLY_RE.fullmatch(s):
        try:
            for term in s.replace("-", "+-").split("+"):
                if term:    # only a leading sign leaves an empty piece
                    # [-][digits][*], and then "" or "x" with "" or "^digits"
                    head, x, power = term.partition("x")
                    head = head.rstrip("*")
                    coeff = _SIGN_COEFF.get(head) or int(head)
                    deg = int(power[1:]) if power else 1 if x else 0
                    coeffs[deg] = coeffs.get(deg, 0) + coeff
        except ValueError:
            coeffs = {}
    if not coeffs:
        coeffs = _parse_terms(text, s)
    top = max(coeffs)
    require_enumerable(top + 1, lambda: f"coefficients of {text!r}")
    dense = [0] * (top + 1)
    for deg, c in coeffs.items():
        dense[deg] = c
    return dense


def _parse_terms(text: str, s: str) -> dict[int, int]:
    """Degree -> coefficient of the polynomial text, s without its spaces,
    one term at a time; RingParseError names the first thing wrong."""
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
    return coeffs


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
    builds on first use and keeps: the ring's only cache.

    The code of an element is its index in ring.elements(): the value itself
    for Z/n, and c_0 + c_1 n + ... + c_(d-1) n^(d-1) for (Z/n)[x]/(f).  Both
    kinds enumerate in sort_key order, so codes sort like sort keys, and the
    code pair (t, n) sorts like (t.sort_key(), n.sort_key()).  Additively
    R is (Z/n)^d, so x -> x_c + x and x -> k*x act on the digits of a code
    one by one: add_row and multiple_row are built from digit maps with no
    ring operation, each on first use, and kept, so every caller reads the
    same row of x + x_c or of k x (the rows of 4, 2, -1 and -4 serve R[4]
    and the least n of 4n = t^2 - d, halves, negation and t^2 - 4n), and a
    sum of codes is an add-row lookup.  span generates an additive subgroup
    from add rows by _walk_cosets, the walk that classify runs on unit rows
    for the stabilizer of a trace.  Ring products fill only the table of
    t^2 (|R|) and inverse, the code of each element's inverse or -1 for a
    non-unit, by a walk of powers from the squares (at most 2|R|); units
    lists the codes with an inverse.  A table is kept here only when two
    layers read it; derived is the slot where the discriminants and
    artin_schreier modules keep their own per-ring tables, filled on first
    use.
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
        self._multiples: dict = {}    # k mod n -> multiple_row(k)
        self.square = square = [code[mul(t, t)] for t in values]
        # The power walk a, a^2 = square[a], a^3, ... of each code not yet
        # placed.  A walk that reaches a known unit p = a^(k+1) (at first
        # only 1 is known) makes each a^i with i <= k a unit with inverse
        # a^(k+1-i) p^-1, no product when p = 1.  A walk that reaches a
        # known non-unit or repeats itself leaves them all non-units (-1):
        # a power of a non-unit is never a unit, and the powers of a unit
        # come back to 1 before they repeat.  Each code is placed by one
        # walk, at most 2|R| products.
        self.inverse = inverse = [None] * len(values)
        one = code[ring.canonicalize(1)]
        inverse[one] = one
        for a in range(len(values)):
            if inverse[a] is not None:
                continue
            chain, p, x = [a], square[a], values[a]
            inverse[a] = -1
            while inverse[p] is None:
                chain.append(p)
                inverse[p] = -1
                p = code[mul(values[p], x)]
            if inverse[p] >= 0:
                k, q = len(chain), inverse[p]
                for i, c in enumerate(chain):    # c = a^(i+1)
                    r = chain[k - i - 1]
                    inverse[c] = r if q == one else code[mul(values[r], values[q])]
        self.units = [c for c, i in enumerate(inverse) if i >= 0]
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

    def multiple_row(self, k: int) -> list[int]:
        """code(k * x_c) for every code c, built on first use and kept:
        each digit of x_c is multiplied by k mod n, so the row of k is the
        row of k mod n."""
        n = len(self._places[0])
        row = self._multiples.get(k % n)
        if row is None:
            row = self._multiples[k % n] = self._digitwise(
                [[place[j * k % n] for j in range(n)]
                 for place in self._places])
        return row

    def span(self, members) -> tuple[set[int], list[int]]:
        """The subgroup of (R, +) that the codes members generate, and the
        members that grew it, in order: each member not yet in the span
        grows it by _walk_cosets along its add row, so at most log2 of its
        order add rows are taken."""
        span, grew = {0}, []
        for c in members:
            if c not in span:
                grew.append(c)
                _walk_cosets(span, self.add_row(c))
        return span, grew


def _walk_cosets(group: set[int], row: list[int]) -> None:
    """Grow the subgroup group of codes, in place, to the subgroup that it
    and g generate, where row is the code table of x -> g x for g in an
    abelian group acting on the codes: its cosets g group, g^2 group, ...
    are added until one cycles back into it."""
    coset = list(group)
    while row[coset[0]] not in group:
        coset = [row[x] for x in coset]
        group.update(coset)


def _norm_solve(rows: list) -> tuple:
    """(p, y) for an integer matrix M with a column b appended to each row:
    p = +-det M and M y = p b, by Bareiss's fraction-free elimination over
    Z, where every division is exact.  Rows are swapped only to find a
    nonzero pivot; a singular M gives p = 0.  y is integral by Cramer's
    rule, so back substitution divides exactly too.  rows is consumed."""
    d, p = len(rows), 1
    for k in range(d):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, d) if rows[i][k]), None)
            if swap is None:
                return 0, None
            rows[k], rows[swap] = rows[swap], rows[k]
        pivot, prev = rows[k], p
        p = pivot[k]
        for i in range(k + 1, d):
            q = rows[i][k]
            rows[i] = [(p * x - q * y) // prev for x, y in zip(rows[i], pivot)]
    y = [0] * d
    for i in range(d - 1, -1, -1):
        row = rows[i]
        y[i] = (p * row[d] - sum(map(operator.mul, row[i + 1:d], y[i + 1:]))) // row[i]
    return p, y

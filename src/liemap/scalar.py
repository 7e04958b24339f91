"""Exact field arithmetic: arbitrary-precision rationals and prime fields F_p.

A scalar is a residue: an int in [0, p) over F_p, a ``fractions.Fraction``
over Q.  Arguments, algebra elements, matrix rows, polynomial coefficients
and returned values all hold residues, and the field descriptor supplies
the field structure on them.  No floating point anywhere.

Each descriptor has one way in, ``residue``, which takes an int, a
Fraction (or, over F_p, an FpElement) to its residue, and text in and out,
``parse_scalar`` and ``format_scalar``.  It supplies the residue arithmetic:
``reduce`` and ``reduce_row`` for sums of products, ``inv`` for pivots, and
the row updates ``scale_row`` and ``sub_row``.  Sums of products run on
plain ints: ``integral_rows`` turns residue rows into int rows and one
denominator d (over Q the lcm of their denominators, over F_p the residues
themselves and d = 1), and ``from_integral_row`` turns an int row of
products back into residues (n / d over Q, n mod p over F_p).  A value kept
in that form between steps is brought back to it by ``normal_row`` (over Q
the row and d divided by their gcd, over F_p the row reduced),
``integral_scalar`` gives a rational scalar as such a pair (n, d), and
``row_combine`` takes rational linear combinations of such values.

:class:`FpElement`, a residue that reduces itself, is kept for callers
outside the library; nothing in liemap builds one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class FieldSpecError(ValueError):
    """Malformed or invalid field specification (e.g. non-prime modulus)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _fraction_residue(q: Fraction, p: int) -> int:
    """The residue of q mod p; a denominator divisible by p is a
    ZeroDivisionError that names it."""
    if q.denominator % p == 0:
        raise ZeroDivisionError(
            "denominator %d not invertible mod %d" % (q.denominator, p))
    return q.numerator * pow(q.denominator, -1, p) % p


class FpElement:
    """Residue modulo a prime p that reduces itself, always stored in
    canonical form [0, p); ints and Fractions mixed into its arithmetic
    reduce mod p.  The library holds plain int residues instead, and
    PrimeField.residue takes an FpElement to one.
    """

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed moduli: %d vs %d" % (self.p, other.p))
            return other.val
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            return _fraction_residue(other, self.p)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.val, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.val * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.val == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(v * pow(self.val, -1, self.p), self.p)

    def __pow__(self, k: int):
        if k < 0 and self.val == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.p)
        return FpElement(pow(self.val, k, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, (int, Fraction)):
            v = self._coerce(other)
            return v == self.val
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.val))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "FpElement(%d, p=%d)" % (self.val, self.p)

    def __str__(self):
        return str(self.val)


_ZERO = Fraction(0)


class Rationals:
    """Field descriptor for Q."""

    kind = "rationals"
    characteristic = 0
    modulus = None

    def parse_scalar(self, text: str):
        return Fraction(text.strip())

    def format_scalar(self, x) -> str:
        x = self.residue(x)
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)

    # -- residues (here the Fractions themselves) --------------------------

    def residue(self, x):
        return x if type(x) is Fraction else Fraction(x)

    def reduce(self, x):
        return x

    def reduce_row(self, row):
        return row

    def integral_rows(self, rows):
        """(int rows, d) with rows = int rows / d, d the lcm of the
        denominators."""
        d = lcm(*[x.denominator for row in rows for x in row])
        return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d

    def from_integral_row(self, ints, d):
        return [Fraction(n, d) if n else _ZERO for n in ints]

    def normal_row(self, ints, d):
        """(ints, d) divided by their gcd, so that d > 0 is the least
        denominator of the row ints / d."""
        g = gcd(d, *ints)
        if g == 1:
            return ints, d
        return [n // g for n in ints], d // g

    def integral_scalar(self, q):
        q = self.residue(q)
        return q.numerator, q.denominator

    def inv(self, r):
        return Fraction(1) / r

    def scale_row(self, row, c):
        return [x * c if x else x for x in row]

    def sub_row(self, row, c, piv):
        """row - c * piv."""
        return [x - c * y if y else x for x, y in zip(row, piv)]

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"

    def __str__(self):
        return "Q"


class PrimeField:
    """Field descriptor for F_p, p prime."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise FieldSpecError("modulus %r is not prime" % (p,))
        self.modulus = p
        self.characteristic = p

    def parse_scalar(self, text: str) -> int:
        return int(text.strip()) % self.modulus

    def format_scalar(self, x) -> str:
        return str(self.residue(x))

    # -- residues: ints in [0, p) ------------------------------------------

    def residue(self, x) -> int:
        if type(x) is int:  # skips isinstance's ABC check for Fraction
            return x % self.modulus
        if isinstance(x, FpElement):
            if x.p != self.modulus:
                raise ValueError("mixed moduli: %d vs %d" % (x.p, self.modulus))
            return x.val
        if isinstance(x, Fraction):
            return _fraction_residue(x, self.modulus)
        return x % self.modulus

    def reduce(self, x) -> int:
        return x % self.modulus

    def reduce_row(self, row):
        p = self.modulus
        return [x % p for x in row]

    def integral_rows(self, rows):
        return rows, 1

    def from_integral_row(self, ints, d):
        return self.reduce_row(ints)

    def normal_row(self, ints, d):
        p = self.modulus
        return [x % p for x in ints], 1

    def integral_scalar(self, q):
        return self.residue(q), 1

    def inv(self, r) -> int:
        if r % self.modulus == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.modulus)
        return pow(r, -1, self.modulus)

    def scale_row(self, row, c):
        p = self.modulus
        return [x * c % p for x in row]

    def sub_row(self, row, c, piv):
        """row - c * piv."""
        p = self.modulus
        return [(x - c * y) % p for x, y in zip(row, piv)]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Fp", self.modulus))

    def __repr__(self):
        return "PrimeField(%d)" % self.modulus

    def __str__(self):
        return "F%d" % self.modulus


def row_combine(field, size, terms):
    """sum c * value over terms [(c, (ints, d)), ..] of int rows of this size,
    c rational: the linear combination of integer-row values, on one common
    denominator, normalised once."""
    scaled = [(field.integral_scalar(c), v) for c, v in terms]
    d = lcm(*[den * dv for (_, den), (_, dv) in scaled])
    out = [0] * size
    for (num, den), (ints, dv) in scaled:
        m = num * (d // (den * dv))
        if m:
            out = [o + m * n for o, n in zip(out, ints)]
    return field.normal_row(out, d)


def make_field(spec: str):
    """Build a field descriptor from text: "Q", "F5", or "Fp:5"."""
    s = spec.strip()
    if s in ("Q", "q"):
        return Rationals()
    if s.lower().startswith("fp:"):
        body = s[3:]
    elif s[:1] in ("F", "f"):
        body = s[1:]
    else:
        raise FieldSpecError("unparseable field spec %r" % spec)
    try:
        p = int(body)
    except ValueError:
        raise FieldSpecError("unparseable field spec %r" % spec) from None
    return PrimeField(p)


"""Lawverean quantales, degree values, and change-of-base endomorphisms.

Degrees are exact: rationals plus an explicit infinity token, never floats,
so degree order and equality are decidable and stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union


class QuantaleError(ValueError):
    """Base class for degree and CBE errors."""


class QuantaleMismatchError(QuantaleError):
    """Raised when an operation mixes values of different quantales."""


class CarrierError(QuantaleError):
    """Raised when a number lies outside the carrier of its quantale."""


class CbeError(QuantaleError):
    """Raised when a CBE constructor is not admitted by a quantale."""


class _Infinity:
    """The point at infinity of the [0, inf] carriers (a singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

Extended = Union[Fraction, _Infinity]

# The most bits a degree's numerator or denominator may take: at most 4,215
# decimal digits, within the 4,300 digits Python converts to a string, so
# every degree can be printed.  Nested pow grades reach past it quickly.
# read_number bounds the numerator and denominator of a number literal by
# the digits of the largest number of that many bits (4,215).
MAX_DEGREE_BITS = 14_000
MAX_LITERAL_DIGITS = len(str(2 ** MAX_DEGREE_BITS - 1))


def read_number(text: str, what: str) -> Fraction:
    """The exact value of digits or digits/digits.  CarrierError, naming the
    number as `what` but never repeating it, rejects other text, a zero
    denominator and a side longer than MAX_LITERAL_DIGITS, before int()."""
    sides = text.split("/")
    if len(sides) > 2 or not all(side.isdecimal() for side in sides):
        raise CarrierError(f"{what} is not a number literal")
    digits = [side.lstrip("0") for side in sides]
    if any(len(side) > MAX_LITERAL_DIGITS for side in digits):
        raise CarrierError(f"{what} has over {MAX_LITERAL_DIGITS} digits above or below its bar")
    if len(digits) == 2 and not digits[1]:
        raise CarrierError(f"{what} has a zero denominator")
    return Fraction(*(int(side or "0") for side in digits))


def _ext_le(a: Extended, b: Extended) -> bool:
    """Numeric <= on rationals extended with infinity."""
    if b is INF:
        return True
    if a is INF:
        return False
    return a <= b


class Quantale(Enum):
    """The concrete Lawverean quantales supported by the library.

    All five are commutative, integral, cointegral, nontrivial, and totally
    ordered.  The Lawvere family carries [0, inf] with the *reversed* numeric
    order (smaller numbers are higher in the quantale order); the fuzzy
    family carries [0, 1] with the usual order; Bool is the two-point chain.
    """

    BOOL = "bool"
    LAWVERE = "lawvere"
    LAWVERE_MAX = "lawvere-max"
    FUZZY_GODEL = "fuzzy-godel"
    FUZZY_PRODUCT = "fuzzy-product"

    @property
    def reversed_order(self) -> bool:
        return self in (Quantale.LAWVERE, Quantale.LAWVERE_MAX)

    def contains(self, num: Extended) -> bool:
        if num is INF:
            return self.reversed_order
        if not isinstance(num, Fraction) or num < 0:
            return False
        if self is Quantale.BOOL:
            return num in (0, 1)
        if self.reversed_order:
            return True
        return num <= 1

    def degree(self, num) -> "QuantaleValue":
        """Build a degree value, checking the carrier."""
        if isinstance(num, QuantaleValue):
            if num.quantale is not self:
                raise QuantaleMismatchError(f"value belongs to {num.quantale}")
            return num
        return QuantaleValue(self, num)

    @property
    def unit(self) -> "QuantaleValue":
        if self.reversed_order:
            return QuantaleValue(self, Fraction(0))
        return QuantaleValue(self, Fraction(1))

    @property
    def top(self) -> "QuantaleValue":
        # Integral: the unit is the top.
        return self.unit

    @property
    def bottom(self) -> "QuantaleValue":
        if self.reversed_order:
            return QuantaleValue(self, INF)
        return QuantaleValue(self, Fraction(0))

    def parse_degree(self, text: str) -> "QuantaleValue":
        """Parse a degree literal: a nonnegative integer, `p/q`, or `inf`."""
        text = text.strip()
        return QuantaleValue(self, INF if text == "inf" else text)

    def sort_key(self, v: "QuantaleValue"):
        """Key under which ascending sort lists degrees best-first."""
        if v.num is INF:
            return (1, Fraction(0))
        if self.reversed_order:
            return (0, v.num)
        return (0, -v.num)


@dataclass(frozen=True, eq=False)
class QuantaleValue:
    """An element of a quantale: an exact rational (number text is read by
    read_number) or the infinity token.

    The hash is computed once, with the value the generated dataclass hash
    would give; degrees key the search's memos and state tables."""

    quantale: Quantale
    num: Extended

    def __post_init__(self):
        num = self.num
        if not isinstance(num, _Infinity):
            if not isinstance(num, Fraction):
                num = read_number(num, "degree") if isinstance(num, str) else Fraction(num)
                object.__setattr__(self, "num", num)
            if (num.numerator.bit_length() > MAX_DEGREE_BITS
                    or num.denominator.bit_length() > MAX_DEGREE_BITS):
                raise CarrierError(f"a degree of {self.quantale.value} needs more "
                                   f"than {MAX_DEGREE_BITS} bits")
        if not self.quantale.contains(self.num):
            raise CarrierError(f"{self.num} outside carrier of {self.quantale.value}")
        object.__setattr__(self, "_hash", hash((self.quantale, self.num)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QuantaleValue):
            return NotImplemented
        return (self._hash == other._hash and self.quantale is other.quantale
                and self.num == other.num)

    def __str__(self):
        return "inf" if self.num is INF else str(self.num)


def _check_same(a: QuantaleValue, b: QuantaleValue) -> Quantale:
    if a.quantale is not b.quantale:
        raise QuantaleMismatchError(f"mixed quantales {a.quantale} and {b.quantale}")
    return a.quantale


def q_tensor(a: QuantaleValue, b: QuantaleValue) -> QuantaleValue:
    """The monoid multiplication of the quantale."""
    q = _check_same(a, b)
    x, y = a.num, b.num
    if q is Quantale.LAWVERE:
        num = INF if (x is INF or y is INF) else x + y
    elif q is Quantale.LAWVERE_MAX:
        if x is INF or y is INF:
            num = INF
        else:
            num = max(x, y)
    elif q is Quantale.FUZZY_PRODUCT:
        num = x * y
    else:  # BOOL and FUZZY_GODEL both take the minimum
        num = min(x, y)
    return QuantaleValue(q, num)


def q_leq(a: QuantaleValue, b: QuantaleValue) -> bool:
    """Decide a <= b in the quantale order (reversed numeric for Lawvere)."""
    q = _check_same(a, b)
    if q.reversed_order:
        return _ext_le(b.num, a.num)
    return _ext_le(a.num, b.num)


def q_geq(a: QuantaleValue, b: QuantaleValue) -> bool:
    return q_leq(b, a)


def q_join(quantale: Quantale, vs: Iterable[QuantaleValue]) -> QuantaleValue:
    """Least upper bound; the empty join is the bottom element."""
    result = quantale.bottom
    for v in vs:
        if q_leq(result, v):
            result = v
    return result


def q_meet(quantale: Quantale, vs: Iterable[QuantaleValue]) -> QuantaleValue:
    """Greatest lower bound; the empty meet is the top element."""
    result = quantale.top
    for v in vs:
        if q_leq(v, result):
            result = v
    return result


# ---------------------------------------------------------------------------
# Change-of-base endomorphisms.
#
# A CBE is a quantale homomorphism applied to degrees by the surrounding
# term context.  We work in a closed, finitely presented fragment per
# quantale, which keeps equality of CBEs decidable:
#
#   Lawvere, Lawvere-max:  const, scale(c) with c a nonnegative rational
#   Bool, fuzzy-Godel:     id, const
#   fuzzy-product:         const, pow(n) with n a positive natural
#
# Identity and the constant-to-unit map are admitted everywhere, and each
# fragment is closed under composition and pointwise tensor.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cbe:
    """Base class of CBE expression trees."""


@dataclass(frozen=True)
class CbeId(Cbe):
    pass


@dataclass(frozen=True)
class CbeConst(Cbe):
    """The map sending every degree to the unit."""


@dataclass(frozen=True)
class CbeScale(Cbe):
    """Multiplication by a nonnegative rational (Lawvere carriers only)."""

    factor: Fraction

    def __post_init__(self):
        object.__setattr__(self, "factor", Fraction(self.factor))
        if self.factor < 0:
            raise CbeError("scale factor must be nonnegative")


@dataclass(frozen=True)
class CbePow(Cbe):
    """Raising to a positive natural power (fuzzy-product only)."""

    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 1:
            raise CbeError("pow exponent must be a natural number >= 1")


@dataclass(frozen=True)
class CbeCompose(Cbe):
    outer: Cbe
    inner: Cbe


@dataclass(frozen=True)
class CbeTensor(Cbe):
    left: Cbe
    right: Cbe


CBE_ID = CbeId()
CBE_CONST = CbeConst()


def cbe_admissible(quantale: Quantale, f: Cbe) -> bool:
    """Whether every constructor in f is admitted by the quantale."""
    if isinstance(f, (CbeId, CbeConst)):
        return True
    if isinstance(f, CbeScale):
        return quantale.reversed_order
    if isinstance(f, CbePow):
        return quantale is Quantale.FUZZY_PRODUCT
    if isinstance(f, CbeCompose):
        return cbe_admissible(quantale, f.outer) and cbe_admissible(quantale, f.inner)
    if isinstance(f, CbeTensor):
        return cbe_admissible(quantale, f.left) and cbe_admissible(quantale, f.right)
    raise TypeError(f"not a CBE: {f!r}")


def _coefficient(quantale: Quantale, f: Cbe):
    """Fold a CBE tree to its fragment coefficient.

    Composition multiplies coefficients in every fragment; the pointwise
    tensor adds them (Lawvere, fuzzy-product) or takes their maximum
    (Lawvere-max, Bool, fuzzy-Godel).
    """
    if isinstance(f, CbeId):
        return 1 if quantale is Quantale.FUZZY_PRODUCT else Fraction(1)
    if isinstance(f, CbeConst):
        return 0 if quantale is Quantale.FUZZY_PRODUCT else Fraction(0)
    if isinstance(f, CbeScale):
        if not quantale.reversed_order:
            raise CbeError(f"scale is not a {quantale.value} CBE")
        return f.factor
    if isinstance(f, CbePow):
        if quantale is not Quantale.FUZZY_PRODUCT:
            raise CbeError(f"pow is not a {quantale.value} CBE")
        return f.exponent
    if isinstance(f, CbeCompose):
        return _coefficient(quantale, f.outer) * _coefficient(quantale, f.inner)
    if isinstance(f, CbeTensor):
        a = _coefficient(quantale, f.left)
        b = _coefficient(quantale, f.right)
        if quantale in (Quantale.LAWVERE, Quantale.FUZZY_PRODUCT):
            return a + b
        return max(a, b)
    raise TypeError(f"not a CBE: {f!r}")


@lru_cache(maxsize=8192)
def cbe_normalize(quantale: Quantale, f: Cbe) -> Cbe:
    """The unique normal form of f within the quantale's fragment."""
    c = _coefficient(quantale, f)
    if c == 0:
        return CBE_CONST
    if quantale.reversed_order:
        return CbeScale(Fraction(c))
    if quantale is Quantale.FUZZY_PRODUCT:
        return CbePow(int(c))
    return CBE_ID


def cbe_equal(quantale: Quantale, f: Cbe, g: Cbe) -> bool:
    return cbe_normalize(quantale, f) == cbe_normalize(quantale, g)


@lru_cache(maxsize=8192)
def cbe_compose(quantale: Quantale, f: Cbe, g: Cbe) -> Cbe:
    """(f after g), normalized."""
    return cbe_normalize(quantale, CbeCompose(f, g))


@lru_cache(maxsize=8192)
def cbe_tensor(quantale: Quantale, f: Cbe, g: Cbe) -> Cbe:
    """The pointwise tensor of f and g, normalized."""
    return cbe_normalize(quantale, CbeTensor(f, g))


def cbe_apply(f: Cbe, a: QuantaleValue) -> QuantaleValue:
    """Evaluate the CBE tree at a degree (structural recursion, no
    normalization), so that evaluation can be cross-checked against the
    normal form."""
    q = a.quantale
    if isinstance(f, CbeId):
        return a
    if isinstance(f, CbeConst):
        return q.unit
    if isinstance(f, CbeScale):
        if not q.reversed_order:
            raise CbeError(f"scale is not a {q.value} CBE")
        if a.num is INF:
            # 0 * inf is 0 here: scale(0) is the constant-to-unit map.
            num = Fraction(0) if f.factor == 0 else INF
        else:
            num = f.factor * a.num
        return QuantaleValue(q, num)
    if isinstance(f, CbePow):
        if q is not Quantale.FUZZY_PRODUCT:
            raise CbeError(f"pow is not a {q.value} CBE")
        # x ** n has more than n * (bits of x - 1) bits: refuse before computing
        bits = max(a.num.numerator.bit_length(), a.num.denominator.bit_length())
        if f.exponent * (bits - 1) >= MAX_DEGREE_BITS:
            raise CarrierError(f"pow({f.exponent}) of {a} needs more than "
                               f"{MAX_DEGREE_BITS} bits")
        return QuantaleValue(q, a.num ** f.exponent)
    if isinstance(f, CbeCompose):
        return cbe_apply(f.outer, cbe_apply(f.inner, a))
    if isinstance(f, CbeTensor):
        return q_tensor(cbe_apply(f.left, a), cbe_apply(f.right, a))
    raise TypeError(f"not a CBE: {f!r}")


def cbe_to_str(quantale: Quantale, f: Cbe) -> str:
    """Surface syntax of the normal form: id, const, scale(c), or pow(n)."""
    g = cbe_normalize(quantale, f)
    if isinstance(g, CbeConst):
        return "const"
    if isinstance(g, CbeScale):
        return "id" if g.factor == 1 else f"scale({g.factor})"
    if isinstance(g, CbePow):
        return "id" if g.exponent == 1 else f"pow({g.exponent})"
    return "id"

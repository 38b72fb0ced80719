"""Lawverean quantales, degree values, and change-of-base endomorphisms.

Degrees are exact: rationals plus an explicit infinity token, never floats,
so degree order and equality are decidable and stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
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

    def __reduce__(self):
        # unpickled and copied through __new__, so it stays the singleton
        return _Infinity, ()

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
    """The exact value of digits or digits/digits, in ASCII digits.
    CarrierError, naming the number as `what` but never repeating it, rejects
    other text, a zero denominator and a side longer than MAX_LITERAL_DIGITS,
    before int()."""
    sides = text.split("/")
    if len(sides) > 2 or not text.isascii() or not all(side.isdecimal() for side in sides):
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
    _keyword = "scale"

    def __post_init__(self):
        object.__setattr__(self, "factor", Fraction(self.factor))
        if self.factor < 0:
            raise CbeError("scale factor must be nonnegative")


@dataclass(frozen=True)
class CbePow(Cbe):
    """Raising to a positive natural power (fuzzy-product only)."""

    exponent: int
    _keyword = "pow"

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


def _in_unit_interval(x: Extended) -> bool:
    return x is not INF and x <= 1


class Quantale(Enum):
    """The concrete Lawverean quantales supported by the library.

    All five are commutative, integral, cointegral, nontrivial, and totally
    ordered.  The Lawvere family carries [0, inf] with the *reversed* numeric
    order (smaller numbers are higher in the quantale order); the fuzzy
    family carries [0, 1] with the usual order; Bool is the two-point chain.

    Each member carries its row: its name (the enum value), whether its
    order reverses the numeric one, its carrier (a test on numbers >= 0 and
    inf), its tensor on finite numbers, its unit and bottom, the CBE
    constructor its fragment admits besides id and const, and how the
    pointwise CBE tensor combines coefficients.
    """

    # (name, reversed order, carrier, tensor, unit, bottom, fragment, CBE tensor)
    BOOL = ("bool", False, lambda x: x in (0, 1), min, 1, 0, None, max)
    LAWVERE = ("lawvere", True, lambda x: True, add, 0, INF, CbeScale, add)
    LAWVERE_MAX = ("lawvere-max", True, lambda x: True, max, 0, INF, CbeScale, max)
    FUZZY_GODEL = ("fuzzy-godel", False, _in_unit_interval, min, 1, 0, None, max)
    FUZZY_PRODUCT = ("fuzzy-product", False, _in_unit_interval, mul, 1, 0, CbePow, add)

    def __new__(cls, value, *row):
        member = object.__new__(cls)
        member._value_ = value
        (member.reversed_order, member._carrier, member._tensor, member.unit,
         member.bottom, member._fragment, member._cbe_tensor) = row
        return member

    def contains(self, num: Extended) -> bool:
        return (num is INF or isinstance(num, Fraction) and num >= 0) and self._carrier(num)

    def degree(self, num) -> "QuantaleValue":
        """Build a degree value, checking the carrier."""
        if isinstance(num, QuantaleValue):
            if num.quantale is not self:
                raise QuantaleMismatchError(f"value belongs to {num.quantale}")
            return num
        return QuantaleValue(self, num)

    def parse_degree(self, text: str) -> "QuantaleValue":
        """Parse a degree literal: a nonnegative integer, `p/q`, or `inf`."""
        text = text.strip()
        return QuantaleValue(self, INF if text == "inf" else text)

    def sort_key(self, v: "QuantaleValue"):
        """Key under which ascending sort lists degrees best-first."""
        if v.num is INF:
            return (1, Fraction(0))
        return (0, v.num if self.reversed_order else -v.num)


class QuantaleValue:
    """An element of a quantale: an exact rational (number text is read by
    read_number) or the infinity token.  Immutable.

    Hash, equality and repr are those of a frozen dataclass with the fields
    quantale and num; the hash is computed once, as degrees key the
    search's memos and state tables."""

    __slots__ = ("quantale", "num", "_hash")

    def __init__(self, quantale: Quantale, num):
        if not isinstance(num, _Infinity):
            if not isinstance(num, Fraction):
                num = read_number(num, "degree") if isinstance(num, str) else Fraction(num)
            _check_bits(quantale, num)
        if not quantale.contains(num):
            raise CarrierError(f"{num} outside carrier of {quantale.value}")
        _fill(self, quantale, num)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return QuantaleValue, (self.quantale, self.num)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QuantaleValue):
            return NotImplemented
        return (self._hash == other._hash and self.quantale is other.quantale
                and self.num == other.num)

    def __repr__(self):
        return f"QuantaleValue(quantale={self.quantale!r}, num={self.num!r})"

    def __str__(self):
        return "inf" if self.num is INF else str(self.num)


_new = object.__new__
_set_quantale = QuantaleValue.quantale.__set__
_set_num = QuantaleValue.num.__set__
_set_hash = QuantaleValue._hash.__set__


def _fill(v: QuantaleValue, q: Quantale, num: Extended) -> None:
    _set_quantale(v, q)
    _set_num(v, num)
    _set_hash(v, hash((q, num)))


def _check_bits(q: Quantale, num: Fraction) -> None:
    if (num.numerator.bit_length() > MAX_DEGREE_BITS
            or num.denominator.bit_length() > MAX_DEGREE_BITS):
        raise CarrierError(f"a degree of {q.value} needs more than {MAX_DEGREE_BITS} bits")


def _result(q: Quantale, num: Extended) -> QuantaleValue:
    """A degree computed by an operation closed on the carrier: only the bit
    bound is checked, not the carrier."""
    if num is not INF:
        _check_bits(q, num)
    v = _new(QuantaleValue)
    _fill(v, q, num)
    return v


for _q in Quantale:
    # The row's numbers become degrees, built once and shared: degrees are
    # immutable.  Integral: the unit is the top.
    _q.unit = _q.top = QuantaleValue(_q, _q.unit)
    _q.bottom = QuantaleValue(_q, _q.bottom)


def _check_same(a: QuantaleValue, b: QuantaleValue) -> Quantale:
    if a.quantale is not b.quantale:
        raise QuantaleMismatchError(f"mixed quantales {a.quantale} and {b.quantale}")
    return a.quantale


def q_tensor(a: QuantaleValue, b: QuantaleValue) -> QuantaleValue:
    """The monoid multiplication of the quantale; the bottom absorbs."""
    q = _check_same(a, b)
    if a.num is INF or b.num is INF:
        return q.bottom
    return _result(q, q._tensor(a.num, b.num))


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


def _admitted(quantale: Quantale, f: Cbe) -> Cbe:
    """f, a scale or pow, if it is the constructor the quantale's fragment
    admits."""
    if type(f) is not quantale._fragment:
        raise CbeError(f"{f._keyword} is not a {quantale.value} CBE")
    return f


def _coefficient(quantale: Quantale, f: Cbe):
    """Fold a CBE tree to its fragment coefficient; CbeError if the fragment
    does not admit a constructor in it.

    Composition multiplies coefficients in every fragment; the pointwise
    tensor combines them by the quantale's CBE tensor (add or max).
    """
    if isinstance(f, CbeId):
        return 1
    if isinstance(f, CbeConst):
        return 0
    if isinstance(f, CbeScale):
        return _admitted(quantale, f).factor
    if isinstance(f, CbePow):
        return _admitted(quantale, f).exponent
    if isinstance(f, CbeCompose):
        return _coefficient(quantale, f.outer) * _coefficient(quantale, f.inner)
    if isinstance(f, CbeTensor):
        return quantale._cbe_tensor(_coefficient(quantale, f.left),
                                   _coefficient(quantale, f.right))
    raise TypeError(f"not a CBE: {f!r}")


def cbe_admissible(quantale: Quantale, f: Cbe) -> bool:
    """Whether every constructor in f is admitted by the quantale."""
    try:
        _coefficient(quantale, f)
    except CbeError:
        return False
    return True


@lru_cache(maxsize=8192)
def cbe_normalize(quantale: Quantale, f: Cbe) -> Cbe:
    """The unique normal form of f within the quantale's fragment."""
    c = _coefficient(quantale, f)
    if c == 0:
        return CBE_CONST
    return quantale._fragment(c) if quantale._fragment else CBE_ID


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
        _admitted(q, f)
        if a.num is INF:
            # 0 * inf is 0 here: scale(0) is the constant-to-unit map.
            num = Fraction(0) if f.factor == 0 else INF
        else:
            num = f.factor * a.num
        return _result(q, num)
    if isinstance(f, CbePow):
        _admitted(q, f)
        # x ** n has more than n * (bits of x - 1) bits: refuse before computing
        bits = max(a.num.numerator.bit_length(), a.num.denominator.bit_length())
        if f.exponent * (bits - 1) >= MAX_DEGREE_BITS:
            raise CarrierError(f"pow({f.exponent}) of {a} needs more than "
                               f"{MAX_DEGREE_BITS} bits")
        return _result(q, a.num ** f.exponent)
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

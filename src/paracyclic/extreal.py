"""Exact arithmetic on the extended reals [-inf, inf].

Finite values are exact rationals (``fractions.Fraction``).  Addition is
total except on the pairs (+inf, -inf) and (-inf, +inf); subtraction is
total except on (+inf, +inf) and (-inf, -inf).  Where defined, addition is
commutative and associative, and subtraction is skew-commutative:
a - b = -(b - a).

Gap vectors of corner-space points live in the upper half (-inf, inf];
``require_upper`` enforces that sub-type at run time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import MalformedInput, UndefinedExtOp

_FIN, _POS, _NEG = 0, 1, -1

RationalLike = Union[int, Fraction]


class ExtReal:
    """An element of [-inf, inf] with exact rational finite part."""

    __slots__ = ("_kind", "_q")

    def __init__(self, value: RationalLike):
        self._kind = _FIN
        self._q = Fraction(value)

    @classmethod
    def _make(cls, kind: int) -> "ExtReal":
        out = object.__new__(cls)
        out._kind = kind
        out._q = None
        return out

    # -- predicates ----------------------------------------------------------

    @property
    def is_pos_inf(self) -> bool:
        return self._kind == _POS

    @property
    def is_neg_inf(self) -> bool:
        return self._kind == _NEG

    @property
    def finite(self) -> Fraction:
        if self._kind != _FIN:
            raise UndefinedExtOp(f"{self} has no finite part")
        return self._q

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ExtReal") -> "ExtReal":
        a, b = self._kind, other._kind
        if a == _FIN and b == _FIN:
            return ExtReal(self._q + other._q)
        if (a, b) in ((_POS, _NEG), (_NEG, _POS)):
            raise UndefinedExtOp("inf + (-inf) is undefined")
        return self if a != _FIN else other

    def __neg__(self) -> "ExtReal":
        if self._kind == _FIN:
            return ExtReal(-self._q)
        return NEG_INF if self._kind == _POS else POS_INF

    def __sub__(self, other: "ExtReal") -> "ExtReal":
        a, b = self._kind, other._kind
        if a != _FIN and a == b:
            raise UndefinedExtOp("inf - inf is undefined")
        return self + (-other)

    # -- total order ---------------------------------------------------------

    def __le__(self, other: "ExtReal") -> bool:
        a, b = self._kind, other._kind
        if a == b:
            return True if a != _FIN else self._q <= other._q
        return a == _NEG or b == _POS

    def __lt__(self, other: "ExtReal") -> bool:
        return self <= other and not (other <= self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self._kind == other._kind and self._q == other._q

    def __hash__(self):
        return hash((self._kind, self._q))

    # -- text encoding: "p/q", "inf", "-inf" ----------------------------------

    def token(self) -> str:
        if self._kind == _POS:
            return "inf"
        if self._kind == _NEG:
            return "-inf"
        return f"{self._q.numerator}/{self._q.denominator}"

    @classmethod
    def from_token(cls, text: str) -> "ExtReal":
        text = text.strip()
        if text == "inf":
            return POS_INF
        if text == "-inf":
            return NEG_INF
        try:
            if "/" in text:
                num, den = text.split("/")
                return cls(Fraction(int(num), int(den)))
            return cls(Fraction(int(text)))
        except (ValueError, ZeroDivisionError):
            raise MalformedInput(
                f"{text!r} is not inf, -inf, an integer or p/q with q != 0") from None

    def __repr__(self):
        return f"ExtReal({self.token()!r})"


POS_INF = ExtReal._make(_POS)
NEG_INF = ExtReal._make(_NEG)
ZERO = ExtReal(0)


def as_ext(value) -> ExtReal:
    """Coerce an int, Fraction, token string, or ExtReal to ExtReal."""
    if isinstance(value, ExtReal):
        return value
    if isinstance(value, str):
        return ExtReal.from_token(value)
    return ExtReal(value)


def require_upper(x: ExtReal) -> ExtReal:
    """Enforce the (-inf, inf] sub-type used for gap coordinates."""
    if x.is_neg_inf:
        raise UndefinedExtOp("value must lie in (-inf, inf]")
    return x


def ext_add(a: ExtReal, b: ExtReal) -> ExtReal:
    return a + b


def ext_sub(a: ExtReal, b: ExtReal) -> ExtReal:
    return a - b


def ext_sum(values: Iterable[ExtReal]) -> ExtReal:
    """Sum of upper extended reals: +inf dominates, empty sum is 0."""
    total = Fraction(0)
    for v in values:
        require_upper(v)
        if v.is_pos_inf:
            return POS_INF
        total += v.finite
    return ExtReal(total)

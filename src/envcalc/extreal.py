"""Extended-real scalars with one-sided infinity arithmetic.

The whole library leans on three conventions, applied everywhere without
exception:

    (+inf) + (-inf) = +inf        sup over an empty set = -inf
                                  inf over an empty set = +inf

Finite payloads come in two flavours: exact rationals (``fractions.Fraction``,
used by the 1D exact backend) and 64-bit floats (grid backend).  Plain ``int``
is neutral and combines with either.  A rational and a float are never
compared or combined silently; doing so raises :class:`MixedScalarError` so
that float tolerances cannot leak into exact computations.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, float, Fraction]

_FIN = 0
_POS = 1
_NEG = -1


class MixedScalarError(TypeError):
    """Exact (Fraction) and float payloads met in a single operation."""


def _kind(v: Scalar) -> str | None:
    # int is neutral: exactly representable in both backends.
    if isinstance(v, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(v, int):
        return None
    if isinstance(v, Fraction):
        return "exact"
    if isinstance(v, float):
        return "float"
    raise TypeError(f"unsupported scalar type {type(v).__name__}")


def _check_mix(a: Scalar, b: Scalar) -> None:
    ka, kb = _kind(a), _kind(b)
    if ka is not None and kb is not None and ka != kb:
        raise MixedScalarError(
            f"refusing to combine exact and float payloads ({a!r} vs {b!r})"
        )


class ExtReal:
    """An element of the extended real line with a tagged payload."""

    __slots__ = ("tag", "value")

    def __init__(self, value: Scalar | None = None, *, _tag: int = _FIN):
        if _tag == _FIN:
            if value is None:
                raise TypeError("finite ExtReal needs a payload")
            if isinstance(value, float) and value != value:
                raise ValueError("NaN is not an extended real")
            if isinstance(value, float) and (value == float("inf") or value == float("-inf")):
                _tag = _POS if value > 0 else _NEG
                value = None
            _kind(value) if value is not None else None
        object.__setattr__(self, "tag", _tag)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("ExtReal is immutable")

    # ---- predicates -------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return self.tag == _FIN

    @property
    def is_pos_inf(self) -> bool:
        return self.tag == _POS

    @property
    def is_neg_inf(self) -> bool:
        return self.tag == _NEG

    # ---- arithmetic -------------------------------------------------
    def __neg__(self) -> "ExtReal":
        if self.tag == _POS:
            return NEG_INF
        if self.tag == _NEG:
            return POS_INF
        return ExtReal(-self.value)

    def __add__(self, other) -> "ExtReal":
        other = as_extreal(other)
        return ext_add(self, other)

    __radd__ = __add__

    def __sub__(self, other) -> "ExtReal":
        return ext_add(self, -as_extreal(other))

    def __rsub__(self, other) -> "ExtReal":
        return ext_add(as_extreal(other), -self)

    # ---- order ------------------------------------------------------
    def _cmp(self, other: "ExtReal") -> int:
        if self.tag != other.tag:
            return -1 if self.tag < other.tag else 1
        if self.tag != _FIN:
            return 0
        _check_mix(self.value, other.value)
        if self.value == other.value:
            return 0
        return -1 if self.value < other.value else 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ExtReal, int, float, Fraction)):
            return NotImplemented
        return self._cmp(as_extreal(other)) == 0

    def __lt__(self, other) -> bool:
        return self._cmp(as_extreal(other)) < 0

    def __le__(self, other) -> bool:
        return self._cmp(as_extreal(other)) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(as_extreal(other)) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(as_extreal(other)) >= 0

    def __hash__(self) -> int:
        if self.tag != _FIN:
            return hash(("extreal", self.tag))
        return hash(self.value)

    # ---- misc -------------------------------------------------------
    def __repr__(self) -> str:
        if self.tag == _POS:
            return "ExtReal(+inf)"
        if self.tag == _NEG:
            return "ExtReal(-inf)"
        return f"ExtReal({self.value!r})"

    def __float__(self) -> float:
        if self.tag == _POS:
            return float("inf")
        if self.tag == _NEG:
            return float("-inf")
        return float(self.value)

    def finite(self) -> Scalar:
        """The payload; raises on infinities."""
        if self.tag != _FIN:
            raise ValueError(f"{self!r} has no finite payload")
        return self.value


POS_INF = ExtReal(_tag=_POS)
NEG_INF = ExtReal(_tag=_NEG)


def as_extreal(x: Union[ExtReal, Scalar]) -> ExtReal:
    if isinstance(x, ExtReal):
        return x
    return ExtReal(x)


def ext_add(a: Union[ExtReal, Scalar], b: Union[ExtReal, Scalar]) -> ExtReal:
    """Total addition: any PosInf operand wins, then NegInf, else payload sum."""
    a, b = as_extreal(a), as_extreal(b)
    if a.tag == _POS or b.tag == _POS:
        return POS_INF
    if a.tag == _NEG or b.tag == _NEG:
        return NEG_INF
    _check_mix(a.value, b.value)
    return ExtReal(a.value + b.value)


def ext_sub(a: Union[ExtReal, Scalar], b: Union[ExtReal, Scalar]) -> ExtReal:
    return ext_add(a, -as_extreal(b))


def ext_sup(values: Iterable[Union[ExtReal, Scalar]]) -> ExtReal:
    """Supremum; empty input gives -inf."""
    best = NEG_INF
    for v in values:
        v = as_extreal(v)
        if best._cmp(v) < 0:
            best = v
    return best


def ext_inf(values: Iterable[Union[ExtReal, Scalar]]) -> ExtReal:
    """Infimum; empty input gives +inf."""
    best = POS_INF
    for v in values:
        v = as_extreal(v)
        if best._cmp(v) > 0:
            best = v
    return best


# ---- text round-trip (instance JSON / CSV cells) --------------------

def format_scalar(x: Union[ExtReal, Scalar]) -> str:
    """Render a scalar for files: rationals as 'p/q' (or 'p' when q = 1),
    infinities as 'inf'/'-inf', other payloads by their repr.  An ExtReal
    or a Fraction is spelled directly; any other scalar is boxed first, which
    refuses a bool or a NaN."""
    if isinstance(x, ExtReal):
        if x.tag != _FIN:
            return "inf" if x.tag == _POS else "-inf"
        x = x.value
    elif not isinstance(x, Fraction):
        return format_scalar(ExtReal(x))
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return repr(x)


def _float(x) -> float:
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{x} is too large for a float") from None


def parse_scalar(s: Union[str, int, float], *, exact: bool | None = None) -> ExtReal:
    """Parse a file cell.  'p/q' and bare ints parse exact; decimals parse float.

    ``exact=True`` forces rational parsing of decimal strings (exact: every
    finite decimal is rational); ``exact=False`` forces float, ints and
    'p/q' included.
    """
    if isinstance(s, (int, float)) and not isinstance(s, bool):
        if exact is True:
            return ExtReal(Fraction(s))
        if isinstance(s, int) and exact is None:
            return ExtReal(s)
        return ExtReal(_float(s))
    if not isinstance(s, str):
        raise TypeError(f"cannot parse scalar from {type(s).__name__}")
    t = s.strip()
    low = t.lower()
    if low in ("inf", "+inf", "infinity", "+infinity"):
        return POS_INF
    if low in ("-inf", "-infinity"):
        return NEG_INF
    if "/" in t:
        num, den = t.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        q = Fraction(int(num), int(den))
        return ExtReal(_float(q) if exact is False else q)
    try:
        i = int(t)
    except ValueError:
        pass
    else:
        if exact is None:
            return ExtReal(i)
        return ExtReal(Fraction(i) if exact else _float(i))
    if exact:
        m = _EXPONENT_DECIMAL.fullmatch(t)
        if m and sum(map(str.isdigit, m[1])) + abs(int(m[2])) > MAX_EXACT_DIGITS:
            raise ValueError(f"{s!r} has over {MAX_EXACT_DIGITS} digits as an exact rational")
        return ExtReal(Fraction(t))
    x = float(t)
    if x in (math.inf, -math.inf):  # the spellings of an infinity are read above
        raise ValueError(f"{t} is too large for a float")
    return ExtReal(x)


# an exact decimal with an exponent spans up to (its digits + |exponent|)
# decimal digits: Fraction("1e999999999") would build 10**999999999
MAX_EXACT_DIGITS = 4300
_EXPONENT_DECIMAL = re.compile(r"[-+]?([\d_.]*)[eE]([-+]?\d+(?:_\d+)*)")

# the finite spellings that format_scalar writes for an exact payload
_EXACT_SPELLING = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_finite_exact(s) -> Fraction:
    """``parse_scalar(s, exact=True).finite()``, with the same value, type
    and errors.  The spellings ``format_scalar`` writes for an exact
    payload, ``[-]int`` and ``[-]int/int`` with a nonzero denominator, go
    straight to a Fraction; anything else goes through ``parse_scalar``."""
    if type(s) is str and _EXACT_SPELLING.fullmatch(s):
        num, _, den = s.partition("/")
        if not den:
            return Fraction(int(num))
        d = int(den)
        if d:
            return Fraction(int(num), d)
    return parse_scalar(s, exact=True).finite()

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from envcalc.extreal import (
    MAX_EXACT_DIGITS,
    ExtReal,
    MixedScalarError,
    NEG_INF,
    POS_INF,
    as_extreal,
    ext_add,
    ext_inf,
    ext_sub,
    ext_sup,
    format_scalar,
    parse_finite_exact,
    parse_scalar,
)


def test_sum_convention_is_sup_biased():
    assert ext_add(POS_INF, NEG_INF) == POS_INF
    assert ext_add(NEG_INF, POS_INF) == POS_INF


def test_empty_sup_and_inf():
    assert ext_sup(()) == NEG_INF
    assert ext_inf(()) == POS_INF
    assert ext_sup(iter(())) == NEG_INF


def test_infinities_absorb():
    assert ext_add(POS_INF, ExtReal(Fraction(3))) == POS_INF
    assert ext_add(NEG_INF, ExtReal(Fraction(3))) == NEG_INF
    assert ext_sub(ExtReal(Fraction(1)), POS_INF) == NEG_INF


def test_mixed_backends_rejected():
    with pytest.raises(MixedScalarError):
        ext_add(ExtReal(Fraction(1)), ExtReal(0.5))
    with pytest.raises(MixedScalarError):
        ExtReal(Fraction(1)) < ExtReal(0.5)


def test_comparisons_accept_plain_scalars():
    a = ExtReal(Fraction(1, 2))
    assert a < 1
    assert a <= Fraction(1, 2)
    assert a == Fraction(1, 2)
    assert POS_INF > a
    assert NEG_INF < a
    assert not (POS_INF < POS_INF)


def test_finite_extraction():
    assert ExtReal(Fraction(7, 2)).finite() == Fraction(7, 2)
    with pytest.raises(ValueError):
        POS_INF.finite()


@pytest.mark.parametrize(
    "value,text",
    [
        (ExtReal(Fraction(3, 4)), "3/4"),
        (ExtReal(Fraction(-5)), "-5"),
        (POS_INF, "inf"),
        (NEG_INF, "-inf"),
    ],
)
def test_format_scalar(value, text):
    assert format_scalar(value) == text


def test_format_float_uses_repr():
    assert format_scalar(ExtReal(0.1)) == repr(0.1)


def _boxed_format(x):
    """format_scalar as it was spelled through as_extreal: the reference
    of the direct spelling."""
    x = as_extreal(x)
    if x.is_pos_inf:
        return "inf"
    if x.is_neg_inf:
        return "-inf"
    v = x.value
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    return repr(v)


_payloads = st.one_of(
    st.integers(), st.integers(-(2**70), 2**70), st.fractions(),
    st.builds(Fraction, st.integers(), st.integers(1, 2**64)), st.floats(allow_nan=False),
)


@given(st.one_of(_payloads, _payloads.map(ExtReal), st.sampled_from([POS_INF, NEG_INF])))
@settings(max_examples=500)
def test_format_scalar_matches_the_boxed_spelling(x):
    assert format_scalar(x) == _boxed_format(x)


@pytest.mark.parametrize("x", [math.nan, True, "1/2", None])
def test_format_scalar_refuses_what_boxing_refuses(x):
    with pytest.raises((TypeError, ValueError)) as want:
        _boxed_format(x)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        format_scalar(x)


def test_parse_scalar_round_trips_exact():
    for s in ("3/4", "-5", "0", "1287361/17"):
        v = parse_scalar(s, exact=True)
        assert format_scalar(v) == s
    assert parse_scalar("inf").is_pos_inf
    assert parse_scalar("-inf").is_neg_inf


@given(st.fractions(max_denominator=10**6))
def test_parse_format_round_trip_property(q):
    assert parse_scalar(format_scalar(ExtReal(q)), exact=True).finite() == q


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_round_trip_property(x):
    assert parse_scalar(format_scalar(ExtReal(x)), exact=False).finite() == x


def test_as_extreal_passthrough():
    assert as_extreal(POS_INF) is POS_INF
    assert as_extreal(Fraction(2)) == ExtReal(Fraction(2))
    assert as_extreal(math.inf).is_pos_inf
    assert as_extreal(-math.inf).is_neg_inf


@given(
    st.lists(st.fractions(max_denominator=1000), min_size=1, max_size=8)
)
def test_sup_inf_agree_with_builtin(qs):
    vals = [ExtReal(q) for q in qs]
    assert ext_sup(vals).finite() == max(qs)
    assert ext_inf(vals).finite() == min(qs)


def test_parse_scalar_exact_false_gives_floats():
    for cell, want in ((1, 1.0), ("1", 1.0), ("-3", -3.0), ("1/2", 0.5), ("0.25", 0.25)):
        got = parse_scalar(cell, exact=False).finite()
        assert type(got) is float and got == want
    # exact and default parsing keep their payloads
    assert parse_scalar(1, exact=True).finite() == Fraction(1)
    assert type(parse_scalar(1, exact=True).finite()) is Fraction
    assert type(parse_scalar(1).finite()) is int
    assert type(parse_scalar("1").finite()) is int
    assert parse_scalar("1/2").finite() == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_scalar(10**400, exact=False)


def _outcome(call, s):
    try:
        v = call(s)
    except Exception as e:  # the type and the message are compared
        return type(e), str(e)
    return type(v), v


def _slow_exact(s):
    return parse_scalar(s, exact=True).finite()


# near-misses of the exact spellings: signs, spaces, slashes, zero
# denominators, decimals, exponents, non-ASCII digits, infinities and long
# ints; exponents past MAX_EXACT_DIGITS are refused before Fraction sees them
_near_exact = st.lists(
    st.sampled_from(
        ["-", "+", "/", "0", "1", "7", "00", " ", ".", "_", "\n", "\u0663",
         "inf", "x", "9" * 30, "e", "E", "e-"]
    ),
    max_size=8,
).map("".join)

_exponent_decimals = st.tuples(
    st.sampled_from(["1", "-2.5", ".5", "1_0", "0.000"]),
    st.sampled_from(["e", "E"]),
    st.integers(-MAX_EXACT_DIGITS - 3, MAX_EXACT_DIGITS + 3) | st.integers(-10**12, 10**12),
).map(lambda t: f"{t[0]}{t[1]}{t[2]}")


@given(
    st.one_of(
        st.text(max_size=12),
        _near_exact,
        _exponent_decimals,
        st.fractions().map(format_scalar),
        st.tuples(st.integers(), st.integers(0, 3)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.integers().map(str),
        st.integers(),
        st.floats(allow_nan=False),
        st.booleans(),
        st.none(),
    )
)
@settings(max_examples=1000, deadline=None)
def test_fast_exact_parse_matches_parse_scalar(s):
    assert _outcome(parse_finite_exact, s) == _outcome(_slow_exact, s)


@pytest.mark.parametrize("s", [
    "3/0", "-0/0", "1/-2", "-3", "-0", "007/010", " 1/2", "1/2 ", "1//2", "1/2/3",
    "٣", "1_000", "inf", "-inf", "1.5", "", "-", "/", "1" * 5000, "1/" + "2" * 5000,
])
def test_fast_exact_parse_edge_spellings(s):
    assert _outcome(parse_finite_exact, s) == _outcome(_slow_exact, s)


@pytest.mark.parametrize("s,digits", [
    ("1e4299", 4300), ("-1E-4299", 4300), ("12.5e4298", 4301), ("1e4300", 4301),
    (".5e-4299", 4300), ("0.000e4297", 4301), ("1e1_0", 11), ("1e999999999", None),
    ("-7.25e-999999999999", None), ("1e" + "9" * 60, None),
])
def test_exact_decimal_exponent_bound(s, digits):
    """An exact decimal with an exponent parses when its digits plus the
    exponent's size stay within MAX_EXACT_DIGITS and is refused, before any
    power of ten is built, when they exceed it."""
    if digits is not None and digits <= MAX_EXACT_DIGITS:
        assert parse_scalar(s, exact=True).finite() == Fraction(s)
        return
    for call in (lambda: parse_scalar(s, exact=True), lambda: parse_finite_exact(s)):
        with pytest.raises(ValueError, match=f"has over {MAX_EXACT_DIGITS} digits"):
            call()


@pytest.mark.parametrize(
    "s", ["1e999999999", "-1e400", " 2E+308 ", "1.8e308", "1" + "0" * 400],
    ids=["1e999999999", "-1e400", "2E+308", "1.8e308", "int-401-digits"],
)
def test_float_route_refuses_a_number_past_the_float_range(s):
    """A finite spelling that rounds past the float range is refused with
    one message, decimal or int alike; only the spellings of an infinity
    read as one.  The default route reads a decimal as a float too, and an
    int spelling as an exact int."""
    for exact in (False, None) if "e" in s.lower() else (False,):
        with pytest.raises(ValueError, match="is too large for a float"):
            parse_scalar(s, exact=exact)


def test_float_route_reads_infinities_and_underflow():
    # float() reads these in linear time; a tiny decimal rounds to zero
    for s in ("inf", "+Infinity", " -INF "):
        assert parse_scalar(s, exact=False) == parse_scalar(s) == float(s)
    assert parse_scalar("-1e-999999999", exact=False).finite() == 0.0
    assert parse_scalar("1.7976931348623157e308", exact=False).finite() == 1.7976931348623157e308

import math
import re
import struct
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

import oracles
from irmcg.arithmetic import (
    EXPONENT_BOUND,
    BitBudget,
    bit_size,
    demote,
    format_double,
    format_rational,
    parse_count,
    parse_decimal,
    parse_double,
    parse_integer,
    parse_rational,
    rationalize,
    snap_zero,
)
from irmcg.errors import BudgetExceeded, FormatError, InvalidScalar, ScalarOverflow

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestRationalize:
    def test_exact_binary_half(self):
        assert rationalize(0.5) == F(1, 2)

    def test_signed_zero_normalizes(self):
        q = rationalize(-0.0)
        assert q == 0 and q.denominator == 1

    def test_tenth_is_not_one_tenth(self):
        q = rationalize(0.1)
        assert q.denominator == 2**55
        assert q.numerator % 2 == 1
        assert q == oracles.binary_expansion(0.1)

    @given(finite)
    def test_matches_independent_expansion(self, x):
        assert rationalize(x) == oracles.binary_expansion(x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidScalar):
            rationalize(bad)


class TestDemote:
    def test_half(self):
        assert demote(F(1, 2)) == 0.5

    def test_zero(self):
        assert demote(F(0)) == 0.0

    def test_third_within_half_ulp(self):
        d = demote(F(1, 3))
        err = abs(F(d) - F(1, 3))
        assert err <= F(math.ulp(d)) / 2

    def test_overflow(self):
        with pytest.raises(ScalarOverflow):
            demote(F(10) ** 400)

    @pytest.mark.parametrize("big", [-F(10) ** 400, F(10**400, 3), 10**400])
    def test_overflow_signed_fractional_and_int(self, big):
        with pytest.raises(ScalarOverflow):
            demote(big)

    @given(st.integers(-(2**1000), 2**1000), st.integers(1, 2**1100))
    def test_matches_float_of_fraction(self, num, den):
        q = F(num, den)
        assert struct.pack("<d", demote(q)) == struct.pack("<d", float(q))

    @given(finite)
    def test_round_trip_is_identity(self, x):
        back = demote(rationalize(x))
        assert back == x
        if x != 0.0:  # -0.0 legitimately normalizes to +0.0
            assert struct.pack("<d", back) == struct.pack("<d", x)


class TestSnapZero:
    def test_below_threshold(self):
        assert snap_zero(F(1, 10**20), F(1, 10**12)) == 0

    def test_above_threshold_unchanged(self):
        assert snap_zero(F(1, 2), F(1, 10**12)) == F(1, 2)

    def test_negative_magnitude(self):
        assert snap_zero(F(-1, 10**13), F(1, 10**12)) == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            snap_zero(F(1), F(-1))

    @given(st.fractions(), st.fractions(min_value=0))
    def test_idempotent(self, q, t):
        once = snap_zero(q, t)
        assert snap_zero(once, t) == once


class TestFieldAxioms:
    @given(st.fractions(), st.fractions(), st.fractions())
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(st.fractions())
    def test_additive_inverse(self, a):
        assert a + (-a) == 0

    @given(st.fractions(), st.fractions().filter(lambda q: q != 0))
    def test_division_inverts_multiplication(self, a, b):
        assert (a / b) * b == a


class TestBitBudget:
    def test_default_is_one_million_bits(self):
        assert BitBudget().max_bits == 1_000_000

    def test_floor_of_64_bits(self):
        with pytest.raises(ValueError):
            BitBudget(63)
        BitBudget(64)

    def test_budget_is_an_integer(self):
        with pytest.raises(ValueError, match="bit budget must be an integer"):
            BitBudget(64.5)

    def test_check_passes_small_values(self):
        BitBudget(64).check(F(3, 7))

    def test_check_raises_beyond_budget(self):
        wide = F(1, 2**70)
        assert bit_size(wide) == 71
        with pytest.raises(BudgetExceeded):
            BitBudget(64).check(wide)


class TestLiteralGrammar:
    @pytest.mark.parametrize(
        "text,value",
        [("7", F(7)), ("-36/25", F(-36, 25)), ("+3/5", F(3, 5)), ("0", F(0))],
    )
    def test_accepts(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["0.5", "3/", "/5", "3/0", "1e3", "", "3 / 5"])
    def test_rejects(self, text):
        with pytest.raises(FormatError):
            parse_rational(text)


class TestDecimalParsing:
    def test_scientific_is_exact(self):
        assert parse_decimal("1e-10") == F(1, 10**10)

    def test_decimal_point_is_exact(self):
        assert parse_decimal("0.1") == F(1, 10)

    def test_rational_literals_still_work(self):
        assert parse_decimal("-36/25") == F(-36, 25)

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            parse_decimal("eps")

    @pytest.mark.parametrize("text", [
        "\u0663/\u0664", "\uff11e-3", "0_5", "1_000", "1e1_0", "\u0661.5", "inf", "nan",
        ".", "1/0", "1.5/2", "3 / 4", "", "1" * 4301,
    ])
    def test_only_ascii_text_is_read(self, text):
        with pytest.raises(FormatError, match="not a number"):
            parse_decimal(text)

    @pytest.mark.parametrize("text, value", [
        (" 5. ", F(5)), (".5", F(1, 2)), ("+.5e3", F(500)), ("1E+05", F(10**5)),
        ("-0", F(0)), ("00012.5000e-0003", F(1, 80)), ("-7/14", F(-1, 2)),
        ("1" * 4300 + ".5", int("1" * 4300) + F(1, 2)),
    ])
    def test_ascii_reads_as_fraction_does(self, text, value):
        assert parse_decimal(text) == value == oracles.fraction_parse_decimal(text)

    def test_exponent_bound(self):
        assert EXPONENT_BOUND == 4300
        assert parse_decimal("1e-4300") == F(1, 10**4300)
        assert parse_decimal("2.5E+4300") == 25 * F(10) ** 4299
        assert parse_decimal("1e-0000000000000000004300") == F(1, 10**4300)
        for text in ["1e-4301", "1e4301", "1e-9999999", "1e" + "9" * 5000]:
            with pytest.raises(FormatError, match="exponent past 4300"):
                parse_decimal(text)

    @given(st.text(alphabet="0123456789+-./eE \t", max_size=12))
    def test_matches_fraction_on_ascii(self, text):
        try:
            got = parse_decimal(text)
        except FormatError as exc:
            assume("exponent" not in str(exc))  # Fraction() would build it
            with pytest.raises(FormatError, match="not a number"):
                oracles.fraction_parse_decimal(text)
            return
        assert got == oracles.fraction_parse_decimal(text)


# The grammars the readers implement, spelled out.
DIGITS = re.compile(r"[0-9]+")
INTEGER = re.compile(r"[+-]?[0-9]+")
DOUBLE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)", re.IGNORECASE)


class TestIntegerReaders:
    @pytest.mark.parametrize("text, value", [("0", 0), ("007", 7), (" 12\n", 12)])
    def test_index(self, text, value):
        assert parse_count(text, 0) == value

    @pytest.mark.parametrize("text, value", [("1", 1), ("42", 42), ("1" * 30, int("1" * 30))])
    def test_count(self, text, value):
        assert parse_count(text) == value

    @pytest.mark.parametrize("text, value", [("-3", -3), ("+3", 3), ("-0", 0), (" 9 ", 9)])
    def test_integer(self, text, value):
        assert parse_integer(text) == value

    @pytest.mark.parametrize("reader", [lambda t: parse_count(t, 0), parse_count, parse_integer])
    @pytest.mark.parametrize("text", [
        "\u0663", "\uff13", "1_0", "1.0", "1e3", "", "x", "+-1", "1" * 4301,
    ])
    def test_rejects(self, reader, text):
        with pytest.raises(FormatError, match="^not an integer: "):
            reader(text)

    @pytest.mark.parametrize("text", ["+1", "-1"])
    def test_counts_have_no_sign(self, text):
        with pytest.raises(FormatError, match="^not an integer: "):
            parse_count(text, 0)

    def test_count_is_positive(self):
        with pytest.raises(FormatError, match="^count must be positive, got 0$"):
            parse_count("00")

    @given(st.text(alphabet="0123456789+-_ \t\u0663\uff13", max_size=8))
    def test_integer_grammar(self, text):
        if INTEGER.fullmatch(text.strip()):
            assert parse_integer(text) == int(text)
        else:
            with pytest.raises(FormatError):
                parse_integer(text)
        if DIGITS.fullmatch(text.strip()):
            assert parse_count(text, 0) == int(text)
        else:
            with pytest.raises(FormatError):
                parse_count(text, 0)


class TestDoubleReader:
    @given(st.floats())
    def test_reads_what_format_double_writes(self, x):
        y = parse_double(format_double(x))
        assert y == x or (math.isnan(x) and math.isnan(y))

    @pytest.mark.parametrize("text", [
        "\u0661.5", "\uff11.5", "1_0.5", "1e1_0", "0x10", "", ".", "e5", "in", "nan(1)",
    ])
    def test_rejects(self, text):
        with pytest.raises(FormatError, match="^not a double literal: "):
            parse_double(text)

    @given(st.text(alphabet="0123456789+-._eEinfatyINFATY \t\u0661\uff11", max_size=10))
    def test_double_grammar(self, text):
        if DOUBLE.fullmatch(text.strip()):
            got, expected = parse_double(text), float(text)
            assert got == expected or (math.isnan(got) and math.isnan(expected))
        else:
            with pytest.raises(FormatError):
                parse_double(text)


class TestFormatting:
    def test_rational_always_shows_denominator(self):
        assert format_rational(F(3)) == "3/1"
        assert format_rational(F(-1, 2)) == "-1/2"

    def test_double_shortest_round_trip(self):
        assert format_double(0.1) == "0.1"
        assert float(format_double(1 / 3)) == 1 / 3

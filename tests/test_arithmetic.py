import math
import struct
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import oracles
from irmcg.arithmetic import (
    BitBudget,
    bit_size,
    demote,
    format_double,
    format_rational,
    parse_decimal,
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


class TestFormatting:
    def test_rational_always_shows_denominator(self):
        assert format_rational(F(3)) == "3/1"
        assert format_rational(F(-1, 2)) == "-1/2"

    def test_double_shortest_round_trip(self):
        assert format_double(0.1) == "0.1"
        assert float(format_double(1 / 3)) == 1 / 3

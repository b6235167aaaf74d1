"""Scalar backends and conversions between them.

Two backends are supported throughout the package:

* ``exact``  -- arbitrary-precision rationals (``fractions.Fraction``),
  always in canonical reduced form, closed under +, -, *, / by nonzero.
* ``f64``    -- IEEE-754 binary64.  NaN and infinities are rejected at
  every module boundary.

Every finite double is itself a rational number p / 2^e, so conversion
from ``f64`` to ``exact`` is performed bit-exactly and never through a
decimal string.  A separate decimal parser exists for human-authored
input (tolerances, thresholds, file entries).
"""

import functools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, FormatError, InvalidScalar, ScalarOverflow

EXACT = "exact"
F64 = "f64"

# The scalar type of each backend.  It coerces scalar arguments, and as a
# NumPy dtype (Fraction maps to object) it fixes the storage of f64
# vectors and of the Fraction view of exact ones.  Coercion matters: a
# Fraction times a float64 array is an object array.
SCALAR = {EXACT: Fraction, F64: float}

ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


def any_size(fn):
    """fn with Python's limit on int <-> decimal string conversions lifted.

    CPython (3.10.7 and later) refuses to convert ints of more than 4300
    digits to or from text; rationals here reach the --max-bits budget,
    about 301,000 digits at its default.  The limit is restored on
    return.  Where the interpreter has no such limit, fn is returned as
    it is.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return fn

    @functools.wraps(fn)
    def unlimited(*args, **kwargs):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(old)

    return unlimited


def rationalize(x):
    """Return the exact rational value of a finite double.

    The result is the stored binary64 datum as a fraction with a power
    of two denominator, in canonical form.  No decimal reinterpretation
    takes place: rationalize(0.1) is 3602879701896397 / 2**55, not 1/10.
    """
    x = float(x)
    if not math.isfinite(x):
        raise InvalidScalar("cannot rationalize %r" % x)
    return Fraction(x)


def demote(q):
    """Round an exact rational to the nearest binary64 (ties to even).

    A float is already a binary64 and is returned as a Python float.
    """
    if isinstance(q, float):
        return float(q)
    if not isinstance(q, Fraction):
        q = Fraction(q)
    try:
        # Correctly rounded int division; float(q) does the same, more slowly.
        return q.numerator / q.denominator
    except OverflowError:
        raise ScalarOverflow("%s does not fit in a double" % format_rational(q)) from None


def snap_zero(q, threshold):
    """Return 0/1 when |q| <= threshold, otherwise q unchanged."""
    if threshold < 0:
        raise ValueError("snap threshold must be nonnegative")
    if abs(q) <= threshold:
        return ZERO
    return q


def bit_size(q):
    """Larger of the numerator and denominator bit lengths."""
    return max(q.numerator.bit_length(), q.denominator.bit_length())


@dataclass(frozen=True)
class BitBudget:
    """Abort guard for runaway rational growth during a solver run.

    Exact arithmetic can grow numerators and denominators without bound;
    when any scalar in the solver state exceeds max_bits the run aborts
    with BudgetExceeded rather than thrash or return wrong results.
    """

    max_bits: int = 1_000_000

    def __post_init__(self):
        if self.max_bits < 64:
            raise ValueError("bit budget must be at least 64 bits")

    def check(self, q):
        if bit_size(q) > self.max_bits:
            raise BudgetExceeded(
                "scalar grew to %d bits (budget %d)" % (bit_size(q), self.max_bits)
            )


def rational_parts(text):
    """Split a rational literal into ints (p, q), q > 0, not reduced.

    The strict grammar of matrix and vector files: optional sign,
    integer, optional /positive-integer (e.g. "-36/25", "7", "2/4").
    Decimal notation is rejected.  Literals past 4300 digits need
    Python's limit lifted by the caller (``any_size``).
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise FormatError("not a rational literal: %r" % text)
    num, _, den = text.partition("/")
    den = int(den) if den else 1
    if den == 0:
        raise FormatError("zero denominator in %r" % text)
    return int(num), den


@any_size
def parse_rational(text):
    """The Fraction of a rational literal (grammar: ``rational_parts``)."""
    return Fraction(*rational_parts(text))


def parse_decimal(text):
    """Parse a human-authored number into an exact rational.

    Accepts rational literals plus decimal and scientific notation;
    the decimal forms are read exactly ("1e-10" -> 1/10**10,
    "0.1" -> 1/10), so tolerances keep their intended value.
    """
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise FormatError("not a number: %r" % text) from None


@any_size
def format_rational(q):
    """Serialize an exact rational as num/den (denominator always shown)."""
    return "%d/%d" % (q.numerator, q.denominator)


def format_double(x):
    """Shortest round-trip decimal form of a double."""
    return repr(float(x))

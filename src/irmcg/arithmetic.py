"""Scalar backends and conversions between them.

Two backends are supported throughout the package:

* ``exact``  -- arbitrary-precision rationals (``fractions.Fraction``),
  always in canonical reduced form, closed under +, -, *, / by nonzero.
* ``f64``    -- IEEE-754 binary64.  NaN and infinities are rejected at
  every module boundary.

Every finite double is itself a rational number p / 2^e, so conversion
from ``f64`` to ``exact`` is performed bit-exactly and never through a
decimal string.

Every number the package reads from text is read here, each kind by
one reader with one ASCII grammar (README, "Numbers in text"): counts
and naturals, integers, doubles, rational literals and human decimals.
"""

import functools
import math
import operator
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

# The grammar of rational literals, matched whole.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

EXPONENT_BOUND = 4300  # of a human decimal; CPython's default int/str digit limit

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


def as_integer(value, name):
    """value as an int if it is an integer (int, bool, NumPy integer); else ValueError.

    Counts and indices that Python callers pass go through here, so that
    2.5 or "3" is refused instead of truncated or written to a trace.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, value)) from None


def _read(text, reader, refusal, error=None):
    """reader(text) on stripped text that is ASCII with no "_"; else FormatError.

    On such text int(), float() and Fraction() read exactly the ASCII
    grammars: "_" and non-ASCII digits are all they accept beyond them.
    The error's text is ``error``, or else ``refusal % text``.
    """
    text = str(text).strip()
    if text.isascii() and "_" not in text:
        try:
            return reader(text)
        except (ValueError, ZeroDivisionError):  # not a number, past the digit limit, or q = 0
            pass
    raise FormatError(error or refusal % (text,))


def parse_integer(text, error=None):
    """An int: ASCII digits with an optional sign."""
    return _read(text, int, "not an integer: %r", error)


def parse_count(text, least=1):
    """An int in ASCII digits, at least least: 1 for a size or count, 0 for an index."""
    value = parse_integer(text)
    if not text.strip().isdigit():
        raise FormatError("not an integer: %r" % text.strip())
    if value < least:
        raise FormatError("count must be positive, got %d" % value)
    return value


def parse_double(text):
    """A float of ASCII decimal or scientific text, or inf, infinity or nan in any case."""
    return _read(text, float, "not a double literal: %r")


def rational_parts(text):
    """Split a rational literal into ints (p, q), q > 0, not reduced.

    The strict grammar of matrix and vector files: optional sign,
    integer, optional /positive-integer (e.g. "-36/25", "7", "2/4").
    Decimal notation is rejected.  Literals past 4300 digits need
    Python's limit lifted by the caller (``any_size``).
    """
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
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

    Accepts, in ASCII, a rational literal ("-36/25") or decimal and
    scientific notation, read exactly ("1e-10" -> 1/10**10, "0.1" ->
    1/10), so tolerances keep their intended value.  The exponent's
    magnitude is held to EXPONENT_BOUND (checked on its text before it
    is read), and runs of digits to Python's 4300-digit int/str limit.
    """
    return _read(text, _decimal, "not a number: %r")


def _decimal(text):
    exponent = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if exponent.isdigit() and (
            len(exponent) > len(str(EXPONENT_BOUND)) or int(exponent) > EXPONENT_BOUND):
        raise FormatError("exponent past %d in magnitude: %r" % (EXPONENT_BOUND, text))
    return Fraction(text)


@any_size
def format_rational(q):
    """Serialize an exact rational as num/den (denominator always shown)."""
    return "%d/%d" % (q.numerator, q.denominator)


def format_double(x):
    """Shortest round-trip decimal form of a double."""
    return repr(float(x))

"""Fabricated SPD benchmark systems with exactly known structure.

Four families:

* diagonal systems realizing a prescribed spectrum, with the right-hand
  side controlling which eigenvalues participate in the iteration;
* rationally rotated diagonals: the same spectrum pushed through exact
  Givens-type rotations built from Pythagorean (cos, sin) pairs, giving
  dense matrices whose eigenvalues are still known exactly;
* inverse-method right-hand sides b = A x* so the solver's answer can
  be checked against a chosen x* without ever inverting A;
* fixed-fixed spring chains: small integer tridiagonal stiffness
  matrices, always SPD.

Everything is exact and, where randomness is involved, driven by an
explicit seed.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arithmetic import EXACT, ZERO, any_size, as_integer, parse_integer, parse_rational
from .errors import (
    DimensionError,
    ExactRequired,
    FormatError,
    InvalidRotation,
    InvalidStiffness,
)
from .linalg import SymmetricMatrix, Vector, matvec, read_text, write_text

RHS_ONES = "ones"
RHS_EXPLICIT = "explicit"
RHS_RANDOM = "random"
RHS_RULES = (RHS_ONES, RHS_EXPLICIT, RHS_RANDOM)

# Exact-orthogonality building blocks: cos^2 + sin^2 = 1 in rationals.
PYTHAGOREAN_PAIRS = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
)


@dataclass(frozen=True)
class SpectrumSpec:
    """Eigenvalue layout (value, multiplicity, active) plus an rhs rule.

    Active items are the ones the right-hand side touches; m, the
    number of active items, is the exact-arithmetic step count on the
    realized diagonal system.  Multiplicity enlarges a block without
    changing m.
    """

    items: tuple
    rhs_rule: str = RHS_ONES
    rhs_values: object = None
    rhs_seed: object = None

    def __post_init__(self):
        items = tuple(
            (Fraction(eig), as_integer(mult, "multiplicity"), bool(active))
            for eig, mult, active in self.items
        )
        object.__setattr__(self, "items", items)
        if not items:
            raise ValueError("spectrum must contain at least one item")
        values = [eig for eig, _, _ in items]
        if any(eig <= 0 for eig in values):
            raise ValueError("eigenvalues must be strictly positive")
        if len(set(values)) != len(values):
            raise ValueError("eigenvalues must be pairwise distinct")
        if any(mult < 1 for _, mult, _ in items):
            raise ValueError("multiplicities must be >= 1")
        if self.rhs_rule not in RHS_RULES:
            raise ValueError("unknown rhs rule %r" % self.rhs_rule)
        if self.rhs_rule == RHS_RANDOM and self.rhs_seed is None:
            raise ValueError("random rhs needs a seed")
        if self.rhs_seed is not None:
            object.__setattr__(self, "rhs_seed", as_integer(self.rhs_seed, "rhs seed"))
        if self.rhs_rule == RHS_EXPLICIT:
            values = tuple(Fraction(v) for v in (self.rhs_values or ()))
            object.__setattr__(self, "rhs_values", values)
            self._check_explicit(values)

    def _check_explicit(self, values):
        if len(values) != self.n:
            raise ValueError(
                "explicit rhs has %d entries for n = %d" % (len(values), self.n)
            )
        pos = 0
        for eig, mult, active in self.items:
            block = values[pos:pos + mult]
            if active and not any(block):
                raise ValueError("active eigenvalue %s gets an all-zero rhs block" % eig)
            if not active and any(block):
                raise ValueError("inactive eigenvalue %s gets a nonzero rhs entry" % eig)
            pos += mult

    @property
    def n(self):
        return sum(mult for _, mult, _ in self.items)

    @property
    def m(self):
        return sum(1 for _, _, active in self.items if active)


def rhs_entries(rule, values, seed, active):
    """Right-hand side under one rule; active[k] says whether entry k is loaded.

    ``explicit`` returns values as given; otherwise unloaded entries are
    zero and loaded ones are 1 (``ones``) or seeded integers in
    [-9, -1] and [1, 9] (``random``).
    """
    if rule == RHS_EXPLICIT:
        if len(values) != len(active):
            raise DimensionError(
                "explicit rhs has %d entries for n = %d" % (len(values), len(active))
            )
        return list(values)
    out = []
    rng = random.Random(seed) if rule == RHS_RANDOM else None
    for loaded in active:
        if not loaded:
            out.append(ZERO)
        elif rng is None:
            out.append(Fraction(1))
        else:
            out.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9)))
    return out


def _diagonal_system(spec):
    """The spectrum's diagonal entries and right-hand side, as lists."""
    diag, active = [], []
    for eig, mult, loaded in spec.items:
        diag.extend([eig] * mult)
        active.extend([loaded] * mult)
    return diag, rhs_entries(spec.rhs_rule, spec.rhs_values, spec.rhs_seed, active)


def gen_diagonal(spec):
    """Realize the spectrum directly: (diagonal matrix, rhs, m)."""
    diag, b = _diagonal_system(spec)
    return SymmetricMatrix.diagonal(diag), Vector.exact(b), spec.m


@dataclass(frozen=True)
class RotationPlan:
    """Sequence of exact plane rotations (i, j, cos, sin), 0-based."""

    steps: tuple

    def __post_init__(self):
        steps = tuple(
            (as_integer(i, "rotation index"), as_integer(j, "rotation index"),
             Fraction(c), Fraction(s))
            for i, j, c, s in self.steps
        )
        object.__setattr__(self, "steps", steps)
        for i, j, c, s in steps:
            if i == j or i < 0 or j < 0:
                raise ValueError("rotation indices must be distinct and nonnegative")
            if c * c + s * s != 1:
                raise InvalidRotation("cos^2 + sin^2 != 1 for (%s, %s)" % (c, s))

    def inverse(self):
        """Reversed steps with negated sines; undoes the plan exactly."""
        return RotationPlan(
            tuple((i, j, c, -s) for i, j, c, s in reversed(self.steps))
        )


def random_plan(n, count, seed):
    """Seeded plan of `count` rotations over distinct index pairs."""
    if count < 0:
        raise ValueError("rotation count must be nonnegative, got %d" % count)
    count = as_integer(count, "rotation count")
    if n < 2:
        return RotationPlan(())
    rng = random.Random(seed)
    variants = []
    for c, s in PYTHAGOREAN_PAIRS:
        variants.extend([(c, s), (c, -s), (s, c), (s, -c)])
    steps = []
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        c, s = rng.choice(variants)
        steps.append((i, j, c, s))
    return RotationPlan(tuple(steps))


def gen_rotated(spec, plan):
    """Push the diagonal system through the plan: (dense matrix, rhs, m).

    Each step applies G . A . G^T and G . b with G the plane rotation on
    (i, j); the spectrum is untouched, the entries fill in.

    The work is a congruence of integers: A_kl = M_kl / (s_k s_l) and
    b_k = v_k / (w s_k), with M and v integer, per-index scales s and
    one rhs denominator w.  For a step, s_i and s_j are lifted to their
    lcm t; as the scale is then one number on rows and columns i and j,
    G commutes with it, and with c = c'/q, s = s'/q over their common
    denominator q, M mixes by the integers c', s' and s_i = s_j = q t.
    With S the lcm of the scales, A goes to the integer constructor as
    M_kl (S/s_k)(S/s_l) over S^2 and b as v_k (S/s_k) over w S, each
    reduced once, by one gcd: no Fraction is formed.
    """
    diag, rhs = _diagonal_system(spec)
    n = len(diag)
    scale = [q.denominator for q in diag]
    M = np.zeros((n, n), dtype=object)
    M[range(n), range(n)] = [q.numerator * q.denominator for q in diag]
    w = math.lcm(*(q.denominator for q in rhs))
    v = np.array([q.numerator * (w // q.denominator) * s for q, s in zip(rhs, scale)],
                 dtype=object)
    for i, j, c, s in plan.steps:
        if i >= n or j >= n:
            raise DimensionError("rotation index out of range for n = %d" % n)
        t = math.lcm(scale[i], scale[j])
        for k in (i, j):
            if t != scale[k]:
                f = t // scale[k]
                M[k, :] *= f
                M[:, k] *= f
                v[k] *= f
        q = math.lcm(c.denominator, s.denominator)
        c, s = c.numerator * (q // c.denominator), s.numerator * (q // s.denominator)
        mi, mj = M[i, :].copy(), M[j, :].copy()  # G M (row mix)
        M[i, :], M[j, :] = c * mi - s * mj, s * mi + c * mj
        mi, mj = M[:, i].copy(), M[:, j].copy()  # (G M) G^T (column mix)
        M[:, i], M[:, j] = c * mi - s * mj, s * mi + c * mj
        v[i], v[j] = c * v[i] - s * v[j], s * v[i] + c * v[j]
        scale[i] = scale[j] = q * t
    S = math.lcm(*scale)
    lift = np.array([S // sk for sk in scale], dtype=object)
    rows, cols = np.tril_indices(n)
    A = SymmetricMatrix._ints(n, rows, cols, M[rows, cols] * lift[rows] * lift[cols], S * S)
    return A, Vector._ints(v * lift, w * S), spec.m


def gen_inverse(A, x_star):
    """Exact right-hand side b = A x* for a chosen solution x*."""
    if A.field != EXACT or x_star.field != EXACT:
        raise ExactRequired("inverse-method data must be exact")
    if A.n != len(x_star):
        raise DimensionError("matrix order %d vs solution length %d" % (A.n, len(x_star)))
    return matvec(A, x_star)


def gen_spring_chain(n, stiffnesses):
    """Stiffness matrix of a fixed-fixed chain of n masses.

    stiffnesses lists the n+1 spring constants left to right; mass i
    couples to its neighbours through springs i and i+1, so the matrix
    is tridiagonal with diagonal k_i + k_{i+1} and off-diagonal -k_{i+1}.
    """
    if n < 1:
        raise DimensionError("chain needs at least one mass")
    n = as_integer(n, "chain size")
    ks = [Fraction(k) for k in stiffnesses]
    if len(ks) != n + 1:
        raise DimensionError("need %d stiffnesses for %d masses" % (n + 1, n))
    if any(k <= 0 for k in ks):
        raise InvalidStiffness("stiffnesses must be strictly positive")
    # The diagonal, then the entries (i, i - 1) below it.
    rows = list(range(n)) + list(range(1, n))
    cols = list(range(n)) + list(range(n - 1))
    values = [ks[i] + ks[i + 1] for i in range(n)] + [-ks[i] for i in range(1, n)]
    return SymmetricMatrix(n, rows, cols, values)


# ---------------------------------------------------------------------------
# Spectrum text formats.
#
# File form: one line per item, "eigenvalue multiplicity active|inactive",
# then a final line "rhs ones" | "rhs random <seed>" |
# "rhs explicit <v1> ... <vn>".  Inline form (command line):
# comma-separated "EIGxMULT" items, a trailing "i" marking inactive,
# e.g. "1x2,3/2x1,10x3i".  Eigenvalues and rhs values are rational
# literals, multiplicities and the seed integers (``arithmetic``).


def _spectrum(items, rhs_rule, rhs_values, rhs_seed):
    try:
        return SpectrumSpec(
            tuple(items), rhs_rule=rhs_rule, rhs_values=rhs_values, rhs_seed=rhs_seed
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_spectrum_inline(text, rhs_rule=RHS_ONES, rhs_values=None, rhs_seed=None):
    items = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise FormatError("empty spectrum item in %r" % text)
        item = chunk.removesuffix("i")
        if "x" not in item:
            raise FormatError("spectrum item %r is not EIGxMULT" % item)
        eig_text, mult_text = item.rsplit("x", 1)
        mult = parse_integer(mult_text, "bad multiplicity in %r" % item)
        items.append((parse_rational(eig_text), mult, item == chunk))
    return _spectrum(items, rhs_rule, rhs_values, rhs_seed)


def read_spectrum_file(path):
    lines = read_text(path).split("\n")
    return parse_spectrum_lines([ln.strip() for ln in lines if ln.strip()])


def parse_spectrum_lines(lines):
    items = []
    rhs_rule, rhs_values, rhs_seed = None, None, None
    for line in lines:
        parts = line.split()
        if parts[0] == "rhs":
            if rhs_rule is not None:
                raise FormatError("duplicate rhs line")
            if len(parts) < 2 or parts[1] not in RHS_RULES:
                raise FormatError("bad rhs line %r" % line)
            rhs_rule = parts[1]
            if rhs_rule == RHS_RANDOM:
                if len(parts) != 3:
                    raise FormatError("rhs random needs a seed")
                rhs_seed = parse_integer(parts[2], "bad rhs seed %r" % parts[2])
            elif rhs_rule == RHS_EXPLICIT:
                rhs_values = tuple(parse_rational(t) for t in parts[2:])
            elif len(parts) != 2:
                raise FormatError("rhs ones takes no arguments")
            continue
        if rhs_rule is not None:
            raise FormatError("rhs line must come last")
        if len(parts) != 3 or parts[2] not in ("active", "inactive"):
            raise FormatError("bad spectrum line %r" % line)
        mult = parse_integer(parts[1], "bad multiplicity in %r" % line)
        items.append((parse_rational(parts[0]), mult, parts[2] == "active"))
    if rhs_rule is None:
        raise FormatError("missing rhs line")
    return _spectrum(items, rhs_rule, rhs_values, rhs_seed)


@any_size
def write_spectrum_file(spec, path):
    lines = []
    for eig, mult, active in spec.items:
        lines.append("%s %d %s" % (eig, mult, "active" if active else "inactive"))
    if spec.rhs_rule == RHS_RANDOM:
        lines.append("rhs random %d" % spec.rhs_seed)
    elif spec.rhs_rule == RHS_EXPLICIT:
        lines.append("rhs explicit " + " ".join(str(v) for v in spec.rhs_values))
    else:
        lines.append("rhs ones")
    write_text(path, "\n".join(lines) + "\n")

"""Vectors, symmetric matrices, the small projected solve, and energy.

Everything here serves the two scalar backends from
:mod:`irmcg.arithmetic`, and both store values the same way in vectors
and matrices.  f64 holds read-only float64 arrays; the array an f64
operation computes becomes its result as it is, with no copy.  Exact
holds Python int numerators over one common positive denominator
``den`` per object (E. H. Bareiss's fraction-free idea), so no
Fraction, and no gcd per entry, is formed inside a vector operation or
a matvec: an exact inner product is one int dot and one Fraction; a
sum or a scaled sum combines numerators over the lcm of the
denominators and reduces the result once, as a whole.  Values enter
as int pairs (p, q) over the lcm of the q's (``_over_lcm``: constructor
arguments, file literals and Matrix Market entries) or as numerators
over a denominator reduced by one gcd (``_reduced``: the generator and
the arithmetic).  Fractions are formed only where values leave the
storage (``Vector.data``, ``entry``, ``diag``, ``full``, snapping, the
SPD gate); files are written with one gcd per entry, and demotion
divides each numerator by ``den`` directly.

A symmetric matrix is stored as compressed sparse rows of its full
pattern.  One matvec, ``np.add.reduceat(data * v[indices],
indptr[:-1])``, serves sparse matrices in both backends: exact rows are
summed in ints and the sums over A.den * v.den reduced once; f64 sums
each row's products in ``add.reduceat`` order, not BLAS order.  Both
lanes send mostly stored matrices to BLAS, by two rules.  An exact
matrix with at least a quarter of its n^2 entries stored multiplies
its numerators split into 16-bit limbs, as float64 products whose every
partial sum is an integer below 2^50, so exact in any order; the rows
are put back together as ints and reduced over A.den * v.den as
before.  An f64 matrix goes to BLAS only with all n^2 entries stored,
when its data is its row-major square, so its sums keep their order
otherwise.  An f64 matrix of order 3 or more whose pattern is exactly
tridiagonal (3n - 2 entries stored, a spring chain with no zero spring)
also keeps its diagonal and off-diagonal as arrays of their own: its
matvec forms the products from shifted slices of v, with no gather,
and adds them in ``reduceat``'s order, so its sums keep reduceat's
bits, and its SPD gate runs the LDL^T recurrence on the two diagonals
as a scalar loop.  Dense algorithms (the certificate and the f64 check
of the SPD gate, the eigenvalue estimate) work on the square that
``SymmetricMatrix.full`` returns.
"""

import itertools
import math
import operator
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arithmetic import (
    EXACT,
    F64,
    SCALAR,
    BitBudget,
    any_size,
    demote,
    parse_count,
    parse_double,
    parse_integer,
    rational_parts,
    rationalize,
    snap_zero,
)
from .errors import (
    BudgetExceeded,
    DimensionError,
    ExactRequired,
    FormatError,
    InvalidScalar,
    IoError,
    NotSPD,
    ScalarOverflow,
    SingularRitzSystem,
)

DENSE = "dense"
DIAGONAL = "diagonal"


def _array(entries, field, what):
    """Read-only array of the backend's scalars: float64 or object Fractions."""
    if field == EXACT:
        # Entries that are already Fractions are immutable and kept as they are.
        entries = tuple(e if isinstance(e, Fraction) else Fraction(e) for e in entries)
    elif field != F64:
        raise ValueError("unknown field %r" % field)
    arr = np.array(entries, dtype=SCALAR[field])
    if field == F64 and not np.all(np.isfinite(arr)):
        raise InvalidScalar("%s contains NaN or infinity" % what)
    arr.flags.writeable = False
    return arr


class Vector:
    """Fixed-length vector over one scalar backend.

    f64: ``data`` is a read-only float64 array and ``num``, ``den`` are
    None.  Exact: ``num`` is a read-only object array of Python ints
    over one positive int ``den``, in lowest terms as a whole
    (``gcd(den, *num) == 1``, so the zero vector has ``den == 1``), and
    entry i is ``Fraction(num[i], den)``.  Equal vectors have equal
    ``num`` and ``den``.  The exact ``data``, a read-only object array
    of those Fractions, is built on first read and kept; a vector built
    from Fractions keeps the array it was built from.  ``n`` is the
    length.
    """

    __slots__ = ("_data", "num", "den", "field", "n")

    def __init__(self, entries, field):
        arr = _array(entries, field, "vector")
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise DimensionError("vector must have length >= 1")
        self._data = arr
        self.field = field
        self.n = arr.shape[0]
        self.num = self.den = None
        if field == EXACT:
            # The lcm of the entries' denominators is already least.
            self.num, self.den = _over_lcm(q.as_integer_ratio() for q in arr)
            self.num.flags.writeable = False

    @classmethod
    def exact(cls, entries):
        return cls(entries, EXACT)

    @classmethod
    def f64(cls, entries):
        return cls(entries, F64)

    @classmethod
    def zeros(cls, n, field):
        return cls(np.full(n, SCALAR[field](0)), field)

    @classmethod
    def _ints(cls, num, den, reduce=True):
        """Exact vector num / den: num a fresh object array of ints, den > 0.

        Reduced once as a whole unless the caller knows it is in lowest terms.
        """
        if reduce:
            num, den = _reduced(num, den)
        num.flags.writeable = False
        v = cls.__new__(cls)
        v._data, v.num, v.den, v.field, v.n = None, num, den, EXACT, num.shape[0]
        return v

    @classmethod
    def _f64(cls, arr):
        """f64 vector that takes arr, a fresh float64 array, without a copy.

        It is checked as ``Vector`` checks its entries, and made read-only.
        """
        if not np.isfinite(arr).all():
            raise InvalidScalar("vector contains NaN or infinity")
        arr.flags.writeable = False
        v = cls.__new__(cls)
        v._data, v.num, v.den, v.field, v.n = arr, None, None, F64, arr.shape[0]
        return v

    @property
    def data(self):
        # The operations here read f64 vectors' _data directly, without
        # this call.
        if self._data is None:
            arr = np.empty(len(self.num), dtype=object)
            arr[:] = [Fraction(e, self.den) for e in self.num.tolist()]
            arr.flags.writeable = False
            self._data = arr
        return self._data

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return self.data[i]

    def __iter__(self):
        return iter(self.data)

    def __eq__(self, other):
        if not isinstance(other, Vector) or other.field != self.field:
            return NotImplemented
        if self.field == F64:
            return bool(np.array_equal(self._data, other._data))
        return self.den == other.den and bool(np.array_equal(self.num, other.num))

    __hash__ = None

    def __repr__(self):
        return "Vector(%s, %s)" % (list(self.data), self.field)

    def is_zero(self):
        return not (self.num if self.field == EXACT else self._data).any()


def _over_lcm(pairs):
    """(nums, L): the values p / q of int pairs (p, q), q != 0, as numerators over L.

    L is the lcm of the q's and nums the object array of the p (L / q):
    the values' least common denominator when each p / q is in lowest
    terms, else one ``_reduced`` away from it, with no gcd per value.
    """
    pairs = list(pairs)
    den = math.lcm(*{q for _, q in pairs})
    nums = np.empty(len(pairs), dtype=object)
    nums[:] = [p * (den // q) for p, q in pairs]
    return nums, den


def _reduced(num, den):
    """num (an object array of ints, divided in place) and den over gcd(den, *num)."""
    g = math.gcd(den, *num.tolist())
    if g != 1:
        num //= g
        den //= g
    return num, den


class SymmetricMatrix:
    """Symmetric matrix over one scalar backend, as compressed sparse rows.

    Row i holds ``data[indptr[i]:indptr[i+1]]`` in the sorted columns
    ``indices[indptr[i]:indptr[i+1]]``; the arrays are read-only.  Every
    diagonal entry is stored, even a zero one, so no row is empty (which
    ``reduceat`` needs), and no off-diagonal zero is.  f64 ``data`` holds
    the entries (``den`` is None); exact ``data`` holds Python ints, the
    entries times ``den``, the least common denominator of the stored
    entries, so the entry at k is ``Fraction(data[k], den)``.  Equal
    matrices have equal arrays and equal ``den``.  The _spd slot caches
    spd_check's outcome (None: unknown).  The _limbs slot keeps an exact
    mostly stored matrix's numerators as the float64 square of 16-bit
    limbs that its matvec multiplies (``_limb_square``, 8 la n^2 bytes
    for la limbs an entry), built on the first matvec (None: not yet).
    A converted matrix starts with neither.  The _band slot holds an f64
    matrix of order n >= 3 whose pattern is exactly tridiagonal (3n - 2
    entries stored) as its diagonal and its off-diagonal, which by
    symmetry is both the sub- and the super-diagonal: contiguous
    read-only copies of ``data``, built with the storage, that its
    matvec and SPD gate read (None for every other matrix).  The _diag
    slot holds the diagonal as ``data`` stores it (float64 entries, or
    int numerators over ``den``), read-only, built with the storage for
    ``diag`` and ``diag_solve``.
    """

    __slots__ = (
        "n", "indptr", "indices", "data", "den", "field", "_spd", "_limbs", "_band", "_diag",
    )

    def __init__(self, n, rows, cols, values, field=EXACT):
        """Order-n matrix from lower-triangle coordinates, each given once; the rest is 0."""
        if n < 1:
            raise DimensionError("matrix order must be >= 1")
        if field == EXACT:
            vals, den = _over_lcm(Fraction(e).as_integer_ratio() for e in values)
        else:
            vals, den = _array(values, field, "matrix"), None
        self._store(n, rows, cols, vals, den, field)

    @classmethod
    def _ints(cls, n, rows, cols, nums, den):
        """Exact order-n matrix nums / den at lower-triangle coordinates.

        nums is a fresh object array of ints, den > 0; the values are
        reduced once as a whole (``_reduced``), as ``Vector._ints`` does.
        """
        A = cls.__new__(cls)
        A._store(n, rows, cols, *_reduced(nums, den), EXACT)
        return A

    def _store(self, n, rows, cols, vals, den, field):
        # vals: the backend's storage of the values (float64, or int numerators over den).
        rows, cols = (np.asarray(x, dtype=np.intp) for x in (rows, cols))
        if vals.ndim != 1 or rows.shape != vals.shape or cols.shape != vals.shape:
            raise DimensionError("need one row and one column index per value")
        if vals.size and (cols.min() < 0 or rows.max() >= n or np.any(cols > rows)):
            raise DimensionError("entries must lie in the lower triangle, order %d" % n)
        keys = rows * n + cols
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("a matrix position is given twice")
        on = rows == cols
        diag = np.zeros(n, dtype=vals.dtype)
        diag[rows[on]] = vals[on]
        diag.flags.writeable = False
        off = ~on & (vals != 0)
        every = np.arange(n)
        r = np.concatenate((rows[off], cols[off], every))
        c = np.concatenate((cols[off], rows[off], every))
        order = np.lexsort((c, r))
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n))))
        self.indices = c[order]
        self.data = np.concatenate((vals[off], vals[off], diag))[order]
        for arr in (self.indptr, self.indices, self.data):
            arr.flags.writeable = False
        self.n, self.den, self.field, self._spd, self._limbs = n, den, field, None, None
        self._band, self._diag = None, diag
        # Unique positions, 3n - 2 of them, none off the band: all of the band.
        if field == F64 and n >= 3 and self.data.size == 3 * n - 2 and (
                np.abs(self.indices - self._rows()).max() <= 1):
            # Row i's entries lie at 3i - 1, 3i and 3i + 1.
            self._band = tuple(np.ascontiguousarray(self.data[k::3]) for k in (0, 1))
            for arr in self._band:
                arr.flags.writeable = False

    @classmethod
    def diagonal(cls, entries, field=EXACT):
        entries = list(entries)
        every = np.arange(len(entries))
        return cls(len(entries), every, every, entries, field)

    @classmethod
    def from_rows(cls, rows, field=EXACT):
        """Build from a full square array of rows; symmetry is verified."""
        n = len(rows)
        if not all(hasattr(row, "__len__") and len(row) == n for row in rows):
            raise DimensionError("rows do not form a square matrix")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric at (%d, %d)" % (i, j))
        ii, jj = np.tril_indices(n)
        return cls(n, ii, jj, [rows[i][j] for i, j in zip(ii.tolist(), jj.tolist())], field)

    @property
    def kind(self):
        """``diagonal`` when only the diagonal is stored, else ``dense``."""
        return DIAGONAL if self.data.size == self.n else DENSE

    def _rows(self):
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def _values(self, where=slice(None)):
        """Stored entries (all, or those ``where`` selects) as the backend's scalars."""
        data = self.data[where]
        if self.field == F64:
            return data
        out = np.empty(data.size, dtype=object)
        out[:] = [Fraction(e, self.den) for e in data.tolist()]
        return out

    def entry(self, i, j):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise DimensionError("index out of range")
        lo = self.indptr[i]
        hit = np.flatnonzero(self.indices[lo:self.indptr[i + 1]] == j)
        return self._values(lo + hit)[0] if hit.size else SCALAR[self.field](0)

    def diag(self):
        if self.field == F64:
            return list(self._diag)
        return [Fraction(d, self.den) for d in self._diag.tolist()]

    def full(self):
        """Full square copy: a writable ndarray (f64) or a list of rows (exact)."""
        out = np.full((self.n, self.n), SCALAR[self.field](0), dtype=self.data.dtype)
        out[self._rows(), self.indices] = self._values()
        return out if self.field == F64 else out.tolist()

    def __eq__(self, other):
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        return self.field == other.field and self.den == other.den and all(
            np.array_equal(getattr(self, a), getattr(other, a))
            for a in ("indptr", "indices", "data")
        )

    __hash__ = None

    def __repr__(self):
        return "SymmetricMatrix(%s, n=%d, %s)" % (self.kind, self.n, self.field)


def _lane(a, v):
    """Backend shared by a (vector or matrix) and vector v; sizes must agree."""
    if a.field != v.field:
        raise DimensionError("mixed scalar backends in one operation")
    if a.n != v.n:
        raise DimensionError("size %d vs length %d" % (a.n, v.n))
    return a.field


def dot(u, v):
    """Inner product u . v in the common backend (exact: one gcd, in the Fraction)."""
    if _lane(u, v) == F64:
        return float(np.dot(u._data, v._data))
    return Fraction(np.dot(u.num, v.num), u.den * v.den)


def vadd(u, v):
    return add_scaled(u, 1, v)


def vsub(u, v):
    return add_scaled(u, -1, v)


def vscale(c, v):
    if v.field == F64:
        return Vector._f64(float(c) * v._data)
    # With c = p/q, gcd(q den, p num) = gcd(p, den) gcd(q, *num), since p/q
    # and num/den are each in lowest terms.
    c = Fraction(c)
    p, q = c.numerator, c.denominator
    g1, g2 = math.gcd(p, v.den), math.gcd(q, *v.num.tolist())
    num = v.num if g2 == 1 else v.num // g2
    return Vector._ints(num * (p // g1), v.den // g1 * (q // g2), reduce=False)


def add_scaled(u, c, v):
    """u + c * v in the common backend.

    Exact, with c = p/q: the numerators are combined over
    lcm(u.den, q v.den) and the sum is reduced once.
    """
    if _lane(u, v) == F64:
        return Vector._f64(u._data + float(c) * v._data)
    c = Fraction(c)
    vden = c.denominator * v.den
    den = math.lcm(u.den, vden)
    return Vector._ints(u.num * (den // u.den) + v.num * (c.numerator * (den // vden)), den)


def diag_solve(A, v):
    """D^-1 v for D the diagonal of A, which must have no zero entry.

    Reads the diagonal that A keeps (``A._diag``).  Exact, entry i is
    (v.num[i] A.den) / (v.den d_i) for the diagonal numerator d_i,
    reduced on its own, so that ``_over_lcm`` puts the entries over
    their least common denominator: the diagonal's numerators are
    mostly coprime, and their lcm would make a whole-vector reduction
    work on ints of n times their width.
    """
    if _lane(A, v) == F64:
        return Vector._f64(v._data / A._diag)
    pairs = []
    for p, q in zip((A.den * v.num).tolist(), (v.den * A._diag).tolist()):
        g = math.gcd(p, q)
        pairs.append((p // g, q // g))
    return Vector._ints(*_over_lcm(pairs), reduce=False)


def add_to_entry(v, index, delta):
    """Copy of v with delta added to one 0-based component."""
    if not (0 <= index < len(v)):
        raise DimensionError("component index out of range")
    if v.field == F64:
        arr = v._data.copy()
        arr[index] += demote(delta)
        return Vector._f64(arr)
    delta = Fraction(delta)
    den = math.lcm(v.den, delta.denominator)
    num = v.num * (den // v.den)
    num[index] += delta.numerator * (den // delta.denominator)
    return Vector._ints(num, den)


# Most products one reduceat of the sparse exact route forms at a time
# (whole rows, so a long row can exceed it).  The products are ints as
# wide as A's numerators plus v's, so forming all of them at once holds
# every one: times a 4096-bit iterate, one matvec peaked under
# tracemalloc at 2.25 against 1.49 MiB in blocks for the n=1000 spring
# chain, and 2.01 against 1.20 MiB for a random n=120 matrix with 24% of
# its entries stored, at the same speed or faster.
_BLOCK = 1024

# The limb route (_limb_matvec): most of v's 16-bit limbs one float64
# product takes; most products of two limbs one output limb of it may
# sum; the offset that makes an accumulated int64 word nonnegative.
_CHUNK = 64
_TERMS = 1 << 18
_OFFSET = 1 << 62


def _mostly_stored(A):
    """At least a quarter of A's n^2 entries are stored.

    Then dense algorithms on A's square (LAPACK, BLAS) pay, and an f64
    square takes at most twice the memory of the stored arrays.
    """
    return 4 * A.data.size >= A.n * A.n


def matvec(A, v):
    """Product A v: each row's products, summed (both backends).

    Exact: A's numerators times v's, summed per row in ints, and the
    sums over A.den * v.den reduced once, as a vector.  A mostly stored
    matrix (``_mostly_stored``) multiplies its limbs in float64 BLAS
    (``_limb_matvec``), with no rounding; a sparser one sums its int
    products with ``reduceat``, in blocks of whole rows.  An f64 matrix
    with all n^2 entries stored is, in CSR, its row-major square, so
    BLAS multiplies its data as it lies; a tridiagonal one (``A._band``)
    forms its products from shifted slices of v, with no gather, and
    sums them as ``reduceat`` does (``_band_matvec``); any other sums
    all its products in one ``reduceat``.
    """
    if _lane(A, v) == F64:
        if A._band is not None:
            return Vector._f64(_band_matvec(A._band, v._data))
        if A.data.size == A.n * A.n:
            return Vector._f64(A.data.reshape(A.n, A.n) @ v._data)
        return Vector._f64(np.add.reduceat(A.data * v._data[A.indices], A.indptr[:-1]))
    if _mostly_stored(A):
        return Vector._ints(_limb_matvec(A, v.num.tolist()), A.den * v.den)
    # A block ends before the first row that starts at a multiple of _BLOCK or later.
    ends = np.searchsorted(A.indptr, range(_BLOCK, A.data.size, _BLOCK)).tolist()
    cuts = sorted({0, A.n, *ends})
    sums = []
    for r0, r1 in zip(cuts, cuts[1:]):
        lo, hi = A.indptr[r0], A.indptr[r1]
        products = A.data[lo:hi] * v.num[A.indices[lo:hi]]
        sums.append(np.add.reduceat(products, A.indptr[r0:r1] - lo))
    return Vector._ints(np.concatenate(sums), A.den * v.den)


def _band_matvec(band, x):
    """Tridiagonal band = (diagonal, off-diagonal) times the float64 array x.

    Bit for bit the sums of ``np.add.reduceat``, which adds a row's
    products a0, a1, a2 (column order) as a0 + (a1 + a2), and a
    two-product row as a0 + a1.  With e the off-diagonal, row i is
    (dg_i x_i + e_i x_i+1) + e_i-1 x_i-1 here: the same sums, as IEEE
    addition commutes.
    """
    dg, off = band
    y = dg * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _limb_matvec(A, values):
    """A's numerators times the ints values, an object array of ints, by limbs.

    Every int is split into 16-bit limbs (``_split_limbs``), la for
    each of A's numerators, lv for each of the values, so a_ij v_j is
    the sum of a_ijk v_jm 2^(16(k + m)).  Output limb t of row i, the sum of
    a_ijk v_jm over j and k + m = t, is entry (i, t) of one product of
    A's limb square (``_limb_square``, n x la n) and a Toeplitz
    arrangement of v's limbs (la n x (la + c - 1)): windows of each
    v_j's limbs, padded with la - 1 zeros on either side.  v's limbs go
    c <= _CHUNK at a time, each chunk one product in float64 BLAS.

    Why that is exact: a limb is at most 2^16 - 1 in magnitude, so each
    product of two is below 2^32; one output limb of a chunk sums at
    most n min(la, c) <= _TERMS = 2^18 of them, so every partial sum,
    in any order, with or without fused multiply-adds, is an integer
    below 2^50 and exact in binary64.  The chunks' output limbs add up
    in int64, where each sums at most n min(la, lv) < 2^30 products (a
    larger count needs a limb square of over 8 GiB), so stays below
    2^62 in magnitude; 2^62 added to each makes it a nonnegative word.
    Limbs t = r mod 4 lie 64 bits apart, so the words of each r are
    read as one int per row, and a row is the four shifted by 16 r and
    summed, less the offsets.
    """
    square = _limb_square(A)
    n = A.n
    la = square.shape[1] // n
    lv = _limb_count(values)
    chunk = min(_CHUNK, _TERMS // n)
    assert 1 <= n * min(la, chunk) <= _TERMS and n * min(la, lv) < 1 << 30
    limbs = _split_limbs(values, lv)
    words = -(-(la + lv - 1) // 4)
    acc = np.zeros((n, 4 * words), dtype="<i8")
    for m in range(0, lv, chunk):
        c = min(chunk, lv - m)
        padded = np.zeros((n, c + 2 * (la - 1)))
        padded[:, la - 1:la - 1 + c] = limbs[:, m:m + c]
        toeplitz = sliding_window_view(padded, la + c - 1, axis=1).reshape(n * la, la + c - 1)
        acc[:, m:m + la + c - 1] += (square @ toeplitz).astype(np.int64)
    acc += _OFFSET
    w = 8 * words
    g0, g1, g2, g3 = (acc[:, r::4].tobytes() for r in range(4))
    # The offsets of one row: _OFFSET in every word of every group.
    offset = _OFFSET * ((1 << 64 * words) - 1) // ((1 << 64) - 1) * 0x0001000100010001
    fb = int.from_bytes
    out = np.empty(n, dtype=object)
    out[:] = [
        fb(g0[i:i + w], "little") + (fb(g1[i:i + w], "little") << 16)
        + (fb(g2[i:i + w], "little") << 32) + (fb(g3[i:i + w], "little") << 48) - offset
        for i in range(0, n * w, w)
    ]
    return out


def _limb_square(A):
    """A's numerators as limbs, an n x (la n) float64 array, built once and kept.

    Entry (i, la j + la - 1 - k) is limb k of a_ij: each column's limbs
    lie highest first, so that the windows ``_limb_matvec`` slides over
    v's limbs meet them.  It takes 8 la n^2 bytes.
    """
    if A._limbs is None:
        n = A.n
        full = np.zeros((n, n), dtype=object)
        full[A._rows(), A.indices] = A.data
        values = full.ravel().tolist()
        la = _limb_count(values)
        square = _split_limbs(values, la)[:, ::-1].reshape(n, n * la)
        square.flags.writeable = False
        A._limbs = square
    return A._limbs


def _limb_count(values):
    """16-bit limbs enough for every int of values in two's complement."""
    return max(map(int.bit_length, values)) // 16 + 1


def _split_limbs(values, count):
    """(len(values), count) float64 array of the ints' 16-bit limbs, least first.

    The limbs of ``int.to_bytes(2 count, signed=True)``: all but the top
    one unsigned, 0 to 2^16 - 1, the top one signed, -2^15 to 2^15 - 1,
    so x = sum_k limb_k 2^(16 k).
    """
    raw = b"".join(x.to_bytes(2 * count, "little", signed=True) for x in values)
    out = np.frombuffer(raw, dtype="<u2").reshape(-1, count).astype(np.float64)
    out[:, -1] = np.frombuffer(raw, dtype="<i2")[count - 1::count]
    return out


def small_solve(abar, rbar, field):
    """Solve the projected system abar a = rbar of one or two directions.

    Entries of any numeric type are taken as the lane's scalars (so int
    inputs solve exactly), and a is a list of them.  abar must be
    square, finite in f64, and symmetric.  Gaussian elimination with
    partial pivoting serves both lanes.  In exact arithmetic the
    solution is unique, so the pivot order does not show in it; in f64
    a pivot of exactly 0.0 is singular, as in exact arithmetic.  Raises
    SingularRitzSystem on a zero pivot.
    """
    m = len(rbar)
    if len(abar) != m or any(len(row) != m for row in abar):
        raise DimensionError("abar is not %d x %d" % (m, m))
    if field == F64 and not all(map(math.isfinite, itertools.chain(rbar, *abar))):
        raise InvalidScalar("projected system contains NaN or infinity")
    for i in range(m):
        for j in range(i):
            if abar[i][j] != abar[j][i]:
                raise ValueError("abar is not symmetric")
    scalar = SCALAR[field]
    aug = [[*map(scalar, row), scalar(rhs)] for row, rhs in zip(abar, rbar)]
    for k in range(m):
        pivot_row = max(range(k, m), key=lambda r: abs(aug[r][k]))
        if aug[pivot_row][k] == 0:
            raise SingularRitzSystem("projected matrix is singular")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        for i in range(k + 1, m):
            f = aug[i][k] / aug[k][k]
            for j in range(k, m + 1):
                aug[i][j] -= f * aug[k][j]
    sol = [None] * m
    for i in range(m - 1, -1, -1):
        s = aug[i][m]
        for j in range(i + 1, m):
            s -= aug[i][j] * sol[j]
        sol[i] = s / aug[i][i]
    return sol


def spd_check(A, budget=BitBudget()):
    """True iff A is symmetric positive definite; caches the result on A.

    Diagonal matrices: every entry positive.  f64 matrices with at least
    a quarter of their n^2 entries stored: LAPACK's Cholesky of full(),
    whose square then takes at most twice the memory of the stored
    arrays.  Sparser f64 tridiagonal matrices (``A._band``): the LDL^T
    recurrence of _spd_ldlt as a scalar loop over the diagonals
    (``_band_ldlt``), with the same pivots and decision.  Otherwise
    every pivot of an LDL^T factorization positive (_spd_ldlt), in
    floating point for sparser f64 matrices (in time that grows with
    their envelopes, not their stored entries) and
    exactly for exact matrices, where a floating-point certificate comes
    first and decides when it can.  The certificate factors the demoted
    square, so it takes O(n^2) memory and O(n^3) time whatever is
    stored: an exact sparse matrix does not cost its band.

    Certificate (S. M. Rump, "Verification of positive definiteness",
    BIT 46, 2006).  Demote A to A_f, pick a float shift c a little above
    the bound B below, and factor At = fl(A_f - c I) with LAPACK's
    Cholesky.  If that succeeds, the computed factor L satisfies
    L L^T = At + Delta with |Delta| <= g_k |L| |L^T| (N. J. Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., Thm 10.3,
    with k = n + 1 there), so ||Delta||_2 <= g_k ||L||_F^2
    <= g_k/(1 - g_k) tr(At); with a term for underflow in Rump's form,

        B = g_k/(1 - g_k) tr(At) + 4k(2k + max_i At_ii) eta,
        g_k = k u/(1 - k u),  k = n + 2,  u = 2^-53,  eta = 2^-1022.

    L L^T is semidefinite, so lambda_min(At) >= -B.  With R = A - At,
    computed exactly over the stored entries, Weyl's and Gershgorin's
    theorems give lambda_min(A) >= min_i (R_ii - sum_{j != i} |R_ij|) - B,
    and A is proven positive definite when that is > 0, which is checked
    exactly, in ints over one denominator (_certificate_holds).

    Why the bound covers NumPy's LAPACK: Thm 10.3 rests on Lemma 8.4,
    which holds for any order of evaluating each inner product; a
    blocked or recursive dpotrf sums the same products in another order
    (its panel updates are partial sums), and a fused multiply-add only
    drops a rounding.  k = n + 2 rather than n + 1 leaves room for one
    more rounding per entry, for kernels that divide by multiplying with
    a reciprocal.  eta, the smallest normal double, bounds the error of
    one underflow whether the hardware underflows gradually or flushes
    to zero.

    The certificate says "positive definite" or nothing, so it never
    changes the decision.  When it says nothing (an entry outside the
    double range, a nonpositive demoted diagonal entry, a failed
    factorization or a failed check), the exact test decides: an LDL^T
    factorization with all pivots positive (a zero or negative pivot
    proves a nonpositive leading minor).  Its pivots are held to
    ``budget``; a larger one raises BudgetExceeded.
    """
    if A.kind == DIAGONAL:
        ok = all(d > 0 for d in A.data)
    elif A.field == F64 and _mostly_stored(A):
        ok = _cholesky_succeeds(A.full())
    elif A._band is not None:
        ok = _band_ldlt(A._band)
    else:
        ok = (A.field == EXACT and _spd_certificate(A)) or _spd_ldlt(A, budget)
    A._spd = ok
    return ok


# Unit roundoff of binary64 and the smallest normal double.
_U = Fraction(1, 2**53)
_ETA = Fraction(1, 2**1022)


def _cholesky_error_bound(n, trace, max_diag):
    """Bound on ||Delta||_2 for a floating Cholesky (see spd_check).

    Exact for Fraction arguments; a float (possibly inf) for floats.
    """
    k = n + 2
    g = k * _U / (1 - k * _U)
    return g / (1 - g) * trace + 4 * k * (2 * k + max_diag) * _ETA


def _spd_certificate(A):
    """True if a shifted floating Cholesky proves exact dense A positive definite."""
    try:
        Af = demote_matrix(A).full()
    except ScalarOverflow:
        return False
    n = A.n
    diag = Af.diagonal().tolist()
    if min(diag) <= 0:
        return False
    with np.errstate(over="ignore"):
        widest_row = float(np.abs(Af).sum(axis=1).max())
    # A little above the bound checked below, plus one row's demotion error.
    c = 1.0625 * (_cholesky_error_bound(n, sum(diag), max(diag)) + 2 * _U * widest_row)
    if not math.isfinite(c):
        return False
    At = Af - c * np.eye(n)
    if not _cholesky_succeeds(At):
        return False
    return _certificate_holds(A, At)


def _certificate_holds(A, At):
    """True if lambda_min(A) > 0 follows from a successful Cholesky of At.

    The Gershgorin margin min_i (R_ii - sum_{j != i} |R_ij|) of R = A - At
    must exceed the bound on At's Cholesky error (see spd_check).  R is
    formed over A's stored lower triangle (At must vanish off it), in
    ints over D = A.den 2^k, 2^k being the largest denominator of the
    doubles At holds there; only the margin becomes a Fraction.
    """
    rows = A._rows()
    low = rows >= A.indices
    rows, cols = rows[low].tolist(), A.indices[low].tolist()
    ratios = [t.as_integer_ratio() for t in At[rows, cols].tolist()]
    k = max(d for _, d in ratios).bit_length() - 1
    radius = [0] * A.n
    r_diag = [0] * A.n
    for i, j, a, (t, d) in zip(rows, cols, A.data[low].tolist(), ratios):
        r = (a << k) - A.den * (t << (k - d.bit_length() + 1))
        if i == j:
            r_diag[i] = r
        else:
            r = abs(r)
            radius[i] += r
            radius[j] += r
    margin = Fraction(min(map(operator.sub, r_diag, radius)), A.den << k)
    t_diag = [Fraction(x) for x in At.diagonal().tolist()]
    return margin > _cholesky_error_bound(A.n, sum(t_diag), max(t_diag))


def _cholesky_succeeds(square):
    try:
        np.linalg.cholesky(square)
    except np.linalg.LinAlgError:
        return False
    return True


# In f64 a ratio or a product may overflow on the way to a pivot that is
# not > 0 (inf - inf is NaN); the decision reports it, so NumPy stays quiet.
@np.errstate(over="ignore", invalid="ignore")
def _spd_ldlt(A, budget):
    """True iff every pivot of A's LDL^T factorization is positive.

    Row by row, with W = L D: W[i, j] = a_ij - W[i, :j] . L[j, :j] (j < i),
    L[i, :i] = W[i, :i] / D, pivot d_i = a_ii - W[i, :i] . L[i, :i].  Fill-in
    stays right of each row's first stored column, so only that envelope
    is worked.  Pivot i is the ratio of the leading minors of orders i+1, i.
    """
    zero = SCALAR[A.field](0)
    values = A._values()
    pivots = np.empty(A.n, dtype=values.dtype)
    rows = []  # (first column f, L[i, f:i])
    for i in range(A.n):
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        low = cols <= i
        f = cols[0]
        w = np.full(i + 1 - f, zero, dtype=pivots.dtype)
        w[cols[low] - f] = values[A.indptr[i]:A.indptr[i + 1]][low]
        for j in range(f, i):
            fj, lj = rows[j]
            g = max(f, fj)
            w[j - f] -= np.dot(w[g - f:j - f], lj[g - fj:])
        l = w[:-1] / pivots[f:i]
        d = w[-1] - np.dot(w[:-1], l)
        if not d > 0:
            return False
        if A.field == EXACT:
            try:
                budget.check(d)
            except BudgetExceeded as exc:
                raise BudgetExceeded("SPD check, pivot %d: %s" % (i + 1, exc)) from None
        pivots[i] = d
        rows.append((f, l))
    return True


def _band_ldlt(band):
    """_spd_ldlt's decision on a tridiagonal band = (diagonal, off-diagonal).

    Row i of its recurrence is l = e / d, then pivot a_ii - e l, with
    e = a_i,i-1 and d the pivot before: the same IEEE operations, so
    the same pivots.  Row 0 has no e; a zero one leaves its pivot a_00.
    """
    dg, off = band
    d = 1.0
    for a, e in zip(dg.tolist(), [0.0, *off.tolist()]):
        d = a - e * (e / d)
        if not d > 0:
            return False
    return True


def ensure_spd(A, budget=BitBudget()):
    if A._spd is None:
        spd_check(A, budget)
    if not A._spd:
        raise NotSPD("matrix failed the SPD check")


def energy(A, b, x, r=None):
    """Quadratic objective (1/2) x.Ax - x.b, minimized at the solution.

    Given an exact x and its residual r = b - A x, the objective is
    -(x.b + x.r)/2: two int dots and one Fraction, with no matvec.  An
    f64 r is not used: a recursive f64 residual drifts from b - A x, and
    the value must stay the energy of x.
    """
    if r is None or x.field == F64:
        half = SCALAR[x.field](1) / 2
        return half * dot(x, matvec(A, x)) - dot(x, b)
    _lane(x, b)
    _lane(x, r)
    xb, xr = np.dot(x.num, b.num), np.dot(x.num, r.num)
    return Fraction(-(xb * r.den + xr * b.den), 2 * x.den * b.den * r.den)


def condition_estimate(A):
    """Ratio of extreme eigenvalues as a double.

    Exact for the diagonal representation; for dense matrices the
    symmetric eigensolver's extreme eigenvalues of the double matrix
    (the demoted one in the exact backend), so callers should label
    dense results as estimates.
    """
    ensure_spd(A)
    if A.kind == DIAGONAL:
        if A.field == EXACT:
            # The common denominator cancels.
            return demote(Fraction(max(A.data), min(A.data)))
        return float(np.max(A.data) / np.min(A.data))
    eig = np.linalg.eigvalsh(demote_matrix(A).full())
    if eig[0] <= 0.0:
        return math.inf
    return float(eig[-1] / eig[0])


def demote_vector(v):
    if v.field == F64:
        return v
    return Vector([_rounded(e, v.den) for e in v.num.tolist()], F64)


def _rounded(num, den):
    """num / den to the nearest double, as demote does.

    Int true division rounds correctly, so no gcd is needed.
    """
    try:
        return num / den
    except OverflowError:
        return demote(Fraction(num, den))  # raises ScalarOverflow


def _map_lower(A, fn, field):
    """A's stored lower triangle through fn: A's pattern, less new zeros off the diagonal.

    fn maps a stored datum: a double, or an exact numerator over A.den.
    No SPD verdict carries over: the f64 gate rounds, so a matrix and
    its conversion can be decided differently.
    """
    rows = A._rows()
    low = rows >= A.indices
    values = list(map(fn, A.data[low].tolist()))
    return SymmetricMatrix(A.n, rows[low], A.indices[low], values, field)


def demote_matrix(A):
    """A rounded to f64, to be gated on its own (see _map_lower)."""
    if A.field == F64:
        return A
    return _map_lower(A, lambda num: _rounded(num, A.den), F64)


def rationalize_vector(v):
    if v.field == EXACT:
        return v
    return Vector([rationalize(e) for e in v.data], EXACT)


def rationalize_matrix(A):
    return A if A.field == EXACT else _map_lower(A, rationalize, EXACT)


def snap_matrix(A, threshold):
    if A.field != EXACT:
        raise ExactRequired("zero snapping operates on exact data")
    return _map_lower(A, lambda e: snap_zero(Fraction(e, A.den), threshold), EXACT)


def snap_vector(v, threshold):
    if v.field != EXACT:
        raise ExactRequired("zero snapping operates on exact data")
    return Vector([snap_zero(e, threshold) for e in v.data], EXACT)


# ---------------------------------------------------------------------------
# Text formats.
#
# Matrix file:  header "symmetric n" or "diagonal n", then the packed
# lower triangle (row-major) or the n diagonal entries as rational
# literals.  A matrix of kind diagonal is written with the second
# header.  Vector file: header "vector n", then n rational literals.
# Whitespace (including newlines) separates entries.


@any_size
def write_matrix(A, path):
    if A.field != EXACT:
        raise ExactRequired("matrix files store exact rationals")
    if A.kind == DIAGONAL:
        lines = ["diagonal %d" % A.n] + [_literal(e, A.den) for e in A.data.tolist()]
    else:
        lines = ["symmetric %d" % A.n]
        indices, data = A.indices.tolist(), A.data.tolist()
        for i in range(A.n):
            row = ["0"] * (i + 1)
            for k in range(A.indptr[i], A.indptr[i + 1]):
                if indices[k] > i:
                    break
                row[indices[k]] = _literal(data[k], A.den)
            lines.append(" ".join(row))
    write_text(path, "\n".join(lines) + "\n")


@any_size
def write_vector(v, path):
    if v.field != EXACT:
        raise ExactRequired("vector files store exact rationals")
    lines = ["vector %d" % len(v)]
    lines.extend(_literal(e, v.den) for e in v.num.tolist())
    write_text(path, "\n".join(lines) + "\n")


def _literal(num, den):
    """num / den in lowest terms, written as ``str(Fraction(num, den))`` writes it."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else "%d/%d" % (num // g, den // g)


@any_size
def read_matrix(path):
    """A native matrix file, or a Matrix Market one when its text starts with the banner.

    A native file's tokens are those of ``str.split()``, and its
    literals go straight to int numerators over their common
    denominator (``_literal_values``).  The literal ``0`` (most of
    a sparse matrix's packed triangle) is counted but never made a
    string (``_sparse_words``).
    """
    text = read_text(path)
    if text.startswith("%%MatrixMarket"):
        lines = text.splitlines()
        del text
        return _parse_matrix_market(lines)
    if not text.isascii():
        # One space for every separator, so ASCII bytes mark them all.
        text = " ".join(text.split())
    buf = bytearray(text, "utf-8")
    del text
    count, words, index = _sparse_words(buf)
    del buf
    if count < 2 or words[0] not in ("symmetric", "diagonal"):
        raise FormatError("matrix file must start with 'symmetric n' or 'diagonal n'")
    symmetric, n = words[0] == "symmetric", parse_count(words[1])
    want = n * (n + 1) // 2 if symmetric else n
    if count - 2 != want:
        raise FormatError("expected %d entries, found %d" % (want, count - 2))
    del words[:2]
    values, den = _literal_values(words)
    nonzero = values != 0
    kept = index[2:][nonzero] - 2
    rows = cols = kept
    if symmetric:
        rows = np.searchsorted(np.cumsum(np.arange(n)), kept, side="right") - 1
        cols = kept - rows * (rows + 1) // 2
    return SymmetricMatrix._ints(n, rows, cols, values[nonzero], den)


# 1 for each byte that str.split() separates at in ASCII text, else 0.
_SPACE = bytes(c in b" \t\n\v\f\r\x1c\x1d\x1e\x1f" for c in range(256))
# The number of set bits of each byte.
_ONES = np.array([bin(c).count("1") for c in range(256)], dtype=np.uint8)


def _sparse_words(buf):
    """(count, words, index): buf's tokens less every lone ``0`` after the first two.

    buf is UTF-8 text whose separators are all ASCII; count is the
    number of its ``str.split()`` tokens, words the tokens kept (in
    order) and index each one's token number.  The tokens are found in
    1-byte masks over buf, and the lone ``0``s are blanked in buf
    itself, so one split yields the words; only the words get int
    arrays.
    """
    b = np.frombuffer(buf, dtype=np.uint8)
    space = np.frombuffer(buf.translate(_SPACE), dtype=bool)
    starts = np.empty(b.size, dtype=bool)  # a token starts at this byte
    starts[:1] = ~space[:1]
    np.less(space[1:], space[:-1], out=starts[1:])
    count = int(np.count_nonzero(starts))
    zero = b == ord("0")  # a lone 0: a token 0 followed by a separator or the end
    zero &= starts
    zero[:-1] &= space[1:]
    del space
    if count >= 2:  # the header is kept
        first = int(starts.argmax())
        zero[:first + 2 + int(starts[first + 1:].argmax())] = False
    packed = np.packbits(starts)
    # Every lone 0 starts a token, so what is left of starts marks the words.
    np.logical_xor(starts, zero, out=starts)
    at = np.flatnonzero(starts)
    del starts
    # Blank the lone 0s: ord("0") - 16 == ord(" ").
    zero = zero.view(np.uint8)
    zero *= 16
    b -= zero
    del zero, b
    # A word's token number counts the starts before it: over the whole
    # bytes of packed, then in its own byte, whose first flag is the highest bit.
    before = np.zeros(packed.size + 1, dtype=np.intp)
    np.cumsum(_ONES.take(packed), out=before[1:])
    byte = at >> 3
    index = before[byte] + _ONES.take(packed[byte] >> (8 - (at & 7)))
    return count, buf.decode().split(), index


@any_size
def read_vector(path):
    tokens = read_text(path).split()
    if len(tokens) < 2 or tokens[0] != "vector":
        raise FormatError("vector file must start with 'vector n'")
    n = parse_count(tokens[1])
    del tokens[:2]
    if len(tokens) != n:
        raise FormatError("expected %d entries, found %d" % (n, len(tokens)))
    return Vector._ints(*_literal_values(tokens))


def _literal_values(tokens):
    """(nums, L): every token's value as an int numerator over L (``_over_lcm``).

    Each distinct literal is split once, in order, so the first bad one is reported.
    """
    literals = list(dict.fromkeys(tokens))
    nums, den = _over_lcm(map(rational_parts, literals))
    numerator = dict(zip(literals, nums.tolist()))
    values = np.empty(len(tokens), dtype=object)
    values[:] = list(map(numerator.__getitem__, tokens))
    return values, den


def _parse_matrix_market(lines):
    """The matrix of a symmetric coordinate Matrix Market file's lines; empties the list.

    Integer entries are read exactly, real ones as the exact values of
    their doubles, and both go to numerators over their lcm (``_over_lcm``).
    """
    banner = lines[0].split()
    if len(banner) != 5:
        raise FormatError("malformed MatrixMarket banner")
    _, obj, fmt, fieldkind, qualifier = [w.lower() for w in banner]
    if obj != "matrix" or fmt != "coordinate":
        raise FormatError("only coordinate matrices are supported")
    if fieldkind not in ("real", "integer"):
        raise FormatError("unsupported value field %r" % fieldkind)
    if qualifier != "symmetric":
        raise FormatError("only the symmetric qualifier is supported")
    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise FormatError("missing size line")
    size = body[0].split()
    if len(size) != 3:
        raise FormatError("malformed size line %r" % body[0])
    rows, cols, nnz = (parse_count(t) for t in size)
    if rows != cols:
        raise FormatError("matrix is not square: %d x %d" % (rows, cols))
    if len(body) - 1 != nnz:
        raise FormatError("expected %d entries, found %d" % (nnz, len(body) - 1))
    integer = fieldkind == "integer"
    number = parse_integer if integer else parse_double
    ii, jj, pairs, seen = [], [], [], set()
    for ln in body[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError("malformed entry line %r" % ln)
        try:
            i, j, x = parse_count(parts[0], 0) - 1, parse_count(parts[1], 0) - 1, number(parts[2])
        except FormatError:
            raise FormatError("bad number in entry line %r" % ln) from None
        if not integer and not math.isfinite(x):
            raise FormatError("non-finite value in entry line %r" % ln)
        if not (0 <= i < rows and 0 <= j < rows):
            raise FormatError("entry index out of range in %r" % ln)
        if j > i:
            i, j = j, i
        if i * rows + j in seen:
            raise FormatError("duplicate entry for (%d, %d)" % (i + 1, j + 1))
        seen.add(i * rows + j)
        ii.append(i)
        jj.append(j)
        pairs.append(x.as_integer_ratio())
    # The text goes before the O(nnz) arrays are built, not after.
    lines.clear()
    del body, seen
    return SymmetricMatrix._ints(rows, ii, jj, *_over_lcm(pairs))


def read_text(path):
    """The text of a file; IoError when it cannot be read."""
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from None


def write_text(path, text):
    """Write text as given, with no newline translation; IoError on failure."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from None

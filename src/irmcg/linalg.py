"""Vectors, symmetric matrices, the small projected solve, and energy.

Everything here is generic over the two scalar backends from
:mod:`irmcg.arithmetic`.  A vector is a read-only 1-D NumPy array in
both: float64 for f64, dtype object holding Fractions for exact.  The
vector operations are therefore written once; the backend only picks
the scalar type that arguments and inner products are coerced to.

A symmetric matrix is either dense or diagonal (n scalars, stored like
a vector).  Exact dense storage is the packed lower triangle as a tuple
of Fractions (row-major, n(n+1)/2 scalars), so symmetry holds by
construction and matvec is one pass that skips zero entries: object
``@`` on a square skips none and is 20x to 40x slower on spring chains
(n = 100 to 1000).  f64 dense storage is the C-contiguous
n x n square, checked symmetric on construction, so that matvec is one
BLAS ``A @ v``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .arithmetic import (
    EXACT,
    F64,
    SCALAR,
    ZERO,
    BitBudget,
    demote,
    parse_rational,
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

# Cap on the number of coordinate vectors per generic IRM step.
M_MAX = 4

DENSE = "dense"
DIAGONAL = "diagonal"


def _tri(i):
    return i * (i + 1) // 2


def _fractions(entries):
    # Entries that are already Fractions are immutable and kept as they are.
    return tuple(e if isinstance(e, Fraction) else Fraction(e) for e in entries)


def _array(entries, field, what):
    """Read-only array of the backend's scalars: float64 or object Fractions."""
    if field == EXACT:
        entries = _fractions(entries)
    elif field != F64:
        raise ValueError("unknown field %r" % field)
    arr = np.array(entries, dtype=SCALAR[field])
    if field == F64 and not np.all(np.isfinite(arr)):
        raise InvalidScalar("%s contains NaN or infinity" % what)
    arr.flags.writeable = False
    return arr


class Vector:
    """Fixed-length vector over one scalar backend."""

    __slots__ = ("data", "field")

    def __init__(self, entries, field):
        arr = _array(entries, field, "vector")
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise DimensionError("vector must have length >= 1")
        self.data = arr
        self.field = field

    @classmethod
    def exact(cls, entries):
        return cls(entries, EXACT)

    @classmethod
    def f64(cls, entries):
        return cls(entries, F64)

    @classmethod
    def zeros(cls, n, field):
        return cls(np.full(n, SCALAR[field](0)), field)

    def __len__(self):
        return len(self.data)

    def __getitem__(self, i):
        return self.data[i]

    def __iter__(self):
        return iter(self.data)

    def __eq__(self, other):
        if not isinstance(other, Vector) or other.field != self.field:
            return NotImplemented
        return bool(np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self):
        return "Vector(%s, %s)" % (list(self.data), self.field)

    def is_zero(self):
        return not self.data.any()


class SymmetricMatrix:
    """Symmetric matrix: dense or diagonal, over one scalar backend.

    Exact dense data is the packed lower triangle; f64 dense data is the
    read-only n x n square.  Diagonal data is the n diagonal entries,
    stored as a vector's data is.  The _spd slot caches the outcome of
    spd_check; it starts unknown (None) and is the only mutable piece of
    state.
    """

    __slots__ = ("kind", "n", "data", "field", "_spd")

    def __init__(self, kind, n, data, field):
        if kind not in (DENSE, DIAGONAL):
            raise ValueError("unknown matrix kind %r" % kind)
        if n < 1:
            raise DimensionError("matrix order must be >= 1")
        if kind == DENSE and field == EXACT:
            data = _fractions(data)
            if len(data) != _tri(n):
                raise DimensionError(
                    "expected %d packed entries, got %d" % (_tri(n), len(data))
                )
        else:
            data = _array(data, field, "matrix")
            want = (n, n) if kind == DENSE else (n,)
            if data.shape != want:
                raise DimensionError("expected shape %s, got %s" % (want, data.shape))
            if kind == DENSE and not np.array_equal(data, data.T):
                raise ValueError("matrix is not symmetric")
        self.data = data
        self.kind = kind
        self.n = n
        self.field = field
        self._spd = None

    @classmethod
    def _adopt_f64(cls, kind, arr):
        """Wrap a finite, symmetric float64 array built by this module, uncopied."""
        arr.flags.writeable = False
        out = cls.__new__(cls)
        out.kind, out.n, out.data, out.field, out._spd = kind, arr.shape[0], arr, F64, None
        return out

    @classmethod
    def diagonal(cls, entries, field=EXACT):
        entries = list(entries)
        return cls(DIAGONAL, len(entries), entries, field)

    @classmethod
    def dense(cls, data, n, field=EXACT):
        """Dense matrix from its storage: packed triangle (exact) or square (f64)."""
        return cls(DENSE, n, data, field)

    @classmethod
    def from_rows(cls, rows, field=EXACT):
        """Build from a full square array of rows; symmetry is verified."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionError("rows do not form a square matrix")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric at (%d, %d)" % (i, j))
        if field == F64:
            return cls(DENSE, n, rows, F64)
        packed = [rows[i][j] for i in range(n) for j in range(i + 1)]
        return cls(DENSE, n, packed, field)

    def entry(self, i, j):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise DimensionError("index out of range")
        if self.kind == DIAGONAL:
            return self.data[i] if i == j else SCALAR[self.field](0)
        if self.field == F64:
            return self.data[i, j]
        if j > i:
            i, j = j, i
        return self.data[_tri(i) + j]

    def diag(self):
        if self.kind == DIAGONAL:
            return list(self.data)
        if self.field == F64:
            return list(self.data.diagonal())
        return [self.data[_tri(i) + i] for i in range(self.n)]

    def full(self):
        """Full square copy: a writable ndarray (f64) or a list of rows (exact)."""
        if self.field == F64:
            if self.kind == DIAGONAL:
                return np.diag(self.data)
            return self.data.copy()
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def __eq__(self, other):
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        if (self.kind, self.n, self.field) != (other.kind, other.n, other.field):
            return False
        return bool(np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self):
        return "SymmetricMatrix(%s, n=%d, %s)" % (self.kind, self.n, self.field)


def _lane(a, v):
    """Backend shared by a (vector or matrix) and vector v; sizes must agree."""
    if a.field != v.field:
        raise DimensionError("mixed scalar backends in one operation")
    size = a.n if isinstance(a, SymmetricMatrix) else len(a)
    if size != len(v):
        raise DimensionError("size %d vs length %d" % (size, len(v)))
    return a.field


def dot(u, v):
    """Inner product u . v in the common backend."""
    field = _lane(u, v)
    return SCALAR[field](np.dot(u.data, v.data))


def vadd(u, v):
    return Vector(u.data + v.data, _lane(u, v))


def vsub(u, v):
    return Vector(u.data - v.data, _lane(u, v))


def vscale(c, v):
    return Vector(SCALAR[v.field](c) * v.data, v.field)


def add_scaled(u, c, v):
    """u + c * v in the common backend."""
    field = _lane(u, v)
    return Vector(u.data + SCALAR[field](c) * v.data, field)


def add_to_entry(v, index, delta):
    """Copy of v with delta added to one 0-based component."""
    if not (0 <= index < len(v)):
        raise DimensionError("component index out of range")
    arr = v.data.copy()
    arr[index] += SCALAR[v.field](delta)
    return Vector(arr, v.field)


def matvec(A, v):
    """Product A v: elementwise (diagonal), BLAS (f64 dense), packed pass (exact dense)."""
    field = _lane(A, v)
    if A.kind == DIAGONAL:
        return Vector(A.data * v.data, field)
    if field == F64:
        return Vector(A.data @ v.data, F64)
    n = A.n
    x = v.data.tolist()
    out = [ZERO] * n
    k = 0
    for i in range(n):
        s = ZERO
        vi = x[i]
        for j in range(i):
            a = A.data[k]
            if a:
                s += a * x[j]
                out[j] += a * vi
            k += 1
        out[i] += s + A.data[k] * vi
        k += 1
    return Vector(out, EXACT)


class RitzSystem:
    """Small projected system abar a = rbar (m <= M_MAX).

    abar is assembled symmetrically by the callers, so the symmetry
    invariant is structural; the constructor still verifies it.
    """

    __slots__ = ("abar", "rbar", "m", "field")

    def __init__(self, abar, rbar, field):
        m = len(rbar)
        if not 1 <= m <= M_MAX:
            raise ValueError("projected system size %d outside 1..%d" % (m, M_MAX))
        if len(abar) != m or any(len(row) != m for row in abar):
            raise DimensionError("abar is not %d x %d" % (m, m))
        if field == F64 and not all(map(math.isfinite, itertools.chain(rbar, *abar))):
            raise InvalidScalar("projected system contains NaN or infinity")
        for i in range(m):
            for j in range(i):
                if abar[i][j] != abar[j][i]:
                    raise ValueError("abar is not symmetric")
        scalar = SCALAR[field]
        self.abar = tuple(tuple(map(scalar, row)) for row in abar)
        self.rbar = tuple(map(scalar, rbar))
        self.m = m
        self.field = field


def _small_solve_exact(abar, rbar, m):
    # Fraction-free elimination: clear denominators per equation, then
    # Bareiss with row pivoting so intermediates stay integer and small.
    aug = []
    for i in range(m):
        row = [Fraction(abar[i][j]) for j in range(m)] + [Fraction(rbar[i])]
        scale = 1
        for e in row:
            scale = scale * e.denominator // math.gcd(scale, e.denominator)
        aug.append([int(e * scale) for e in row])
    prev = 1
    for k in range(m):
        pivot_row = next((r for r in range(k, m) if aug[r][k] != 0), None)
        if pivot_row is None:
            raise SingularRitzSystem("projected matrix is singular")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        if k == m - 1:
            break
        for i in range(k + 1, m):
            for j in range(k + 1, m + 1):
                num = aug[k][k] * aug[i][j] - aug[i][k] * aug[k][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise AssertionError("fraction-free elimination lost exactness")
                aug[i][j] = q
            aug[i][k] = 0
        prev = aug[k][k]
    sol = [ZERO] * m
    for i in range(m - 1, -1, -1):
        s = Fraction(aug[i][m])
        for j in range(i + 1, m):
            s -= aug[i][j] * sol[j]
        sol[i] = s / aug[i][i]
    return sol


def _small_solve_f64(abar, rbar, m):
    aug = [list(abar[i]) + [rbar[i]] for i in range(m)]
    for k in range(m):
        pivot_row = max(range(k, m), key=lambda r: abs(aug[r][k]))
        if aug[pivot_row][k] == 0.0:
            raise SingularRitzSystem("projected matrix is singular")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        for i in range(k + 1, m):
            f = aug[i][k] / aug[k][k]
            for j in range(k, m + 1):
                aug[i][j] -= f * aug[k][j]
    sol = [0.0] * m
    for i in range(m - 1, -1, -1):
        s = aug[i][m]
        for j in range(i + 1, m):
            s -= aug[i][j] * sol[j]
        sol[i] = s / aug[i][i]
    return sol


def small_solve(sys):
    """Solve the projected system exactly (rational) or by partial pivoting (f64)."""
    if sys.field == EXACT:
        return Vector(_small_solve_exact(sys.abar, sys.rbar, sys.m), EXACT)
    return Vector(_small_solve_f64(list(map(list, sys.abar)), list(sys.rbar), sys.m), F64)


def spd_check(A, budget=BitBudget()):
    """True iff A is symmetric positive definite; caches the result on A.

    f64 backend: Cholesky factorization success.  Diagonal matrices:
    every entry positive.  Exact dense backend: a floating-point
    certificate, then the exact test only if the certificate cannot
    decide.

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
    computed exactly over the packed triangle, Weyl's and Gershgorin's
    theorems give lambda_min(A) >= min_i (R_ii - sum_{j != i} |R_ij|) - B,
    and A is proven positive definite when that is > 0, which is checked
    in exact rationals.

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
    elif A.field == EXACT:
        ok = _spd_certificate(A) or _spd_exact(A, budget)
    else:
        try:
            np.linalg.cholesky(A.data)
            ok = True
        except np.linalg.LinAlgError:
            ok = False
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
        Af = demote_matrix(A).data
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
    try:
        np.linalg.cholesky(At)
    except np.linalg.LinAlgError:
        return False
    # R = A - At over the packed triangle; off the diagonal only the
    # demotion error of nonzero entries.
    radius = [ZERO] * n
    r_diag = []
    k = 0
    for i, row in enumerate(At.tolist()):
        for j, a in enumerate(A.data[k:k + i]):
            if a:
                r = abs(a - Fraction(row[j]))
                radius[i] += r
                radius[j] += r
        k += i
        r_diag.append(A.data[k] - Fraction(row[i]))
        k += 1
    t_diag = [Fraction(x) for x in At.diagonal().tolist()]
    bound = _cholesky_error_bound(n, sum(t_diag), max(t_diag))
    return min(d - r for d, r in zip(r_diag, radius)) > bound


def _spd_exact(A, budget):
    n = A.n
    work = [[A.entry(i, j) for j in range(n)] for i in range(n)]
    for k in range(n):
        d = work[k][k]
        if d <= 0:
            return False
        try:
            budget.check(d)
        except BudgetExceeded as exc:
            raise BudgetExceeded("SPD check, pivot %d: %s" % (k + 1, exc)) from None
        for i in range(k + 1, n):
            f = work[i][k] / d
            if f:
                for j in range(k, n):
                    work[i][j] -= f * work[k][j]
    return True


def ensure_spd(A, budget=BitBudget()):
    if A._spd is None:
        spd_check(A, budget)
    if not A._spd:
        raise NotSPD("matrix failed the SPD check")


def energy(A, b, x):
    """Quadratic objective (1/2) x.Ax - x.b, minimized at the solution."""
    half = SCALAR[x.field](1) / 2
    return half * dot(x, matvec(A, x)) - dot(x, b)


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
            return demote(max(A.data) / min(A.data))
        return float(np.max(A.data) / np.min(A.data))
    eig = np.linalg.eigvalsh(demote_matrix(A).data)
    if eig[0] <= 0.0:
        return math.inf
    return float(eig[-1] / eig[0])


def demote_vector(v):
    if v.field == F64:
        return v
    return Vector([demote(e) for e in v.data], F64)


def demote_matrix(A):
    if A.field == F64:
        return A
    n = A.n
    if A.kind == DIAGONAL:
        arr = np.fromiter(map(demote, A.data), np.float64, n)
    else:
        # Row by row into the square: no packed intermediate of n^2/2 entries.
        arr = np.empty((n, n))
        k = 0
        for i in range(n):
            row = np.fromiter(map(demote, A.data[k:k + i + 1]), np.float64, i + 1)
            arr[i, :i + 1] = row
            arr[:i + 1, i] = row
            k += i + 1
    out = SymmetricMatrix._adopt_f64(A.kind, arr)
    out._spd = A._spd
    return out


def rationalize_vector(v):
    if v.field == EXACT:
        return v
    return Vector([rationalize(e) for e in v.data], EXACT)


def rationalize_matrix(A):
    if A.field == EXACT:
        return A
    if A.kind == DIAGONAL:
        entries = A.data.tolist()
    else:
        entries = [e for i in range(A.n) for e in A.data[i, :i + 1].tolist()]
    out = SymmetricMatrix(A.kind, A.n, [rationalize(e) for e in entries], EXACT)
    out._spd = A._spd
    return out


def snap_matrix(A, threshold):
    if A.field != EXACT:
        raise ExactRequired("zero snapping operates on exact data")
    return SymmetricMatrix(A.kind, A.n, [snap_zero(e, threshold) for e in A.data], EXACT)


def snap_vector(v, threshold):
    if v.field != EXACT:
        raise ExactRequired("zero snapping operates on exact data")
    return Vector([snap_zero(e, threshold) for e in v.data], EXACT)


# ---------------------------------------------------------------------------
# Text formats.
#
# Matrix file:  header "symmetric n" or "diagonal n", then the packed
# lower triangle (row-major) or the n diagonal entries as rational
# literals.  Vector file: header "vector n", then n rational literals.
# Whitespace (including newlines) separates entries.


def write_matrix(A, path):
    if A.field != EXACT:
        raise ExactRequired("matrix files store exact rationals")
    word = "diagonal" if A.kind == DIAGONAL else "symmetric"
    lines = ["%s %d" % (word, A.n)]
    if A.kind == DIAGONAL:
        lines.extend(str(e) for e in A.data)
    else:
        k = 0
        for i in range(A.n):
            lines.append(" ".join(str(e) for e in A.data[k:k + i + 1]))
            k += i + 1
    _write_text(path, "\n".join(lines) + "\n")


def write_vector(v, path):
    if v.field != EXACT:
        raise ExactRequired("vector files store exact rationals")
    lines = ["vector %d" % len(v)]
    lines.extend(str(e) for e in v.data)
    _write_text(path, "\n".join(lines) + "\n")


def read_matrix(path):
    tokens = _read_tokens(path)
    if len(tokens) < 2 or tokens[0] not in ("symmetric", "diagonal"):
        raise FormatError("matrix file must start with 'symmetric n' or 'diagonal n'")
    kind = DENSE if tokens[0] == "symmetric" else DIAGONAL
    n = _parse_count(tokens[1])
    want = _tri(n) if kind == DENSE else n
    body = tokens[2:]
    if len(body) != want:
        raise FormatError("expected %d entries, found %d" % (want, len(body)))
    # Parse each distinct literal once; dict order reports the first bad one.
    values = {t: parse_rational(t) for t in dict.fromkeys(body)}
    return SymmetricMatrix(kind, n, [values[t] for t in body], EXACT)


def read_vector(path):
    tokens = _read_tokens(path)
    if len(tokens) < 2 or tokens[0] != "vector":
        raise FormatError("vector file must start with 'vector n'")
    n = _parse_count(tokens[1])
    body = tokens[2:]
    if len(body) != n:
        raise FormatError("expected %d entries, found %d" % (n, len(body)))
    return Vector([parse_rational(t) for t in body], EXACT)


def is_matrix_market(path):
    try:
        with open(path, "r") as fh:
            return fh.readline().startswith("%%MatrixMarket")
    except OSError as exc:
        raise IoError(str(exc)) from None


def read_matrix_market(path):
    """Ingest a Matrix Market symmetric coordinate file, bit-exactly.

    Stored doubles become their exact rational values; an integer field
    is read as exact integers.  Only the symmetric qualifier is accepted
    since the storage here cannot represent anything else.
    """
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(str(exc)) from None
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise FormatError("missing MatrixMarket banner")
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
    rows, cols, nnz = (_parse_count(t) for t in size)
    if rows != cols:
        raise FormatError("matrix is not square: %d x %d" % (rows, cols))
    if len(body) - 1 != nnz:
        raise FormatError("expected %d entries, found %d" % (nnz, len(body) - 1))
    packed = [ZERO] * _tri(rows)
    seen = set()
    for ln in body[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError("malformed entry line %r" % ln)
        i, j = _parse_count(parts[0]) - 1, _parse_count(parts[1]) - 1
        if not (0 <= i < rows and 0 <= j < rows):
            raise FormatError("entry index out of range in %r" % ln)
        if j > i:
            i, j = j, i
        if (i, j) in seen:
            raise FormatError("duplicate entry for (%d, %d)" % (i + 1, j + 1))
        seen.add((i, j))
        if fieldkind == "integer":
            value = Fraction(int(parts[2]))
        else:
            value = rationalize(float(parts[2]))
        packed[_tri(i) + j] = value
    return SymmetricMatrix(DENSE, rows, packed, EXACT)


def _parse_count(token):
    try:
        value = int(token)
    except ValueError:
        raise FormatError("not an integer: %r" % token) from None
    if value < 1:
        raise FormatError("count must be positive, got %d" % value)
    return value


def _read_tokens(path):
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from None
    return text.split()


def _write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from None

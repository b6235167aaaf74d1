"""Independent reference implementations used to check the package.

Everything here works on plain lists of Fractions and deliberately
avoids the package's own matvec, elimination, and energy code paths.
``split_read_matrix`` reads a native matrix file one ``str.split()``
token at a time, and ``fraction_read_matrix_market`` a Matrix Market
file one ``Fraction`` per entry: the references for
``linalg.read_matrix``.  ``fraction_gen_rotated`` is the reference for
``benchgen.gen_rotated``, its integer congruence ending in one
``Fraction`` per entry.  ``fraction_parse_decimal`` is ``Fraction()`` on
the text, the reference for ``arithmetic.parse_decimal`` in ASCII.
"""

import math
from fractions import Fraction

import numpy as np

from irmcg import benchgen, linalg
from irmcg.arithmetic import any_size, parse_count
from irmcg.errors import DimensionError, FormatError


def unpack(A):
    """Full square list-of-rows view of a SymmetricMatrix.

    Reads the compressed-row arrays directly, so that the package's
    own ``full``, ``entry`` and matvec are never used to check
    themselves.  Exact entries are int numerators over ``A.den``.
    """
    n = A.n
    den = 1 if A.den is None else A.den
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(int(A.indptr[i]), int(A.indptr[i + 1])):
            rows[i][int(A.indices[k])] = Fraction(A.data[k]) / den
    return rows


def rotate(diag, rhs, steps):
    """diag(diag) and rhs pushed through plane rotations (i, j, cos, sin).

    Each step applies G . A . G^T and G . b in Fractions, entry by
    entry: (full square list of rows, rhs list).
    """
    n = len(diag)
    full = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    rhs = [Fraction(e) for e in rhs]
    for i, j, c, s in steps:
        for k in range(n):  # G A (row mix)
            ai, aj = full[i][k], full[j][k]
            full[i][k] = c * ai - s * aj
            full[j][k] = s * ai + c * aj
        for k in range(n):  # (G A) G^T (column mix)
            ai, aj = full[k][i], full[k][j]
            full[k][i] = c * ai - s * aj
            full[k][j] = s * ai + c * aj
        bi, bj = rhs[i], rhs[j]
        rhs[i] = c * bi - s * bj
        rhs[j] = s * bi + c * bj
    return full, rhs


def full_matvec(rows, vec):
    return [sum((row[j] * vec[j] for j in range(len(vec))), Fraction(0)) for row in rows]


def int_matvec(A, num, den):
    """(numerators, denominator) of A v for v = num / den, via full_matvec.

    The product in the lowest terms as a whole: the denominator is the
    lcm of the entries' own, as an exact ``Vector`` holds it.
    """
    out = full_matvec(unpack(A), [Fraction(e, den) for e in num])
    d = math.lcm(*(q.denominator for q in out))
    return [q.numerator * (d // q.denominator) for q in out], d


def vdot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def gershgorin_margin(rows, at):
    """min_i (R_ii - sum_{j != i} |R_ij|) of R = rows - at, in Fractions.

    ``at`` is a square of doubles; each is taken at its exact value.
    """
    n = len(rows)
    R = [[Fraction(rows[i][j]) - Fraction(at[i][j]) for j in range(n)] for i in range(n)]
    return min(R[i][i] - sum(abs(R[i][j]) for j in range(n) if j != i) for i in range(n))


def direct_energy(rows, b, x):
    return Fraction(1, 2) * vdot(x, full_matvec(rows, x)) - vdot(x, b)


def gauss_solve(rows, rhs):
    """Plain fraction Gaussian elimination; raises on a singular matrix."""
    n = len(rows)
    aug = [[Fraction(e) for e in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        for r in range(k + 1, n):
            f = aug[r][k] / aug[k][k]
            if f:
                for c in range(k, n + 1):
                    aug[r][c] -= f * aug[k][c]
    sol = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = aug[i][n]
        for j in range(i + 1, n):
            s -= aug[i][j] * sol[j]
        sol[i] = s / aug[i][i]
    return sol


def det(rows):
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    acc = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = Fraction(rows[0][j]) * det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def leading_minors(rows):
    return [det([row[: k + 1] for row in rows[: k + 1]]) for k in range(len(rows))]


def binary_expansion(x):
    """Exact rational value of a double via its frexp decomposition."""
    if x == 0.0:
        return Fraction(0)
    mantissa, exponent = math.frexp(x)
    scaled = int(mantissa * 2**53)  # mantissa has at most 53 significant bits
    shift = exponent - 53
    if shift >= 0:
        return Fraction(scaled * 2**shift)
    return Fraction(scaled, 2**-shift)


def active_count(diag_entries, b_entries):
    return len({d for d, be in zip(diag_entries, b_entries) if be != 0})


@any_size
def split_read_matrix(path):
    """A native matrix file read token by token from ``str.split()``.

    The reference for ``linalg.read_matrix``: every token, each literal
    0 included, is made a string and looked up.
    """
    tokens = linalg.read_text(path).split()
    if len(tokens) < 2 or tokens[0] not in ("symmetric", "diagonal"):
        raise FormatError("matrix file must start with 'symmetric n' or 'diagonal n'")
    symmetric, n = tokens[0] == "symmetric", parse_count(tokens[1])
    del tokens[:2]
    want = n * (n + 1) // 2 if symmetric else n
    if len(tokens) != want:
        raise FormatError("expected %d entries, found %d" % (want, len(tokens)))
    values, den = linalg._literal_values(tokens)
    kept = np.flatnonzero(values != 0)
    rows = cols = kept
    if symmetric:
        rows = np.searchsorted(np.cumsum(np.arange(n)), kept, side="right") - 1
        cols = kept - rows * (rows + 1) // 2
    return linalg.SymmetricMatrix._ints(n, rows, cols, values[kept], den)


@any_size
def fraction_read_matrix_market(path):
    """A Matrix Market file's entries read with int() and float(), a Fraction each.

    The reference for ``linalg.read_matrix`` on entries in the ASCII
    grammar that both accept; int() and float() also take more, such as
    ``1_0`` or non-ASCII digits.  Counts go through ``arithmetic.parse_count``.
    """
    lines = linalg.read_text(path).splitlines()
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
    rows, cols, nnz = (parse_count(t) for t in size)
    if rows != cols:
        raise FormatError("matrix is not square: %d x %d" % (rows, cols))
    if len(body) - 1 != nnz:
        raise FormatError("expected %d entries, found %d" % (nnz, len(body) - 1))
    ii, jj, values, seen = [], [], [], set()
    for ln in body[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError("malformed entry line %r" % ln)
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            x = int(parts[2]) if fieldkind == "integer" else float(parts[2])
        except ValueError:
            raise FormatError("bad number in entry line %r" % ln) from None
        if fieldkind == "real" and not math.isfinite(x):
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
        values.append(Fraction(x))
    return linalg.SymmetricMatrix(rows, ii, jj, values)


def fraction_gen_rotated(spec, plan):
    """``benchgen.gen_rotated`` with a Fraction per entry at the end.

    The same integer congruence (M_kl / (s_k s_l), v_k / (w s_k)), but
    each entry is reduced on its own, as a Fraction, and the matrix and
    vector are built from those Fractions.
    """
    diag, rhs = benchgen._diagonal_system(spec)
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
        mi, mj = M[i, :].copy(), M[j, :].copy()
        M[i, :], M[j, :] = c * mi - s * mj, s * mi + c * mj
        mi, mj = M[:, i].copy(), M[:, j].copy()
        M[:, i], M[:, j] = c * mi - s * mj, s * mi + c * mj
        v[i], v[j] = c * v[i] - s * v[j], s * v[i] + c * v[j]
        scale[i] = scale[j] = q * t
    rows, cols = np.tril_indices(n)
    values = [Fraction(M[k, l], scale[k] * scale[l])
              for k, l in zip(rows.tolist(), cols.tolist())]
    b = [Fraction(vk, w * sk) for vk, sk in zip(v.tolist(), scale)]
    return linalg.SymmetricMatrix(n, rows, cols, values), linalg.Vector.exact(b), spec.m


def fraction_parse_decimal(text):
    """Fraction(text): Python's grammar, wider than the package's in non-ASCII and ``_``.

    Unbounded in the exponent: call it only on text whose exponent is small.
    """
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise FormatError("not a number: %r" % text) from None

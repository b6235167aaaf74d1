import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from irmcg import linalg
from irmcg.arithmetic import EXACT, F64, BitBudget, demote, rationalize
from irmcg.benchgen import (
    RotationPlan,
    SpectrumSpec,
    gen_rotated,
    gen_spring_chain,
    parse_spectrum_inline,
    random_plan,
)
from irmcg.errors import (
    BudgetExceeded,
    DimensionError,
    ExactRequired,
    FormatError,
    InvalidScalar,
    NotSPD,
    ScalarOverflow,
    SingularRitzSystem,
)
from irmcg.linalg import (
    SymmetricMatrix,
    Vector,
    add_scaled,
    add_to_entry,
    condition_estimate,
    demote_matrix,
    demote_vector,
    diag_solve,
    dot,
    energy,
    matvec,
    rationalize_matrix,
    rationalize_vector,
    read_matrix,
    read_vector,
    small_solve,
    snap_matrix,
    spd_check,
    vadd,
    vscale,
    vsub,
    write_matrix,
    write_vector,
)
from irmcg.linalg import _certificate_holds, _cholesky_error_bound, _spd_certificate, _spd_ldlt

small_ints = st.integers(min_value=-9, max_value=9)
small_fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


def random_spd(rng, n):
    """Random exact SPD matrix B^T B + I via a random integer B."""
    B = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    rows = [
        [
            sum((B[k][i] * B[k][j] for k in range(n)), F(0)) + (1 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return SymmetricMatrix.from_rows(rows)


def random_rational(rng):
    """Small, or (one in five) over 4096 bits, over unrelated denominators."""
    big = rng.random() < 0.2
    num = rng.randint(-2**4100, 2**4100) if big else rng.randint(-9, 9)
    return F(num, rng.choice([3, 7, 11, 13, 2**61 - 1, 2**127 - 1]) ** rng.randint(0, 2))


def random_sparse(rng, n, density=0.4):
    """Random exact symmetric matrix with random_rational entries and one zero row.

    Each off-diagonal pair is stored with probability density.
    """
    zero_row = rng.randrange(n)
    coords = [(i, j) for i in range(n) for j in range(i + 1)
              if zero_row not in (i, j) and (i == j or rng.random() < density)]
    A = SymmetricMatrix(n, [i for i, _ in coords], [j for _, j in coords],
                        [random_rational(rng) for _ in coords])
    assert not any(oracles.unpack(A)[zero_row])
    return A


class TestVector:
    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            Vector.exact([])

    def test_rejects_nan(self):
        with pytest.raises(InvalidScalar):
            Vector.f64([1.0, float("nan")])

    def test_f64_storage_is_read_only(self):
        for field in (F64, EXACT):
            v = Vector([1, 2], field)
            for arr in (
                v.data,
                vadd(v, v).data,
                add_to_entry(v, 0, 1).data,
                SymmetricMatrix.diagonal([1, 2], field).data,
            ):
                with pytest.raises(ValueError):
                    arr[0] = 3

    def test_algebra(self):
        u = Vector.exact([1, 2])
        v = Vector.exact([3, -1])
        assert vadd(u, v) == Vector.exact([4, 1])
        assert vsub(u, v) == Vector.exact([-2, 3])
        assert vscale(F(1, 2), u) == Vector.exact([F(1, 2), 1])
        assert add_scaled(u, 2, v) == Vector.exact([7, 0])
        assert dot(u, v) == 1
        assert add_to_entry(u, 1, F(1, 3)) == Vector.exact([1, F(7, 3)])

    def test_mixed_fields_rejected(self):
        with pytest.raises(DimensionError):
            dot(Vector.exact([1]), Vector.f64([1.0]))

    def test_f64_entry_delta_beyond_double_range(self):
        with pytest.raises(ScalarOverflow, match="does not fit in a double"):
            add_to_entry(Vector.f64([1.0]), 0, F(10) ** 400)
        assert add_to_entry(Vector.f64([1.0]), 0, F(1, 3)).data[0] == 1.0 + 1 / 3


# Dyadic entries are exact in f64, so the two lanes must agree bit for
# bit.  The scalar is a Fraction in both lanes; none of the results is -0.
LANE_U = [F(1, 2), F(-3, 4), F(5), F(0), F(7, 8)]
LANE_V = [F(-1, 4), F(3, 2), F(0), F(9, 16), F(1)]
LANE_D = [F(2), F(1, 4), F(3), F(1, 2), F(1)]
LANE_C = F(3, 4)
LANE_OPS = {
    "dot": lambda u, v, D: dot(u, v),
    "vadd": lambda u, v, D: vadd(u, v),
    "vsub": lambda u, v, D: vsub(u, v),
    "vscale": lambda u, v, D: vscale(LANE_C, v),
    "add_scaled": lambda u, v, D: add_scaled(u, LANE_C, v),
    "add_to_entry": lambda u, v, D: add_to_entry(u, 3, LANE_C),
    "matvec_diagonal": lambda u, v, D: matvec(D, u),
    "is_zero": lambda u, v, D: (u.is_zero(), vsub(u, u).is_zero()),
    "eq": lambda u, v, D: (u == v, u == vadd(u, Vector.zeros(len(u), u.field))),
}


@pytest.mark.parametrize("op", sorted(LANE_OPS))
def test_lanes_agree_bit_for_bit(op):
    exact, f64 = (
        LANE_OPS[op](
            Vector(LANE_U, field), Vector(LANE_V, field), SymmetricMatrix.diagonal(LANE_D, field)
        )
        for field in (EXACT, F64)
    )
    if isinstance(exact, Vector):
        assert exact.data.dtype == object and f64.data.dtype == np.float64
        assert demote_vector(exact).data.tobytes() == f64.data.tobytes()
    elif isinstance(exact, tuple):
        assert exact == f64 and all(type(e) is bool for e in exact + f64)
    else:
        assert type(exact) is F and type(f64) is float
        assert demote(exact).hex() == f64.hex()


# f64 results are wrapped without a copy: each route that makes one.  The
# CSR matrix stores a pair fewer than its square; the BLAS one stores all n^2.
def _f64_routes():
    csr = SymmetricMatrix.from_rows([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]], F64)
    blas = SymmetricMatrix.from_rows([[2.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 4.0]], F64)
    assert csr.data.size == 7 and blas.data.size == 9
    return {
        "add_scaled": lambda u, v: add_scaled(u, 3, v),
        "vadd": vadd,
        "vsub": vsub,
        "vscale": lambda u, v: vscale(10, v),
        "add_to_entry": lambda u, v: add_to_entry(u, 0, 0.5),
        "matvec-csr": lambda u, v: matvec(csr, v),
        "matvec-blas": lambda u, v: matvec(blas, v),
    }


class TestF64Results:
    @pytest.mark.parametrize("route", sorted(_f64_routes()))
    def test_read_only_and_not_sharing_inputs(self, route):
        u, v = Vector.f64([1.0, -2.0, 0.5]), Vector.f64([0.25, 4.0, -1.0])
        out = _f64_routes()[route](u, v)
        assert out.field == F64 and len(out) == 3 and out.data.dtype == np.float64
        assert not out.data.flags.writeable
        assert not any(np.shares_memory(out.data, w.data) for w in (u, v))
        assert out == Vector.f64(out.data.tolist())

    @pytest.mark.parametrize("route", ["add_scaled", "vadd", "vscale", "matvec-csr",
                                       "matvec-blas"])
    def test_overflow_is_invalid_scalar(self, route):
        huge = Vector.f64([1e308, 1e308, 1e308])
        with np.errstate(over="ignore"), pytest.raises(InvalidScalar) as exc:
            _f64_routes()[route](huge, huge)
        assert str(exc.value) == "vector contains NaN or infinity"

    @pytest.mark.parametrize("c", [0.0, 1.0])  # reduceat, BLAS
    def test_nan_is_invalid_scalar(self, c):
        # Row 0 sums 1e309 and -1e309: inf - inf, a NaN.
        A = SymmetricMatrix.from_rows([[1e308, -1e308, c], [-1e308, 1e308, c], [c, c, 1.0]], F64)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidScalar) as exc:
            matvec(A, Vector.f64([10.0, 10.0, 1.0]))
        assert str(exc.value) == "vector contains NaN or infinity"

    def test_public_constructor_still_copies(self):
        arr = np.array([1.0, 2.0])
        v = Vector.f64(arr)
        arr[0] = 5.0
        assert v.data[0] == 1.0 and arr.flags.writeable


# Small, zero, or over 4096 bits, over unrelated denominators.
rationals = st.one_of(
    small_fractions,
    st.just(F(0)),
    st.builds(F, st.integers(-2**4200, 2**4200),
              st.sampled_from([1, 3, 7**5, 2**61 - 1, (2**127 - 1) ** 2, 3**2700])),
)


@st.composite
def exact_lists(draw, n):
    """n rationals, or (one in four) the zero vector."""
    if draw(st.integers(0, 3)) == 0:
        return [F(0)] * n
    return draw(st.lists(rationals, min_size=n, max_size=n))


def assert_exact_result(v, want):
    """v holds want, as int numerators over one least denominator."""
    nums = v.num.tolist()
    assert all(type(e) is int for e in nums) and type(v.den) is int and v.den >= 1
    assert math.gcd(v.den, *nums) == 1
    assert not v.num.flags.writeable and not v.data.flags.writeable
    assert list(v.data) == want and all(type(q) is F for q in v.data)
    assert v == Vector.exact(want)


class TestIntegerVectorLane:
    """Exact vector operations on int numerators against Fraction oracles."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(exact_lists(n), exact_lists(n))),
           rationals)
    def test_vector_ops_match_fraction_oracle(self, pair, c):
        U, V = pair
        u, v = Vector.exact(U), Vector.exact(V)
        got = dot(u, v)
        assert type(got) is F and got == oracles.vdot(U, V)
        assert_exact_result(vadd(u, v), [a + b for a, b in zip(U, V)])
        assert_exact_result(vsub(u, v), [a - b for a, b in zip(U, V)])
        for k in (c, -c, F(0)):
            assert_exact_result(vscale(k, v), [k * b for b in V])
            assert_exact_result(add_scaled(u, k, v), [a + k * b for a, b in zip(U, V)])
            i = len(U) - 1
            assert_exact_result(add_to_entry(u, i, k), U[:i] + [U[i] + k])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 8).flatmap(exact_lists))
    def test_matvec_matches_fraction_oracle(self, seed, V):
        rng = random.Random(seed)
        A = random_sparse(rng, len(V)) if len(V) > 1 else SymmetricMatrix.diagonal([F(2, 3)])
        assert_exact_result(matvec(A, Vector.exact(V)), oracles.full_matvec(oracles.unpack(A), V))

    def test_data_is_built_once(self):
        # Over the lcm 6 the sum is [3, 12] / 6, reduced once to [1, 4] / 2.
        v = vadd(Vector.exact([F(1, 3), 2]), Vector.exact([F(1, 6), 0]))
        assert (v.num.tolist(), v.den) == ([1, 4], 2)
        assert v.data is v.data and list(v.data) == [F(1, 2), 2]


class TestMatvec:
    def test_diagonal(self):
        A = SymmetricMatrix.diagonal([1, 2, 3])
        assert matvec(A, Vector.exact([1, 1, 1])) == Vector.exact([1, 2, 3])

    def test_dense(self):
        A = SymmetricMatrix.from_rows([[2, 1], [1, 2]])
        assert matvec(A, Vector.exact([1, 0])) == Vector.exact([2, 1])

    def test_zero_vector(self):
        A = SymmetricMatrix.from_rows([[2, 1], [1, 2]])
        assert matvec(A, Vector.zeros(2, EXACT)).is_zero()

    @pytest.mark.parametrize("rows", [
        [[0, 1, 0], [1, 0, 2], [0, 2, 3]],
        [[0, 0], [0, 5]],
    ])
    def test_zero_diagonal_entry(self, rows):
        # No SPD gate runs here (as in gen_inverse): a zero diagonal entry
        # is stored, so no row is empty.
        A = SymmetricMatrix.from_rows(rows)
        v = [F(3), F(-1, 2), F(7)][:A.n]
        assert list(matvec(A, Vector.exact(v)).data) == oracles.full_matvec(rows, v)

    @pytest.mark.parametrize("block", [1, 3, 7, 1024])
    def test_exact_blocks_match_oracle(self, block, monkeypatch):
        # Blocks end at row boundaries; a row longer than a block is one block.
        monkeypatch.setattr(linalg, "_BLOCK", block)
        rng = random.Random(block)
        matrices = [random_spd(rng, 8), gen_spring_chain(9, range(1, 11)),
                    SymmetricMatrix.diagonal([1, 0, 3])]
        matrices += [random_sparse(rng, n) for n in [1, 2, 5, 12, 40] * 3]
        # Sparser than a quarter stored, so multiplied by blocks, not by limbs.
        matrices += [random_sparse(rng, n, 0.05) for n in [20, 60]]
        matrices += [gen_spring_chain(40, range(1, 42)), SymmetricMatrix.diagonal(range(1, 9))]
        for A in matrices:
            rows = oracles.unpack(A)
            for v in ([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(A.n)],
                      [random_rational(rng) for _ in range(A.n)], [F(0)] * A.n):
                got = matvec(A, Vector.exact(v))
                assert list(got.data) == oracles.full_matvec(rows, v)
                assert all(isinstance(q, F) for q in got.data)
        assert all(A._limbs is None for A in matrices[-4:])

    def test_dimension_mismatch(self):
        A = SymmetricMatrix.diagonal([1, 2])
        with pytest.raises(DimensionError):
            matvec(A, Vector.exact([1, 2, 3]))

    @settings(max_examples=30)
    @given(st.integers(0, 10**6), st.integers(2, 5), small_ints)
    def test_linearity_exact(self, seed, n, c):
        rng = random.Random(seed)
        A = random_spd(rng, n)
        u = Vector.exact([rng.randint(-5, 5) for _ in range(n)])
        v = Vector.exact([rng.randint(-5, 5) for _ in range(n)])
        left = matvec(A, add_scaled(u, c, v))
        right = add_scaled(matvec(A, u), c, matvec(A, v))
        assert left == right

    @settings(max_examples=20)
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_matches_full_product_oracle(self, seed, n):
        rng = random.Random(seed)
        A = random_spd(rng, n)
        v = [F(rng.randint(-5, 5)) for _ in range(n)]
        got = matvec(A, Vector.exact(v))
        assert list(got.data) == oracles.full_matvec(oracles.unpack(A), v)

    def test_f64_dense_matches_exact(self):
        rng = random.Random(11)
        A = random_spd(rng, 6)
        v = [rng.randint(-5, 5) for _ in range(6)]
        exact = matvec(A, Vector.exact(v))
        dp = matvec(demote_matrix(A), Vector.f64(v))
        assert np.allclose(dp.data, [float(e) for e in exact.data], rtol=1e-14)

    def test_f64_fully_stored_is_blas_gemv(self):
        # With all n^2 entries stored the CSR data is the row-major square;
        # one stored zero fewer and the rows are summed by reduceat.
        rng = np.random.default_rng(4)
        B = rng.standard_normal((9, 9))
        square = B @ B.T + 9 * np.eye(9)
        v = rng.standard_normal(9)
        A = SymmetricMatrix.from_rows(square, F64)
        assert A.data.size == 81
        assert np.array_equal(matvec(A, Vector.f64(v)).data, square @ v)
        square[5, 0] = square[0, 5] = 0.0
        S = SymmetricMatrix.from_rows(square, F64)
        assert S.data.size == 79
        assert np.allclose(matvec(S, Vector.f64(v)).data, square @ v, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 7, 23, 40])
    def test_f64_dense_matches_oracle(self, n):
        rng = random.Random(n)
        A = random_spd(rng, n)
        v = [F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)]
        want = np.array([float(e) for e in oracles.full_matvec(oracles.unpack(A), v)])
        got = matvec(demote_matrix(A), demote_vector(Vector.exact(v))).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# Bit lengths at and around the 16-bit limb boundaries; a multiple of
# 16 needs one more limb, whose top one (signed) is 0 or -1.
LIMB_BITS = [0, 1, 15, 16, 17, 31, 32, 33, 48, 64, 231]


@st.composite
def signed_ints(draw, bits):
    b = draw(st.sampled_from(bits))
    if b == 0:
        return 0
    magnitude = draw(st.integers(2 ** (b - 1), 2**b - 1))
    return magnitude if draw(st.booleans()) else -magnitude


@st.composite
def mostly_stored(draw):
    """Exact symmetric integer matrix, n <= 12, with >= n^2 / 4 entries stored."""
    n = draw(st.integers(1, 12))
    zero_diagonal = draw(st.booleans())
    coords = [(i, j) for i in range(n) for j in range(i + 1)]
    values = [0 if i == j and zero_diagonal else draw(signed_ints(LIMB_BITS))
              for i, j in coords]
    A = SymmetricMatrix(n, [i for i, _ in coords], [j for _, j in coords], values)
    assume(linalg._mostly_stored(A))
    return A


def rotated_n60(seed=100):
    """The benchmark's rotated system: spectrum 1x5, ..., 12x5, 180 rotations."""
    spec = parse_spectrum_inline(",".join("%dx5" % k for k in range(1, 13)))
    return gen_rotated(spec, random_plan(spec.n, 180, seed))[0]


class TestLimbMatvec:
    """The exact matvec of a mostly stored matrix, by 16-bit limbs in float64 BLAS."""

    @settings(max_examples=200, deadline=None)
    @given(A=mostly_stored(), data=st.data())
    def test_matches_int_oracle(self, A, data):
        # Vectors from the zero vector to 2100 bits: past two 64-limb chunks.
        num = [data.draw(signed_ints(LIMB_BITS + [1024, 1040, 2100])) for _ in range(A.n)]
        den = data.draw(st.sampled_from([1, 3, 2**64 + 1]))
        v = Vector.exact([F(e, den) for e in num])
        got = matvec(A, v)
        assert A._limbs is not None
        assert (got.num.tolist(), got.den) == oracles.int_matvec(A, v.num.tolist(), v.den)

    @staticmethod
    def banded(pairs):
        """Order-8 matrix: diagonal 1..8 and the first `pairs` of a fixed list of pairs."""
        off = [(1, 0), (3, 2), (5, 4), (7, 6), (7, 0)][:pairs]
        rows = list(range(8)) + [i for i, _ in off]
        cols = list(range(8)) + [j for _, j in off]
        return SymmetricMatrix(8, rows, cols, [F(k + 1, 3) for k in range(8)] + [-5] * pairs)

    @pytest.mark.parametrize("pairs, limbs", [(4, True), (3, False), (5, True)])
    def test_route_starts_at_a_quarter_stored(self, pairs, limbs):
        # 8 diagonal entries and 2 per pair: 16 of 64 stored is exactly a quarter.
        A = self.banded(pairs)
        assert A.data.size == 8 + 2 * pairs
        v = Vector.exact([F(k - 3, 7) for k in range(8)])
        got = matvec(A, v)
        assert (A._limbs is not None) == limbs
        assert (got.num.tolist(), got.den) == oracles.int_matvec(A, v.num.tolist(), v.den)

    def test_square_is_built_once(self, monkeypatch):
        # Splits: A's n^2 numerators and v's n on the first product, v's alone after.
        A = random_spd(random.Random(5), 6)
        v = Vector.exact([F(k, 5) for k in range(6)])
        sizes = []
        real = linalg._split_limbs
        monkeypatch.setattr(linalg, "_split_limbs", lambda values, count: (
            sizes.append(len(values)) or real(values, count)))
        first = matvec(A, v)
        square = A._limbs
        assert matvec(A, v) == first and matvec(A, vscale(3, v)) == vscale(3, first)
        assert A._limbs is square and sizes == [36, 6, 6, 6]

    def test_converted_matrices_start_without_it(self):
        A = random_spd(random.Random(6), 5)
        matvec(A, Vector.exact([1, 2, 3, 4, 5]))
        assert A._limbs is not None
        D = demote_matrix(A)
        matvec(D, Vector.f64([1, 2, 3, 4, 5]))
        for B in (D, rationalize_matrix(D), snap_matrix(A, F(1, 10**9))):
            assert B._limbs is None

    def test_square_takes_8_la_n2_bytes(self):
        A = rotated_n60()
        matvec(A, Vector.exact(range(60)))
        la = max(e.bit_length() for e in A.data.tolist()) // 16 + 1
        assert la == 13 and A._limbs.dtype == np.float64
        assert A._limbs.shape == (60, la * 60) and A._limbs.nbytes == 8 * la * 60 * 60
        assert not A._limbs.flags.writeable

    def test_memory_of_one_product(self):
        # A 4096-bit iterate is 257 limbs: 5 chunks of at most 64 limbs,
        # each a Toeplitz array of 60 la x (la + 63) doubles (0.47 MiB).
        # Chunks of 256 limbs would peak over 2 MiB.
        A = rotated_n60()
        rng = random.Random(7)
        v = Vector.exact([F(rng.randint(-2**4096, 2**4096), 3) for _ in range(60)])
        want = matvec(A, v)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            got = matvec(A, v)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 * 2**20


def tridiagonal(diag, off, field=F64):
    """Symmetric matrix with the given diagonal and off-diagonal (a zero one is not stored)."""
    n = len(diag)
    return SymmetricMatrix(n, [*range(n), *range(1, n)], [*range(n), *range(n - 1)],
                           [*diag, *off], field)


# Doubles from subnormals to 2^500 in magnitude, both zeros among them:
# products of two stay finite, and sums of three cancel or absorb.
wide_doubles = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 1e16, -1e16]),
    st.floats(-2.0**500, 2.0**500, allow_nan=False, allow_subnormal=True),
    st.builds(lambda m, e: math.ldexp(m, e), st.floats(-1, 1), st.integers(-1074, 480)),
)


@st.composite
def band_system(draw):
    """f64 tridiagonal matrix of order 3 to 40, no off-diagonal zero, and a vector."""
    n = draw(st.integers(3, 40))
    diag = draw(st.lists(wide_doubles, min_size=n, max_size=n))
    off = draw(st.lists(wide_doubles.filter(bool), min_size=n - 1, max_size=n - 1))
    v = draw(st.lists(wide_doubles, min_size=n, max_size=n))
    return tridiagonal(diag, off), np.array(v)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


class TestBandMatvec:
    """An f64 tridiagonal matrix is multiplied on its diagonals, as reduceat sums."""

    @settings(max_examples=300, deadline=None)
    @given(band_system())
    def test_matches_reduceat_bit_for_bit(self, system):
        A, v = system
        assert A._band is not None
        want = np.add.reduceat(A.data * v[A.indices], A.indptr[:-1])
        assert bits(matvec(A, Vector.f64(v)).data) == bits(want)

    def test_sums_in_reduceat_order(self):
        # Row 1 is 1, 1e16, -1e16: reduceat adds 1 + (1e16 - 1e16) = 1.
        A = tridiagonal([4.0, 1e16, 4.0], [1.0, -1e16])
        got = matvec(A, Vector.f64([1.0, 1.0, 1.0])).data
        assert bits(got) == bits([5.0, 1.0, -1e16 + 4.0])
        assert bits(got) == bits(np.add.reduceat(A.data, A.indptr[:-1]))

    def test_route_needs_an_exact_tridiagonal_of_order_3(self):
        # A zero spring's off-diagonal is not stored; a corner entry
        # makes 3n - 2 stored entries that are not the band.
        zero_spring = tridiagonal([2.0] * 6, [-1.0, -1.0, 0.0, -1.0, -1.0])
        assert zero_spring.data.size == 3 * 6 - 4
        corner = SymmetricMatrix(4, [0, 1, 2, 3, 1, 2, 3], [0, 1, 2, 3, 0, 1, 0],
                                 [4.0] * 4 + [-1.0] * 3, F64)
        assert corner.data.size == 3 * 4 - 2
        rotated = demote_matrix(rotated_n60())
        assert rotated.data.size == 3582
        for A in (tridiagonal([2.0], []), tridiagonal([2.0, 2.0], [-1.0]), zero_spring,
                  corner, rotated, gen_spring_chain(5, [1] * 6)):
            assert A._band is None
        assert tridiagonal([2.0] * 3, [-1.0] * 2)._band is not None

    def test_each_matrix_has_its_own_diagonals(self):
        E = gen_spring_chain(50, [1 + k % 3 for k in range(51)])
        first, second = demote_matrix(E), demote_matrix(E)
        other = demote_matrix(gen_spring_chain(50, [F(1, 3)] * 51))
        assert first == second and demote_matrix(first) is first
        arrays = [a for B in (first, second, other) for a in (B.data, *B._band)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])
        for B in (first, other):
            dg, off = B._band
            assert dg.tolist() == B.diag()
            assert off.tolist() == [B.entry(i + 1, i) for i in range(49)]
            assert all(a.flags.c_contiguous and not a.flags.writeable for a in B._band)


class TestF64Storage:
    def test_dense_is_read_only_and_symmetric(self):
        A = demote_matrix(random_spd(random.Random(3), 5))
        assert A.data.dtype == np.float64
        with pytest.raises(ValueError):
            A.data[0] = 7.0
        square = A.full()
        assert np.array_equal(square, square.T)
        assert A.entry(3, 1) == A.entry(1, 3) == square[3, 1]
        assert A.diag() == list(np.diagonal(square))

    def test_full_is_a_writable_copy(self):
        A = SymmetricMatrix.from_rows([[2.0, 1.0], [1.0, 3.0]], F64)
        full = A.full()
        full[0, 0] = 9.0
        assert A.entry(0, 0) == 2.0

    def test_rejects_asymmetric_square(self):
        with pytest.raises(ValueError):
            SymmetricMatrix.from_rows([[1.0, 2.0], [3.0, 1.0]], F64)

    def test_rejects_wrong_shape_and_non_finite(self):
        # A flat list is not a list of rows.
        for flat in ([1.0, 0.0, 1.0], np.array([1.0, 0.0, 1.0]), [F(1), 0]):
            with pytest.raises(DimensionError, match="rows do not form a square matrix"):
                SymmetricMatrix.from_rows(flat, F64 if isinstance(flat[0], float) else EXACT)
        with pytest.raises(DimensionError):
            SymmetricMatrix.from_rows([[1.0, 0.0]], F64)
        with pytest.raises(InvalidScalar):
            SymmetricMatrix.from_rows([[float("inf")]], F64)
        with pytest.raises(InvalidScalar):
            SymmetricMatrix.diagonal([1.0, float("nan")], F64)

    def test_exact_constructors_keep_fractions(self):
        q = F(2, 3)
        assert Vector.exact([q, 1]).data[0] is q
        # A matrix keeps the value, as an int numerator over its one denominator.
        A = SymmetricMatrix.diagonal([q, 1])
        assert F(A.data[0], A.den) == q

    def test_coordinates_outside_the_lower_triangle_rejected(self):
        with pytest.raises(DimensionError):
            SymmetricMatrix(2, [0], [1], [1])
        with pytest.raises(DimensionError):
            SymmetricMatrix(2, [2], [0], [1])
        with pytest.raises(ValueError):
            SymmetricMatrix(2, [1, 1], [0, 0], [1, 2])


MARKET_HEAD = "%%MatrixMarket matrix coordinate real symmetric\n"


def _read(tmp_path, text, reader=read_matrix):
    path = tmp_path / "A.txt"
    path.write_text(text)
    return reader(path)


# Each path that builds a matrix, on input with a zero diagonal entry and
# (where the input can hold them) explicit off-diagonal zeros.
CONSTRUCTIONS = {
    "diagonal": lambda tmp: SymmetricMatrix.diagonal([1, 0, F(2, 3)]),
    "diagonal-f64": lambda tmp: SymmetricMatrix.diagonal([1.0, 0.0, -0.0], F64),
    "dense": lambda tmp: SymmetricMatrix(3, *np.tril_indices(3), [2, 0, 0, 1, 0, 3]),
    "dense-f64": lambda tmp: SymmetricMatrix.from_rows(
        [[2.0, -0.0, 1.0], [-0.0, 0.0, 0.0], [1.0, 0.0, 3.0]], F64),
    "from_rows": lambda tmp: SymmetricMatrix.from_rows(
        [[0, F(1, 3), 0], [F(1, 3), 5, -1], [0, -1, 0]]),
    "from_rows-f64": lambda tmp: SymmetricMatrix.from_rows([[4.0, 0.0], [0.0, 0.0]], F64),
    "coordinates": lambda tmp: SymmetricMatrix(4, [3, 2, 1, 3], [0, 2, 1, 3], [7, 0, 4, 1]),
    "chain": lambda tmp: gen_spring_chain(5, [1, 2, 3, 4, 5, 6]),
    "read_matrix-symmetric": lambda tmp: _read(tmp, "symmetric 3\n2\n0 0\n1/2 0 3\n"),
    "read_matrix-diagonal": lambda tmp: _read(tmp, "diagonal 3\n1\n0\n5\n"),
    "read_matrix-market": lambda tmp: _read(
        tmp, MARKET_HEAD + "3 3 4\n1 1 2.0\n1 3 0.5\n3 2 0.0\n3 3 1.0\n"),
    # An off-diagonal entry below the double range demotes to zero.
    "demote_matrix": lambda tmp: demote_matrix(SymmetricMatrix.from_rows(
        [[1, F(1, 10**400), 2], [F(1, 10**400), 0, 0], [2, 0, 9]])),
    "rationalize_matrix": lambda tmp: rationalize_matrix(
        SymmetricMatrix.from_rows([[0.1, 0.0, 0.2], [0.0, 0.0, 0.0], [0.2, 0.0, 0.3]], F64)),
    "snap_matrix": lambda tmp: snap_matrix(SymmetricMatrix.from_rows(
        [[1, F(1, 10**20), 3], [F(1, 10**20), 0, 0], [3, 0, 1]]), F(1, 10**12)),
}


def _stored(A, k):
    """Value of stored entry k: a double, or an int numerator over A.den."""
    return A.data[k] if A.field == F64 else F(A.data[k], A.den)


@pytest.mark.parametrize("how", sorted(CONSTRUCTIONS))
def test_storage_invariants(how, tmp_path):
    A = CONSTRUCTIONS[how](tmp_path)
    arrays = (A.indptr, A.indices, A.data)
    assert not any(arr.flags.writeable for arr in arrays)
    assert A.indptr[0] == 0 and A.indptr[-1] == len(A.indices) == len(A.data)
    stored = {}
    for i in range(A.n):
        lo, hi = int(A.indptr[i]), int(A.indptr[i + 1])
        cols = A.indices[lo:hi].tolist()
        assert cols == sorted(set(cols)), "indices sorted within the row"
        assert i in cols, "every diagonal entry stored"
        stored.update(((i, j), _stored(A, k)) for j, k in zip(cols, range(lo, hi)))
    assert all(v != 0 for (i, j), v in stored.items() if i != j), "no off-diagonal zero"
    if A.field == EXACT:
        nums = A.data.tolist()
        assert all(type(e) is int for e in nums) and math.gcd(A.den, *nums) == 1, "least den"
    assert all(stored.get((j, i)) == v for (i, j), v in stored.items()), "symmetric"
    assert oracles.unpack(A) == [[F(e) for e in row] for row in A.full()]


class TestSmallSolve:
    def test_diagonal_2x2(self):
        got = small_solve([[2, 0], [0, 4]], [2, 8], EXACT)
        assert got == [1, 2] and all(type(e) is F for e in got)

    def test_1x1(self):
        got = small_solve([[4]], [2], EXACT)
        assert got == [F(1, 2)] and type(got[0]) is F

    def test_singular(self):
        with pytest.raises(SingularRitzSystem):
            small_solve([[1, 1], [1, 1]], [1, 1], EXACT)

    def test_f64_singular(self):
        with pytest.raises(SingularRitzSystem):
            small_solve([[0.0]], [1.0], F64)

    @pytest.mark.parametrize("abar, rbar", [
        ([[1.0, float("nan")], [float("nan"), 1.0]], [1.0, 1.0]),
        ([[float("nan"), 0.0], [0.0, 1.0]], [1.0, 1.0]),
        ([[1.0]], [float("inf")]),
    ])
    def test_f64_non_finite_rejected(self, abar, rbar):
        with pytest.raises(InvalidScalar):
            small_solve(abar, rbar, F64)

    def test_f64_partial_pivot(self):
        assert small_solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0], F64) == [1.0, 2.0]

    @settings(max_examples=40)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_exact_residual_is_zero(self, seed, m):
        rng = random.Random(seed)
        A = random_spd(rng, m)
        rows = oracles.unpack(A)
        rbar = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        a = small_solve(rows, rbar, EXACT)
        residual = [
            oracles.vdot(rows[i], a) - rbar[i] for i in range(m)
        ]
        assert all(e == 0 for e in residual)


class TestSpdCheck:
    def test_diagonal_positive(self):
        assert spd_check(SymmetricMatrix.diagonal([1, 2, 3])) is True

    def test_indefinite_dense(self):
        A = SymmetricMatrix.from_rows([[1, 2], [2, 1]])
        assert spd_check(A) is False
        assert oracles.leading_minors([[F(1), F(2)], [F(2), F(1)]])[1] == -3

    def test_spd_dense(self):
        A = SymmetricMatrix.from_rows([[2, 1], [1, 2]])
        assert spd_check(A) is True
        assert oracles.leading_minors([[F(2), F(1)], [F(1), F(2)]]) == [2, 3]

    def test_f64_uses_cholesky(self):
        assert spd_check(SymmetricMatrix.from_rows([[2.0, 1.0], [1.0, 2.0]], F64))
        assert not spd_check(SymmetricMatrix.from_rows([[1.0, 2.0], [2.0, 1.0]], F64))

    @settings(max_examples=25)
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_positive_quadratic_form(self, seed, n):
        rng = random.Random(seed)
        A = random_spd(rng, n)
        assert spd_check(A) is True
        x = [F(rng.randint(-9, 9)) for _ in range(n)]
        if any(x):
            rows = oracles.unpack(A)
            assert oracles.vdot(x, oracles.full_matvec(rows, x)) > 0


@st.composite
def small_symmetric(draw):
    """Exact symmetric matrix, n <= 5: a Gram matrix B^T B + sI or arbitrary entries.

    B has k <= n rows, so k < n gives a rank-deficient Gram matrix; the
    shift s makes it definite, leaves it semidefinite or tips it over.
    """
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        k = draw(st.integers(1, n))
        B = [[draw(small_fractions) for _ in range(n)] for _ in range(k)]
        s = draw(st.sampled_from((F(0), F(1), F(1, 2**40), F(1, 2**60), -F(1, 2**40))))
        rows = [
            [sum((B[r][i] * B[r][j] for r in range(k)), F(0)) + (s if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
    else:
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = draw(small_fractions)
    return SymmetricMatrix.from_rows(rows)


def rotated_near_singular(lam_min, shift=0, seed=7):
    """Spectrum {lam_min, 1 (x5), 2 (x5), 3 (x5)} after 48 seeded rotations, minus shift I."""
    spec = SpectrumSpec(((lam_min, 1, True), (1, 5, True), (2, 5, True), (3, 5, True)))
    A, _, _ = gen_rotated(spec, random_plan(spec.n, 48, seed))
    rows = oracles.unpack(A)
    for i in range(A.n):
        rows[i][i] -= shift
    return SymmetricMatrix.from_rows(rows)


class TestSpdCertificate:
    """The float certificate proves SPD or says nothing; spd_check's decision is exact."""

    @settings(max_examples=200, deadline=None)
    @given(small_symmetric())
    def test_decision_is_sylvester(self, A):
        sylvester = all(m > 0 for m in oracles.leading_minors(oracles.unpack(A)))
        assert not _spd_certificate(A) or sylvester
        assert spd_check(A) is sylvester

    @pytest.mark.parametrize("exponent, certified", [(20, True), (40, True), (60, False)])
    def test_rotated_small_eigenvalue(self, exponent, certified):
        A = rotated_near_singular(F(1, 2**exponent))
        assert _spd_certificate(A) is certified
        assert spd_check(A) is True

    def test_rotated_barely_indefinite(self):
        # lambda_min = -2^-60: a Cholesky of the demoted matrix accepts some of these.
        naive = []
        for seed in range(7, 17):
            A = rotated_near_singular(F(1, 2**60), F(1, 2**59), seed)
            try:
                np.linalg.cholesky(demote_matrix(A).full())
                naive.append(True)
            except np.linalg.LinAlgError:
                naive.append(False)
            assert _spd_certificate(A) is False
            assert _spd_ldlt(A, BitBudget()) is False
            assert spd_check(A) is False
        assert any(naive)

    def test_free_free_laplacian_is_semidefinite(self):
        n = 200
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = F(1) if i in (0, n - 1) else F(2)
            if i:
                rows[i][i - 1] = rows[i - 1][i] = F(-1)
        A = SymmetricMatrix.from_rows(rows)
        assert _spd_certificate(A) is False
        assert spd_check(A) is False

    def test_long_chain_is_certified(self):
        A = gen_spring_chain(1000, [1, 2, 3] * 333 + [1, 2])
        assert _spd_certificate(A) is True
        assert spd_check(A) is True

    def test_entry_beyond_double_range(self):
        A = SymmetricMatrix.from_rows([[10**400, 1], [1, 1]])
        assert _spd_certificate(A) is False
        assert spd_check(A) is True

    @pytest.mark.parametrize("off, expected", [(F(1, 10**330), True), (F(1, 10**150), False)])
    def test_subnormal_entries(self, off, expected):
        A = SymmetricMatrix.from_rows([[F(1, 10**320), off], [off, 1]])
        assert (oracles.leading_minors(oracles.unpack(A))[1] > 0) is expected
        assert _spd_ldlt(A, BitBudget()) is expected
        assert not _spd_certificate(A) or expected
        assert spd_check(A) is expected

    def test_exact_fallback_is_under_the_budget(self):
        # Entries reach 207 bits, the LDL^T pivots 370 bits.
        A = rotated_near_singular(F(1, 2**60))
        with pytest.raises(BudgetExceeded, match="pivot"):
            spd_check(A, BitBudget(300))
        assert A._spd is None
        assert spd_check(A, BitBudget()) is True


class TestCertificateCheck:
    """The certificate's exact check, in ints, against the Fraction margin."""

    @staticmethod
    def oracle(A, At):
        t = [F(x) for x in np.diagonal(At).tolist()]
        bound = _cholesky_error_bound(A.n, sum(t), max(t))
        return oracles.gershgorin_margin(oracles.unpack(A), At.tolist()) - bound

    @settings(max_examples=100, deadline=None)
    @given(small_symmetric(), st.sampled_from([0.0, 2.0**-40, 0.5, 3.0]))
    def test_matches_fraction_check(self, A, c):
        At = demote_matrix(A).full() - c * np.eye(A.n)
        assert _certificate_holds(A, At) is (self.oracle(A, At) > 0)

    @pytest.mark.parametrize("exponent", [20, 40, 60])
    @pytest.mark.parametrize("c", [2.0**-70, 2.0**-45, 2.0**-22])
    def test_rotated_near_singular(self, exponent, c):
        A = rotated_near_singular(F(1, 2**exponent))
        At = demote_matrix(A).full() - c * np.eye(A.n)
        assert _certificate_holds(A, At) is (self.oracle(A, At) > 0)

    @pytest.mark.parametrize("delta, holds", [
        (F(1, 2**400), True), (F(0), False), (-F(1, 2**400), False),
    ])
    def test_margin_at_the_bound(self, delta, holds):
        # A = At + R with R's margin exactly the bound + delta, in row 2.
        rng = random.Random(5)
        n = 6
        At = demote_matrix(random_spd(rng, n)).full() - 0.25 * np.eye(n)
        t = [F(x) for x in np.diagonal(At).tolist()]
        bound = _cholesky_error_bound(n, sum(t), max(t))
        R = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                R[i][j] = R[j][i] = F(rng.randint(-9, 9), 3**40)
        for i in range(n):
            R[i][i] = sum(abs(e) for e in R[i]) + bound + (delta if i == 2 else 1)
        A = SymmetricMatrix.from_rows(
            [[F(At[i, j]) + R[i][j] for j in range(n)] for i in range(n)])
        assert self.oracle(A, At) == delta
        assert _certificate_holds(A, At) is holds


@st.composite
def sparse_symmetric(draw):
    """Exact symmetric matrix, n <= 7, with about two thirds of its off-diagonal entries zero."""
    n = draw(st.integers(1, 7))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if i == j or draw(st.integers(0, 2)) == 0:
                rows[i][j] = rows[j][i] = draw(small_fractions)
    return SymmetricMatrix.from_rows(rows)


@st.composite
def band_gate_case(draw):
    """f64 tridiagonal matrix near the SPD boundary, or past it, or random.

    Diagonal entries are |e_i-1| + |e_i| + delta, one delta a matrix: at
    delta = 0 the matrix is singular in exact arithmetic, so rounding
    decides; a tiny delta puts it just inside or outside, a negative one
    makes it indefinite.
    """
    n = draw(st.integers(3, 30))
    off = draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False).filter(bool),
                        min_size=n - 1, max_size=n - 1))
    edges = [0.0, *map(abs, off), 0.0]
    delta = draw(st.one_of(st.sampled_from([0.0, 5e-324, -5e-324, 1e-12, -1e-12]),
                           st.floats(-10, 10), st.floats(-1e-9, 1e-9), st.floats(1, 10)))
    diag = [edges[i] + edges[i + 1] + delta for i in range(n)]
    if draw(st.integers(0, 3)) == 0:
        diag = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    return tridiagonal(diag, off)


class TestLdlt:
    """The LDL^T gate works within each row's envelope, in both lanes."""

    @settings(max_examples=200, deadline=None)
    @given(sparse_symmetric())
    def test_exact_decision_is_sylvester(self, A):
        sylvester = all(m > 0 for m in oracles.leading_minors(oracles.unpack(A)))
        assert _spd_ldlt(A, BitBudget()) is sylvester

    @settings(max_examples=200, deadline=None)
    @given(sparse_symmetric())
    def test_f64_decision_is_lapack_cholesky_away_from_singular(self, A):
        D = demote_matrix(A)
        square = D.full()
        eig = np.abs(np.linalg.eigvalsh(square))
        assume(eig.min() > 1e-6 * eig.max())
        try:
            np.linalg.cholesky(square)
            lapack = True
        except np.linalg.LinAlgError:
            lapack = False
        assert spd_check(D) is lapack
        assert _spd_ldlt(D, BitBudget()) is lapack

    def test_f64_route_follows_density(self, monkeypatch):
        # A quarter of n^2 stored or more: LAPACK on full(); sparser: LDL^T.
        ldlt = []
        monkeypatch.setattr(linalg, "_spd_ldlt", lambda A, budget: ldlt.append(A.n) or True)
        dense = demote_matrix(SymmetricMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))
        assert 4 * dense.data.size >= 9
        assert spd_check(dense) is True and ldlt == []
        semidefinite = demote_matrix(SymmetricMatrix.from_rows([[1, 1], [1, 1]]))
        assert spd_check(semidefinite) is False and ldlt == []
        # A tridiagonal one is gated on its diagonals (next two tests);
        # with one off-diagonal zero the LDL^T gate works its envelope.
        zero_spring = tridiagonal([2.0] * 40, [-1.0] * 19 + [0.0] + [-1.0] * 19)
        assert spd_check(zero_spring) is True and ldlt == [40]

    @settings(max_examples=400, deadline=None)
    @given(band_gate_case())
    def test_f64_tridiagonal_decision_is_ldlt(self, A):
        # The scalar loop over the diagonals runs _spd_ldlt's recurrence.
        want = _spd_ldlt(A, BitBudget())
        assert linalg._band_ldlt(A._band) is want
        if not linalg._mostly_stored(A):
            assert spd_check(A) is want

    def test_f64_chain_is_gated_in_its_band(self, monkeypatch):
        monkeypatch.setattr(linalg, "_spd_ldlt", lambda A, budget: pytest.fail("envelope"))
        A = demote_matrix(gen_spring_chain(1000, [1, 2, 3] * 333 + [1, 2]))
        assert spd_check(A) is True
        rows = oracles.unpack(gen_spring_chain(3, [1, 1, 1, 1]))
        rows[1][1] = F(1)  # leading minors 2, 1, 0: semidefinite
        assert _spd_ldlt(demote_matrix(SymmetricMatrix.from_rows(rows)), BitBudget()) is False

    def test_f64_envelope_gate_decides_an_overflow_quietly(self):
        # An n=20 arrow: a_00 = 10^-300, a_19,0 = 10^10, else the identity.
        # Pivot 19 is 1 - 10^20 / 10^-300, whose ratio overflows in f64;
        # warnings are errors in this suite, so a NumPy warning would raise.
        n = 20
        A = SymmetricMatrix(n, [*range(n), n - 1], [*range(n), 0],
                            [F(1, 10**300), *[1] * (n - 1), 10**10])
        D = demote_matrix(A)
        assert D._band is None and not linalg._mostly_stored(D)
        assert spd_check(D) is False
        assert spd_check(A) is False


class TestDiagSolve:
    """D^-1 v reads the diagonal A keeps, and matches A.diag() in both lanes."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_symmetric(), st.data())
    def test_matches_division_by_diag(self, A, data):
        assert A.diag() == [A.entry(i, i) for i in range(A.n)]
        assume(0 not in A.diag())
        v = Vector.exact(data.draw(exact_lists(A.n)))
        assert diag_solve(A, v) == Vector.exact(list(v.data / np.asarray(A.diag())))
        D = demote_matrix(A)
        w = demote_vector(Vector.exact(data.draw(st.lists(small_fractions, min_size=A.n,
                                                          max_size=A.n))))
        assert [bits(d) for d in D.diag()] == [bits(D.entry(i, i)) for i in range(D.n)]
        want = w.data / np.asarray(D.diag())
        assert bits(diag_solve(D, w).data) == bits(want)

    def test_rotated_n60(self):
        A, b = rotated_n60(), Vector.exact([F(k - 30, k + 1) for k in range(60)])
        assert diag_solve(A, b) == Vector.exact(list(b.data / np.asarray(A.diag())))
        D, w = demote_matrix(A), demote_vector(b)
        assert bits(diag_solve(D, w).data) == bits(w.data / np.asarray(D.diag()))


class TestEnergy:
    def test_at_origin(self):
        A = SymmetricMatrix.diagonal([1, 1])
        assert energy(A, Vector.exact([1, 1]), Vector.zeros(2, EXACT)) == 0

    def test_identity_at_ones(self):
        A = SymmetricMatrix.diagonal([1, 1])
        v = Vector.exact([1, 1])
        assert energy(A, v, v) == -1

    def test_minimum_at_exact_solution(self):
        rng = random.Random(5)
        A = random_spd(rng, 4)
        b = [F(rng.randint(-5, 5)) for _ in range(4)]
        xstar = oracles.gauss_solve(oracles.unpack(A), b)
        bv = Vector.exact(b)
        e_star = energy(A, bv, Vector.exact(xstar))
        assert e_star == -F(1, 2) * oracles.vdot(b, xstar)
        for _ in range(10):
            x = Vector.exact([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)])
            assert e_star <= energy(A, bv, x)


class TestConditionEstimate:
    def test_diagonal_exact_ratio(self):
        assert condition_estimate(SymmetricMatrix.diagonal([1, 10**12])) == 1e12

    def test_identity(self):
        assert condition_estimate(SymmetricMatrix.diagonal([1] * 5)) == 1.0

    def test_rotated_known_spectrum(self):
        spec = SpectrumSpec(((1, 1, True), (4, 1, True)))
        A, _, _ = gen_rotated(spec, RotationPlan(((0, 1, F(3, 5), F(4, 5)),)))
        assert abs(condition_estimate(A) - 4.0) <= 4e-6

    def test_rejects_non_spd(self):
        with pytest.raises(NotSPD):
            condition_estimate(SymmetricMatrix.diagonal([1, -1]))


class TestConversions:
    def test_demote_then_rationalize_dense(self):
        A = SymmetricMatrix.from_rows([[2, 1], [1, 2]])
        back = rationalize_matrix(demote_matrix(A))
        assert back == A

    @pytest.mark.parametrize("A", [
        SymmetricMatrix.from_rows([[F(1, 3), F(-1, 10), 0], [F(-1, 10), 7, F(2, 9)],
                                   [0, F(2, 9), F(10**30, 7)]]),
        SymmetricMatrix.diagonal([F(1, 3), F(-5, 11)]),
    ])
    def test_rationalize_keeps_the_bits(self, A):
        D = demote_matrix(A)
        back = rationalize_matrix(D)
        assert back.kind == A.kind and back.field == EXACT
        for i in range(A.n):
            for j in range(A.n):
                assert back.entry(i, j) == F(float(D.entry(i, j)))
        assert demote_matrix(back) == D

    def test_conversions_do_not_carry_the_spd_verdict(self):
        # Rounding to f64 makes this indefinite matrix pass the f64 gate.
        A = rotated_near_singular(F(1, 2**60), F(1, 2**59), 9)
        Af = demote_matrix(A)
        assert spd_check(A) is False and spd_check(Af) is True
        with pytest.raises(NotSPD):
            linalg.ensure_spd(rationalize_matrix(Af))

    def test_demote_matrix_rounds_each_entry_as_demote(self):
        # 80-bit numerators over a small and over a huge common denominator
        # (rounding the numerator to a double first would be wrong), and
        # ties, signs, subnormals and the largest double.
        rng = random.Random(8)
        extremes = [F(2**53 + 1), F(-(2**54 + 2), 2), F(1, 2**1075), F(3, 2**1076),
                    F(2**1023 * (2**53 - 1), 2**52)]
        groups = [[F(rng.randint(-2**80, 2**80), rng.choice(dens)) for _ in range(200)]
                  for dens in ([3, 7, 11], [3, 7, 2**61 - 1, 10**300, 2**1074, 2**1075])]
        for values in groups + [extremes]:
            A = SymmetricMatrix.diagonal(values)
            assert demote_matrix(A).diag() == [demote(q) for q in values]
        with pytest.raises(ScalarOverflow):
            demote_matrix(SymmetricMatrix.diagonal([F(2**1024), F(1, 3)]))

    def test_vector_round_trip(self):
        v = Vector.exact([F(1, 2), 3])
        assert rationalize_vector(demote_vector(v)) == v

    def test_snap_matrix(self):
        A = SymmetricMatrix.from_rows([[1, F(1, 10**20)], [F(1, 10**20), 1]])
        snapped = snap_matrix(A, F(1, 10**12))
        assert snapped == SymmetricMatrix.from_rows([[1, 0], [0, 1]])
        assert snapped.indices.tolist() == [0, 1] and snapped.kind == "diagonal"

    def test_conversions_keep_the_chain_pattern(self):
        A = gen_spring_chain(1000, [1, 2, 3] * 333 + [1, 2])
        D = demote_matrix(A)
        back = rationalize_matrix(D)
        assert len(A.data) == len(D.data) == len(back.data) == 2998
        for M in (D, back):
            assert np.array_equal(M.indptr, A.indptr) and np.array_equal(M.indices, A.indices)
        assert back == A


# Past Python's 4300-digit limit on int <-> str conversions.
_LONG = "1" + "0" * 4400

# (text, value): spellings the literal grammar allows, unreduced ones included.
SPECIAL_LITERALS = [
    ("2/4", F(1, 2)), ("-0", F(0)), ("+0", F(0)), ("0/7", F(0)), ("-0/5", F(0)), ("007", F(7)),
    ("+3/6", F(1, 2)), ("-" + _LONG + "/3", F(-10**4400, 3)), ("1/0" + _LONG, F(1, 10**4400)),
]


@st.composite
def literals(draw):
    """(text, value) of a rational literal: a special one, or p/q with large unrelated q."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SPECIAL_LITERALS))
    p = draw(st.integers(-10**30, 10**30))
    q = draw(st.sampled_from([1, 6, 2**61 - 1, 3**40, 10**18 + 9]) | st.integers(1, 10**25))
    sign = "-" if p < 0 else draw(st.sampled_from(["", "+"]))
    text = sign + "0" * draw(st.integers(0, 2)) + str(abs(p))
    if q != 1 or draw(st.booleans()):
        text += "/" + "0" * draw(st.integers(0, 2)) + str(q)
    return text, F(p, q)


class TestFiles:
    def test_matrix_round_trip_dense(self, tmp_path):
        A = SymmetricMatrix.from_rows([[2, F(-36, 25)], [F(-36, 25), 2]])
        path = tmp_path / "A.txt"
        write_matrix(A, path)
        assert read_matrix(path) == A
        text = path.read_text()
        assert text.splitlines()[0] == "symmetric 2"
        assert "-36/25" in text

    def test_matrix_round_trip_diagonal(self, tmp_path):
        A = SymmetricMatrix.diagonal([1, F(3, 2), 3])
        path = tmp_path / "D.txt"
        write_matrix(A, path)
        assert read_matrix(path) == A
        assert path.read_text().splitlines()[0] == "diagonal 3"

    def test_vector_round_trip(self, tmp_path):
        v = Vector.exact([1, F(-1, 3)])
        path = tmp_path / "b.txt"
        write_vector(v, path)
        assert read_vector(path) == v
        assert path.read_text().splitlines()[0] == "vector 2"

    def test_entry_count_enforced(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("symmetric 2\n1\n")
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_first_malformed_entry_is_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("symmetric 3\n1\nzz 1\n0.5 zz 1\n")
        with pytest.raises(FormatError, match="'zz'"):
            read_matrix(path)
        path.write_text("symmetric 2\n1\n0.5 zz\n")
        with pytest.raises(FormatError, match="'0.5'"):
            read_matrix(path)

    def test_decimal_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vector 1\n0.5\n")
        with pytest.raises(FormatError):
            read_vector(path)

    @pytest.mark.parametrize("reader, text, message", [
        (read_matrix, "symmetric 2\n1\n0.5 zz\n", "not a rational literal: '0.5'"),
        (read_matrix, "symmetric 2\nzz 1/0 0.5\n", "not a rational literal: 'zz'"),
        (read_matrix, "diagonal 2\n1 3/0\n", "zero denominator in '3/0'"),
        (read_matrix, "symmetric 2\n1 2\n", "expected 3 entries, found 2"),
        (read_vector, "vector 3\n1 -2/x 1e3\n", "not a rational literal: '-2/x'"),
        (read_vector, "vector 2\n1/0 zz\n", "zero denominator in '1/0'"),
        (read_vector, "vector 2\n1 2 3\n", "expected 2 entries, found 3"),
        # Counts are ASCII digits: not an Arabic-Indic 3, not a sign.
        (read_vector, "vector \u0663\n1 2 3\n", "not an integer: '\u0663'"),
        (read_matrix, "diagonal +2\n1 1\n", "not an integer: '+2'"),
    ])
    def test_read_errors(self, tmp_path, reader, text, message):
        with pytest.raises(FormatError) as exc:
            _read(tmp_path, text, reader)
        assert str(exc.value) == message

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_read_matches_fraction_oracle(self, tmp_path, data):
        n = data.draw(st.integers(1, 4))
        kind = data.draw(st.sampled_from(["symmetric", "diagonal", "vector"]))
        count = n * (n + 1) // 2 if kind == "symmetric" else n
        texts, values = zip(*data.draw(st.lists(literals(), min_size=count, max_size=count)))
        text = "%s %d\n%s\n" % (kind, n, " ".join(texts))
        if kind == "vector":
            got, want = _read(tmp_path, text, read_vector), Vector.exact(values)
            nums = got.num.tolist()
            assert (got.den, nums) == (want.den, want.num.tolist())
            assert got == want and list(got.data) == list(values)
        else:
            got = _read(tmp_path, text)
            want = (SymmetricMatrix(n, *np.tril_indices(n), values) if kind == "symmetric"
                    else SymmetricMatrix.diagonal(values))
            nums = got.data.tolist()
            assert (got.den, nums) == (want.den, want.data.tolist())
            assert got.kind == want.kind and got == want
        assert all(type(e) is int for e in nums)

    def test_write_requires_exact(self, tmp_path):
        A = SymmetricMatrix.diagonal([1.0, 2.0], F64)
        with pytest.raises(ExactRequired):
            write_matrix(A, tmp_path / "A.txt")

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(rationals, min_size=6, max_size=6))
    def test_written_literals_are_those_of_str(self, tmp_path, values):
        # Each entry is written as str(Fraction) writes it: p, or p/q in lowest terms.
        path = tmp_path / "out.txt"
        for obj, head in ((SymmetricMatrix(3, *np.tril_indices(3), values), "symmetric 3"),
                          (SymmetricMatrix.diagonal(values), "diagonal 6"),
                          (Vector.exact(values), "vector 6")):
            if isinstance(obj, Vector):
                write_vector(obj, path)
            else:
                write_matrix(obj, path)
            head_line, *rows = path.read_text().splitlines()
            want = values
            if head == "symmetric 3" and not any(values[k] for k in (1, 3, 4)):
                head, want = "diagonal 3", values[0::2][:2] + values[5:]
            assert head_line == head
            assert " ".join(rows).split() == [str(q) for q in want]


# Every separator str.split() knows, the ASCII control ones included.
SEPARATORS = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
              "\x85", "\u00a0", "\u2003", "\u3000", " \r\n "]
ZERO_SPELLINGS = ["-0", "+0", "00", "0/7"]
NUMBERS = ["1", "-3/4", "12", "2/4", "+5"]
# Bad literals, some with bytes that are not separators (NUL, SOH) or not ASCII.
BAD_LITERALS = ["zz", "0.5", "1/0", "0\x00", "\x010", "\u00bd", "\u0663", "0\u00e9", "0/"]


@st.composite
def packed_texts(draw):
    """Text of a native matrix file, mostly 0s, sometimes malformed."""
    kind = draw(st.sampled_from(["symmetric", "diagonal"]))
    n = draw(st.integers(1, 8))
    count = n * (n + 1) // 2 if kind == "symmetric" else n
    count += draw(st.sampled_from([0] * 6 + [-1, 1]))
    words = draw(st.lists(st.sampled_from(["0"] * 12 + ZERO_SPELLINGS + NUMBERS),
                          min_size=count, max_size=count))
    if words and draw(st.integers(0, 3)) == 0:
        words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(BAD_LITERALS))
    size = draw(st.sampled_from([str(n)] * 6 + ["0", "x", "-1", chr(0xFF10 + n)]))
    words = draw(st.sampled_from([[]] * 6 + [["0"]])) + [kind, size] + words
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(words) - 1,
                         max_size=len(words) - 1))
    edges = st.sampled_from(["", "", "\n", "\x1f", "\u00a0\u2003"])
    return draw(edges) + "".join(w + s for w, s in zip(words, seps + [""])) + draw(edges)


def _outcome(reader, path):
    """What a reader makes of a file: the matrix's arrays, or its error."""
    try:
        A = reader(path)
    except FormatError as exc:
        return type(exc), str(exc)
    return A.n, A.field, A.den, A.data.tolist(), A.indptr.tolist(), A.indices.tolist()


class TestNativeReader:
    """read_matrix against the reader that makes every token a string."""

    @staticmethod
    def both(tmp_path, text):
        path = tmp_path / "A.txt"
        path.write_text(text, encoding="utf-8")
        got, want = _outcome(read_matrix, path), _outcome(oracles.split_read_matrix, path)
        assert got == want
        return got

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=packed_texts())
    def test_matches_the_split_reader(self, tmp_path, text):
        self.both(tmp_path, text)

    @pytest.mark.parametrize("text, outcome", [
        ("0 symmetric 1 1", "must start with"),  # a 0 before the header is its first token
        ("symmetric 0 1", "count must be positive, got 0"),
        ("symmetric", "must start with"),
        (" \n\x1c ", "must start with"),
        ("", "must start with"),
        ("symmetric 2 0 0 1 0", "expected 3 entries, found 4"),
        ("diagonal 2 0", "expected 2 entries, found 1"),
        ("symmetric 3 " + "0 " * 5 + "zz", "not a rational literal: 'zz'"),
        ("symmetric 2 0 0\x000 0", "not a rational literal: '0\\x000'"),
        ("symmetric 2\u00a00\u20030\u3000\u00bd", "not a rational literal: '\u00bd'"),
        ("symmetric 2 0 0 0/0", "zero denominator in '0/0'"),
        ("symmetric\x1c2\x1d1\x1e0\x1f4", [1, 4]),
        ("diagonal \uff13 0 -0 7", "not an integer: '\uff13'"),  # a full-width 3
        ("symmetric 3\n00\n+0 0/7\n-0 0 3/9", [F(1, 3)]),
        ("symmetric 1 0", [0]),
    ])
    def test_edge_cases(self, tmp_path, text, outcome):
        got = self.both(tmp_path, text)
        if isinstance(outcome, str):
            assert got[0] is FormatError and outcome in got[1]
        else:
            A = read_matrix(tmp_path / "A.txt")
            assert [F(e, A.den) for e in A.data if e] == [F(e) for e in outcome if e]

    def test_benchmark_sized_chain(self, tmp_path):
        A = gen_spring_chain(300, [1 + i % 3 for i in range(301)])
        path = tmp_path / "A.txt"
        write_matrix(A, path)
        assert read_matrix(path) == oracles.split_read_matrix(path) == A

    def test_memory_is_bounded_by_the_file(self, tmp_path):
        # The n=1000 chain's packed triangle is 500,500 tokens, all but
        # 1,999 of them 0.  No array of ints per token may be made.
        A = gen_spring_chain(1000, [1 + i % 3 for i in range(1001)])
        path = tmp_path / "A.txt"
        write_matrix(A, path)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            B = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert B == A
        assert peak <= 5 * path.stat().st_size


# Matrix Market values in the grammar read_matrix accepts, and some it refuses.
MARKET_REALS = ["5e-324", "-5e-324", "1e308", "-1e308", "-0.0", "0.0", "0", "-0", "1.5",
                "-2.25e-3", ".5", "3.", "1E+2", "+7", "0.1", "2.5e-310"]
MARKET_BAD = {"real": ["inf", "-Infinity", "nan", "+NaN", "1e999", "abc", "0x10", "1/2", "e5",
                       "1e", "."],
              "integer": ["1.5", "1e3", "abc", "inf", "1/2", "--1"]}


@st.composite
def market_texts(draw):
    """Text of a Matrix Market file, mostly well formed, in ASCII."""
    field = draw(st.sampled_from(["real", "integer"]))
    qualifier = draw(st.sampled_from(["symmetric"] * 8 + ["general", "Symmetric"]))
    head = "%%%%MatrixMarket matrix coordinate %s %s" % (
        draw(st.sampled_from([field, field.upper()])), qualifier)
    n = draw(st.integers(1, 5))
    nnz = draw(st.integers(1, 6))

    def value():
        if draw(st.integers(0, 19)) == 0:
            return draw(st.sampled_from(MARKET_BAD[field]))
        if field == "real":
            return draw(st.sampled_from(MARKET_REALS)
                        | st.floats(allow_nan=False, allow_infinity=False).map(repr))
        if draw(st.integers(0, 4)) == 0:  # past Python's 4300-digit limit
            return draw(st.sampled_from(["", "-", "+"])) + str(draw(st.integers(1, 99))) \
                + "0" * draw(st.integers(4300, 4400))
        return draw(st.sampled_from(["", "+"])) + str(draw(st.integers(-10**20, 10**20)))

    index = st.integers(1, n) | st.sampled_from([0, n + 1])
    lines = []
    for _ in range(nnz + draw(st.sampled_from([0] * 8 + [-1, 1]))):
        fields = [str(draw(index)), str(draw(index)), value()]
        if draw(st.integers(0, 29)) == 0:
            fields = fields[:2]
        lines.append(" ".join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["% a comment", "", "   "])))
    size = "%d %d %d" % (n, draw(st.sampled_from([n] * 9 + [n + 1])), nnz)
    return "\n".join([head, "% comment", size] + lines) + "\n"


class TestMatrixMarket:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=market_texts())
    def test_matches_the_fraction_parser(self, tmp_path, text):
        # Same matrix (n, den and CSR arrays) or the same error as int()
        # and float() with a Fraction per entry.
        path = tmp_path / "m.mtx"
        path.write_text(text)
        assert _outcome(read_matrix, path) == _outcome(oracles.fraction_read_matrix_market, path)

    @pytest.mark.parametrize("field, size, line, message", [
        ("real", "2 2 2", "2 1 0_5", "bad number in entry line '2 1 0_5'"),
        ("real", "2 2 2", "2 1 \u0661.5", "bad number in entry line '2 1 \u0661.5'"),
        ("real", "\u0662 2 2", "2 1 0.5", "not an integer: '\u0662'"),
        ("integer", "2 2 2", "2 1 1_0", "bad number in entry line '2 1 1_0'"),
        ("integer", "2 2 2", "+2 1 5", "bad number in entry line '+2 1 5'"),
        ("integer", "2 2 2", "2 \u0661 5", "bad number in entry line '2 \u0661 5'"),
    ])
    def test_numbers_are_ascii(self, tmp_path, field, size, line, message):
        # int() and float() take these (0_5 as 5, \u0661.5 as 3/2, a size
        # line in Arabic-Indic digits as order 2); the file grammar does not.
        text = "%%%%MatrixMarket matrix coordinate %s symmetric\n%s\n1 1 4\n%s\n" % (
            field, size, line)
        with pytest.raises(FormatError) as exc:
            _read(tmp_path, text)
        assert str(exc.value) == message

    def test_reads_and_rationalizes(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% comment line\n"
            "2 2 3\n"
            "1 1 2.0\n"
            "2 1 0.1\n"
            "2 2 4.0\n"
        )
        A = read_matrix(path)
        assert A.entry(0, 0) == 2
        assert A.entry(1, 0) == rationalize(0.1)
        assert A.entry(0, 1) == rationalize(0.1)
        assert A.entry(1, 1) == 4

    def test_integer_field_is_exact(self, tmp_path):
        path = tmp_path / "m.mtx"
        big = 2**60 + 1  # would not survive a float round trip
        path.write_text(
            "%%MatrixMarket matrix integer coordinate symmetric\n".replace(
                "integer coordinate", "coordinate integer"
            )
            + "1 1 1\n1 1 %d\n" % big
        )
        assert read_matrix(path).entry(0, 0) == big

    def test_integer_field_beyond_double_range_is_exact(self, tmp_path):
        path = tmp_path / "m.mtx"
        big = 10**400
        path.write_text(
            "%%%%MatrixMarket matrix coordinate integer symmetric\n"
            "2 2 3\n1 1 %d\n2 1 %d\n2 2 1\n" % (big, 1 - big)
        )
        A = read_matrix(path)
        assert A.entry(0, 0) == big
        assert A.entry(1, 0) == A.entry(0, 1) == 1 - big
        assert A.entry(1, 1) == 1

    def test_rejects_general_qualifier(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")
        with pytest.raises(FormatError):
            read_matrix(path)

    @pytest.mark.parametrize("field, line", [
        ("real", "2 1 inf"),
        ("real", "2 1 nan"),
        ("real", "2 1 abc"),
        ("integer", "2 1 1.5"),
    ])
    def test_bad_value_names_the_entry_line(self, tmp_path, field, line):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%%%MatrixMarket matrix coordinate %s symmetric\n2 2 2\n1 1 4\n%s\n" % (field, line)
        )
        with pytest.raises(FormatError, match=repr(line)):
            read_matrix(path)

    def test_read_matrix_takes_either_format(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 1 0.5\n"
        )
        assert read_matrix(path).entry(1, 1) == 0
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")
        with pytest.raises(FormatError, match="symmetric qualifier"):
            read_matrix(path)

    def test_rejects_duplicate_entries(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 2 1.0\n2 1 1.0\n"
        )
        with pytest.raises(FormatError):
            read_matrix(path)

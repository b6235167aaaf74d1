import io
import math
from fractions import Fraction as F

import pytest

from irmcg.analysis import (
    CONVERGED,
    DP_TAG,
    E_TAG,
    MAX_STEPS,
    ConvergenceTrace,
    StepRecord,
    compare,
    count_active,
    emit_csv,
    parse_csv,
    relative_norms,
    render_report,
)
from irmcg.benchgen import SpectrumSpec, gen_diagonal
from irmcg.errors import (
    DiagonalRequired,
    FormatError,
    IncomparableTraces,
    IoError,
    ZeroInitialResidual,
)
from irmcg.linalg import SymmetricMatrix, Vector, demote_matrix, demote_vector
from irmcg.solvers import SolverConfig, solve

UNIT_SPECTRUM = SpectrumSpec(
    (
        (1, 2, True),
        (100, 2, True),
        (10**4, 2, True),
        (10**6, 2, True),
        (10**8, 1, True),
        (10**10, 1, True),
    )
)


def exact_trace(rr_values, termination=CONVERGED, energies=None, **overrides):
    records = tuple(
        StepRecord(
            i,
            F(rr),
            None if energies is None else energies[i],
            i == 0,
            False,
        )
        for i, rr in enumerate(rr_values)
    )
    fields = dict(
        method="irm-cg",
        arith=E_TAG,
        omega=F(1),
        epsilon=F(0),
        refresh_k=2**31 - 1,
        max_steps=100,
        seed=0,
        termination=termination,
        records=records,
    )
    fields.update(overrides)
    return ConvergenceTrace(**fields)


def double_trace(rr_values, termination=CONVERGED, **overrides):
    records = tuple(
        StepRecord(i, float(rr), None, i == 0, False)
        for i, rr in enumerate(rr_values)
    )
    fields = dict(
        method="irm-cg",
        arith=DP_TAG,
        omega=1.0,
        epsilon=0.0,
        refresh_k=50,
        max_steps=100,
        seed=0,
        termination=termination,
        records=records,
    )
    fields.update(overrides)
    return ConvergenceTrace(**fields)


class TestTraceTypes:
    def test_negative_rr_rejected(self):
        with pytest.raises(ValueError):
            StepRecord(0, F(-1), None, True, False)

    def test_nan_rr_rejected_nan_energy_kept(self):
        with pytest.raises(ValueError, match="^rr must be nonnegative$"):
            StepRecord(1, math.nan, None, False, False)
        assert math.isnan(StepRecord(1, 1.0, math.nan, False, False).energy)
        assert StepRecord(1, math.inf, None, False, False).rr == math.inf

    def test_record_indices_must_be_consecutive(self):
        records = (
            StepRecord(0, F(4), None, True, False),
            StepRecord(2, F(1), None, False, False),
        )
        with pytest.raises(ValueError):
            exact_trace([], records=records)

    def test_records_read_back_as_given(self):
        # Rows are held by column (f64 floats in arrays) and read back as
        # the StepRecords they were given as, by index, slice and iteration.
        given = (
            StepRecord(0, 4.0, -0.0, True, False),
            StepRecord(1, 2.5, math.inf, False, True),
            StepRecord(2, 0.0, -1.5, True, True),
        )
        t = double_trace([], records=given)
        assert tuple(t.records) == given and t.records == given
        assert t.records[-1] == given[-1] and t.records[1:] == given[1:]
        assert math.copysign(1.0, t.records[0].energy) == -1.0
        assert len(t.records) == 3 and t.steps == 2
        with pytest.raises(IndexError):
            t.records[3]
        e = exact_trace([4, F(1, 3)], energies=[F(-1, 2), None])
        assert [(r.rr, r.energy) for r in e.records] == [(4, F(-1, 2)), (F(1, 3), None)]
        assert e == exact_trace([4, F(1, 3)], energies=[F(-1, 2), None])
        assert e != exact_trace([4, F(1, 5)], energies=[F(-1, 2), None])
        assert hash(e.records) == hash(tuple(e.records))

    def test_unknown_arith_tag(self):
        with pytest.raises(ValueError):
            exact_trace([4, 1], arith="Q")

    def test_unknown_termination(self):
        with pytest.raises(ValueError):
            exact_trace([4, 1], termination="gave-up")

    def test_steps_property(self):
        assert exact_trace([4, 1, 0]).steps == 2


class TestRelativeNorms:
    def test_basic(self):
        assert relative_norms(exact_trace([4, 1, 0])) == [1.0, 0.5, 0.0]

    def test_single_record(self):
        assert relative_norms(exact_trace([7])) == [1.0]

    def test_terminated_exact_run_ends_at_zero(self):
        A = SymmetricMatrix.diagonal([1, 2, 3])
        _, t = solve(A, Vector.exact([1, 1, 1]))
        norms = relative_norms(t)
        assert norms[0] == 1.0 and norms[-1] == 0.0

    def test_double_backend(self):
        norms = relative_norms(double_trace([4.0, 1.0]))
        assert norms == [1.0, 0.5]

    def test_zero_initial_residual(self):
        with pytest.raises(ZeroInitialResidual):
            relative_norms(exact_trace([0, 0]))

    def test_empty_trace(self):
        with pytest.raises(ZeroInitialResidual):
            relative_norms(exact_trace([], termination="zero_initial_residual"))


class TestCountActive:
    def test_multiplicity_counted_once(self):
        D = SymmetricMatrix.diagonal([2, 2, 5])
        assert count_active(D, Vector.exact([1, 0, 3])) == 2

    def test_single_loaded_component(self):
        D = SymmetricMatrix.diagonal([1, 2, 3])
        assert count_active(D, Vector.exact([0, 1, 0])) == 1

    def test_zero_rhs(self):
        D = SymmetricMatrix.diagonal([1, 2, 3])
        assert count_active(D, Vector.zeros(3, "exact")) == 0

    def test_dense_rejected(self):
        A = SymmetricMatrix.from_rows([[2, 1], [1, 2]])
        with pytest.raises(DiagonalRequired):
            count_active(A, Vector.exact([1, 1]))

    def test_matches_exact_termination_step(self):
        spec = SpectrumSpec(((2, 2, True), (5, 1, True), (9, 1, False)))
        D, b, _ = gen_diagonal(spec)
        _, t = solve(D, b)
        assert count_active(D, b) == t.steps == 2


class TestCompare:
    def test_self_comparison_is_silent(self):
        t = exact_trace([4, 1, 0])
        rep = compare(t, t)
        assert rep.divergence_step is None
        assert rep.delta_steps == 0
        assert not rep.termination_mismatch and not rep.dp_below_exact

    def test_dp_needs_more_steps_on_wide_spectrum(self):
        D, b, m = gen_diagonal(UNIT_SPECTRUM)
        _, tE = solve(D, b, cfg=SolverConfig(epsilon=1e-10))
        _, tDP = solve(
            demote_matrix(D), demote_vector(b), cfg=SolverConfig(epsilon=1e-10)
        )
        assert tE.steps == m == 6
        rep = compare(tE, tDP)
        assert rep.delta_steps > 0
        assert rep.dp_steps == tDP.steps > m
        assert rep.divergence_step is not None

    def test_termination_mismatch_flagged(self):
        D, b, _ = gen_diagonal(UNIT_SPECTRUM)
        _, tE = solve(D, b, cfg=SolverConfig(epsilon=1e-15))
        _, tDP = solve(
            demote_matrix(D),
            demote_vector(b),
            cfg=SolverConfig(epsilon=1e-15, max_steps=10),
        )
        assert tE.termination == CONVERGED
        assert tDP.termination == MAX_STEPS
        assert compare(tE, tDP).termination_mismatch

    def test_dp_below_exact_flag(self):
        tE = exact_trace([4, 1])
        tDP = double_trace([4.0, 0.64])
        rep = compare(tE, tDP)
        assert rep.dp_below_exact
        assert rep.divergence_step is None  # within one decade

    def test_one_sided_zero_counts_as_divergence(self):
        tE = exact_trace([4, 0])
        tDP = double_trace([4.0, 1e-30])
        assert compare(tE, tDP).divergence_step == 1

    def test_mismatched_omega(self):
        tE = exact_trace([4, 1], omega=F(1, 2))
        with pytest.raises(IncomparableTraces):
            compare(tE, double_trace([4.0, 1.0]))

    def test_mismatched_method(self):
        tE = exact_trace([4, 1], method="cg")
        with pytest.raises(IncomparableTraces):
            compare(tE, double_trace([4.0, 1.0]))

    def test_refresh_and_step_caps_are_exempt(self):
        tE = exact_trace([4, 1], refresh_k=7, max_steps=11, seed=5)
        rep = compare(tE, double_trace([4.0, 1.0]))
        assert rep.delta_steps == 0

    @pytest.mark.parametrize("gap", [-1.0, float("nan"), float("inf")])
    def test_gap_must_be_finite_and_nonnegative(self, gap):
        t = exact_trace([4, 1, 0])
        with pytest.raises(ValueError):
            compare(t, t, gap=gap)
        assert compare(t, t, gap=0.0).divergence_step is None

    def test_render_report_mentions_key_fields(self):
        tE = exact_trace([4, 1, 0])
        tDP = double_trace([4.0, 1.0, 1e-30])
        text = render_report(compare(tE, tDP))
        assert "divergence_step=2" in text
        assert "delta_steps=0" in text
        assert "termination_mismatch=False" in text


class TestCsv:
    GOLDEN = (
        "# method irm-cg\n"
        "# arith E\n"
        "# omega 1/1\n"
        "# epsilon 0/1\n"
        "# refresh_k 2147483647\n"
        "# max_steps 300\n"
        "# seed 0\n"
        "# termination converged\n"
        "step,rr,energy,refreshed,perturbed\n"
        "0,3/1,0/1,1,0\n"
        "1,1/2,-3/4,1,0\n"
        "2,3/50,-9/10,0,0\n"
        "3,0/1,-11/12,0,0\n"
    )

    def run_trace(self):
        A = SymmetricMatrix.diagonal([1, 2, 3])
        _, t = solve(A, Vector.exact([1, 1, 1]))
        return t

    def test_golden_bytes(self):
        buf = io.StringIO()
        emit_csv(self.run_trace(), buf)
        assert buf.getvalue() == self.GOLDEN

    def test_emission_is_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        emit_csv(self.run_trace(), a)
        emit_csv(self.run_trace(), b)
        assert a.getvalue() == b.getvalue()

    def test_exact_round_trip(self):
        t = self.run_trace()
        buf = io.StringIO()
        emit_csv(t, buf)
        assert parse_csv(io.StringIO(buf.getvalue())) == t

    def test_double_round_trip(self):
        A = demote_matrix(SymmetricMatrix.diagonal([1, 2, 3]))
        _, t = solve(A, Vector.f64([1.0, 1.0, 1.0]), cfg=SolverConfig(epsilon=1e-12))
        buf = io.StringIO()
        emit_csv(t, buf)
        back = parse_csv(io.StringIO(buf.getvalue()))
        assert back == t
        assert back.field == "f64"

    def test_disabled_energy_round_trips_as_none(self):
        A = SymmetricMatrix.diagonal([1, 2])
        _, t = solve(A, Vector.exact([1, 1]), cfg=SolverConfig(record_energy=False))
        buf = io.StringIO()
        emit_csv(t, buf)
        text = buf.getvalue()
        assert ",,1,0" in text.replace("\r", "")
        back = parse_csv(io.StringIO(text))
        assert all(rec.energy is None for rec in back.records)

    def test_file_destination_and_source(self, tmp_path):
        t = self.run_trace()
        path = tmp_path / "trace.csv"
        emit_csv(t, path)
        assert parse_csv(path) == t

    def test_write_failure(self, tmp_path):
        with pytest.raises(IoError):
            emit_csv(self.run_trace(), tmp_path / "missing" / "trace.csv")

    def test_malformed_header_rejected(self):
        with pytest.raises(FormatError):
            parse_csv(io.StringIO("step,rr\n0,1\n"))

    @pytest.mark.parametrize("row", [
        "x,1/1,,1,0", "0,-1/1,,1,0", "0,,,1,0",
        # Flags are 0 or 1, as emit_csv writes them.
        "2,0/1,-3/4,yes,0", "0,3/1,0/1,1,", "0,3/1,0/1,2,0", "0,3/1,0/1,1,true", "0,3/1,0/1, 1,0",
    ])
    def test_malformed_row_rejected(self, row):
        text = self.GOLDEN.split("0,3/1", 1)[0] + row + "\n"
        with pytest.raises(FormatError, match="bad row"):
            parse_csv(io.StringIO(text))

    def test_missing_preamble_key_rejected(self):
        text = self.GOLDEN.replace("# seed 0\n", "")
        with pytest.raises(FormatError):
            parse_csv(io.StringIO(text))

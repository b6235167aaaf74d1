import io
import re
import subprocess
from fractions import Fraction as F

import pytest

import oracles
from irmcg.cli import (
    EXIT_BUDGET,
    EXIT_INCOMPARABLE,
    EXIT_NOT_CONVERGED,
    EXIT_NOT_SPD,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from irmcg.analysis import emit_csv, parse_csv
from irmcg.linalg import SymmetricMatrix, read_matrix, read_vector, spd_check, write_vector


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_system(tmp_path, capsys, *args):
    outdir = tmp_path / "sys"
    code, out, _ = run(["gen", *args, "-o", str(outdir)], capsys)
    assert code == EXIT_OK
    return str(outdir / "A.txt"), str(outdir / "b.txt"), out


class TestGen:
    def test_diagonal_spectrum(self, tmp_path, capsys):
        a_path, b_path, out = gen_system(tmp_path, capsys, "--spectrum", "1x1,2x1,3x1")
        assert out.strip() == "m=3"
        assert read_matrix(a_path) == SymmetricMatrix.diagonal([1, 2, 3])
        assert [str(e) for e in read_vector(b_path).data] == ["1", "1", "1"]

    def test_rotated_spectrum_keeps_trace(self, tmp_path, capsys):
        a_path, _, out = gen_system(
            tmp_path, capsys, "--spectrum", "2x2,5x1", "--rotate", "4", "--seed", "7"
        )
        assert out.strip() == "m=2"
        A = read_matrix(a_path)
        assert A.kind == "dense" and A.n == 3
        rows = oracles.unpack(A)
        assert sum(rows[i][i] for i in range(3)) == 9  # 2 + 2 + 5
        assert oracles.det(rows) == 20  # 2 * 2 * 5
        assert spd_check(A)

    def test_chain(self, tmp_path, capsys):
        a_path, b_path, out = gen_system(
            tmp_path, capsys, "--chain", "2", "--stiff", "1,1,1"
        )
        assert out == ""  # m is only known for spectrum systems
        assert read_matrix(a_path) == SymmetricMatrix.from_rows([[2, -1], [-1, 2]])
        assert len(read_vector(b_path)) == 2

    def test_explicit_rhs(self, tmp_path, capsys):
        _, b_path, _ = gen_system(
            tmp_path,
            capsys,
            "--chain",
            "3",
            "--stiff",
            "1,2,2,1",
            "--rhs",
            "explicit:0,1,0",
        )
        assert [str(e) for e in read_vector(b_path).data] == ["0", "1", "0"]

    def test_random_rhs_is_seeded(self, tmp_path, capsys):
        _, b1, _ = gen_system(
            tmp_path / "a", capsys, "--chain", "2", "--stiff", "1,1,1",
            "--rhs", "random", "--seed", "5",
        )
        _, b2, _ = gen_system(
            tmp_path / "b", capsys, "--chain", "2", "--stiff", "1,1,1",
            "--rhs", "random", "--seed", "5",
        )
        assert read_vector(b1) == read_vector(b2)

    @pytest.mark.parametrize(
        "source",
        [["--chain", "6", "--stiff", "1,2,3,1,2,3,1"], ["--spectrum", "1x3,2x3"]],
    )
    def test_random_rhs_entries_are_pinned(self, tmp_path, capsys, source):
        gen_system(tmp_path, capsys, *source, "--rhs", "random", "--seed", "5")
        written = (tmp_path / "sys" / "b.txt").read_text().split()
        assert written == "vector 6 6 -8 -1 -2 8 -7".split()

    def test_malformed_spectrum(self, tmp_path, capsys):
        code, _, err = run(
            ["gen", "--spectrum", "nonsense", "-o", str(tmp_path / "sys")], capsys
        )
        assert code == EXIT_USAGE and "error:" in err

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code, _, _ = run(
            ["gen", "--spectrum", "1x1", "--chain", "2", "--stiff", "1,1,1",
             "-o", str(tmp_path / "sys")],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_explicit_rhs_activity_enforced(self, tmp_path, capsys):
        code, _, _ = run(
            ["gen", "--spectrum", "2x1,5x1i", "--rhs", "explicit:1,1",
             "-o", str(tmp_path / "sys")],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_spectrum_file_sets_its_own_rhs(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("1 1 active\n2 1 active\nrhs explicit 3 4\n")
        argv = ["gen", "--spectrum-file", str(spec), "-o", str(tmp_path / "sys")]
        code, _, err = run(argv + ["--rhs", "random", "--seed", "4"], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error: --rhs") and "rhs line" in err
        code, _, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert [str(e) for e in read_vector(str(tmp_path / "sys" / "b.txt"))] == ["3", "4"]

    @pytest.mark.parametrize("args", [
        ["--spectrum", "1x1,2x1", "--rotate", "-3"],
        ["--chain", "3", "--stiff", "1,1,1,1", "--rotate", "5"],
        ["--spectrum", "1x1,2x1", "--stiff", "1,2"],
    ])
    def test_ignored_options_are_rejected(self, tmp_path, capsys, args):
        code, out, err = run(["gen", *args, "-o", str(tmp_path / "sys")], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "sys").exists()

    def test_output_onto_a_regular_file_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "F"
        target.write_text("kept\n")
        code, out, err = run(["gen", "--spectrum", "1x1", "-o", str(target)], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert target.read_text() == "kept\n"


class TestSolve:
    def test_exact_diag_converges(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(tmp_path, capsys, "--spectrum", "1x1,2x1,3x1")
        trace_path = str(tmp_path / "t.csv")
        code, _, _ = run(
            ["solve", a_path, b_path, "--method", "irm-cg", "--arith", "exact",
             "--omega", "1", "--eps", "0", "-o", trace_path],
            capsys,
        )
        assert code == EXIT_OK
        lines = open(trace_path).read().splitlines()
        assert "# termination converged" in lines
        assert lines[-1].startswith("3,0/1,")

    def test_stdout_trace_when_no_output_flag(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(tmp_path, capsys, "--spectrum", "2x1")
        code, out, _ = run(["solve", a_path, b_path], capsys)
        assert code == EXIT_OK
        assert out.startswith("# method irm-cg")
        assert out.rstrip().endswith("1,0/1,-1/4,1,0")

    def test_f64_cg_with_refresh(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(
            tmp_path, capsys, "--spectrum", "1x2,100x2,10000x2,1000000x2"
        )
        code, out, _ = run(
            ["solve", a_path, b_path, "--method", "cg", "--arith", "f64",
             "--eps", "1e-10", "--refresh-k", "50"],
            capsys,
        )
        assert code == EXIT_OK
        assert "# method cg" in out and "# arith DP" in out
        assert "# termination converged" in out

    def test_perturbation_flag(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(
            tmp_path, capsys, "--chain", "3", "--stiff", "1,2,2,1",
            "--rhs", "explicit:0,1,0",
        )
        code, out, _ = run(
            ["solve", a_path, b_path, "--perturb", "1:2:1"], capsys
        )
        assert code == EXIT_OK
        rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")][1:]
        perturbed = [ln.split(",")[4] for ln in rows]
        assert perturbed == ["0", "1", "0", "0"]
        assert rows[-1].split(",")[1] == "0/1"

    def test_not_spd_exit(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        a.write_text("symmetric 2\n1\n2 1\n")
        b = tmp_path / "b.txt"
        b.write_text("vector 2\n1\n0\n")
        code, _, err = run(["solve", str(a), str(b)], capsys)
        assert code == EXIT_NOT_SPD and "error:" in err

    def test_budget_exit(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(
            tmp_path, capsys, "--chain", "8", "--stiff", "1,2,3,5,7,11,13,17,19",
            "--rhs", "explicit:1,-2,3,1,-1,2,5,-3",
        )
        code, out, err = run(
            ["solve", a_path, b_path, "--max-bits", "64"], capsys
        )
        assert code == EXIT_BUDGET
        assert "budget" in err
        assert "# termination budget_exceeded" in out

    def test_spd_gate_budget_exit(self, tmp_path, capsys):
        # lambda_min = 2^-60 defeats the float certificate; the exact
        # LDL^T pivots of this system reach 370 bits.
        a_path, b_path, _ = gen_system(
            tmp_path, capsys, "--spectrum", "1/1152921504606846976x1,1x5,2x5,3x5",
            "--rotate", "48", "--seed", "7",
        )
        code, out, err = run(["solve", a_path, b_path, "--max-bits", "300"], capsys)
        assert code == EXIT_BUDGET and out == ""
        assert err.count("\n") == 1 and err.startswith("error: SPD check")
        code, _, _ = run(["solve", a_path, b_path, "--no-energy"], capsys)
        assert code == EXIT_OK

    def test_step_cap_exit(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(tmp_path, capsys, "--spectrum", "2x1,5x1")
        code, out, err = run(
            ["solve", a_path, b_path, "--omega", "0.5", "--max-steps", "8"], capsys
        )
        assert code == EXIT_NOT_CONVERGED
        assert "# termination max_steps" in out
        assert "step limit" in err

    def relaxed_f64_solve(self, tmp_path, capsys, method):
        spectrum = ",".join("%dx5" % k for k in range(1, 13))
        a_path, b_path, _ = gen_system(
            tmp_path, capsys, "--spectrum", spectrum, "--rotate", "180", "--seed", "2551"
        )
        trace = tmp_path / "t.csv"
        code, _, err = run(
            ["solve", a_path, b_path, "--arith", "f64", "--method", method,
             "--omega", "19/10", "--eps", "1e-10", "-o", str(trace)],
            capsys,
        )
        return code, err, trace

    @pytest.mark.parametrize("method", ["irm-cg"])
    def test_numerical_failure_exit(self, tmp_path, capsys, method):
        code, err, _ = self.relaxed_f64_solve(tmp_path, capsys, method)
        assert code == EXIT_NUMERICAL
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_relaxed_f64_irm_drops_dependent_direction(self, tmp_path, capsys):
        # Here a projected system of two directions has an elimination
        # pivot of exactly 0.0; the step keeps the first direction and
        # the run converges.
        code, err, trace = self.relaxed_f64_solve(tmp_path, capsys, "irm")
        assert code == EXIT_OK and err == ""
        assert "# termination converged" in trace.read_text()

    def test_snap_zero_restores_one_step_convergence(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        a.write_text("symmetric 2\n1\n1/%d 1\n" % 10**30)
        b = tmp_path / "b.txt"
        b.write_text("vector 2\n1\n0\n")

        def steps_of(extra):
            code, out, _ = run(["solve", str(a), str(b), *extra], capsys)
            assert code == EXIT_OK
            rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
            return len(rows) - 2  # header and step-0 row

        assert steps_of([]) == 2
        assert steps_of(["--snap-zero", "1e-20"]) == 1

    def test_matrix_market_input(self, tmp_path, capsys):
        a = tmp_path / "A.mtx"
        a.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 2.0\n2 2 4.0\n"
        )
        b = tmp_path / "b.txt"
        b.write_text("vector 2\n2\n8\n")
        code, out, _ = run(["solve", str(a), str(b)], capsys)
        assert code == EXIT_OK
        assert "# termination converged" in out

    def test_matrix_market_integer_beyond_double_range(self, tmp_path, capsys):
        # A = [[10^400, 1], [1, 1]], b = A (1, 1): cg ends on a zero residual
        # only if the 400-digit entry was read exactly.
        big = 10**400
        a = tmp_path / "A.mtx"
        a.write_text(
            "%%%%MatrixMarket matrix coordinate integer symmetric\n"
            "2 2 3\n1 1 %d\n2 1 1\n2 2 1\n" % big
        )
        b = tmp_path / "b.txt"
        b.write_text("vector 2\n%d\n2\n" % (big + 1))
        code, out, err = run(["solve", str(a), str(b), "--method", "cg"], capsys)
        assert code == EXIT_OK and err == ""
        assert "# termination converged" in out
        assert out.splitlines()[-1].startswith("2,0/1,")

    def test_rationals_beyond_the_int_string_limit(self, tmp_path, capsys):
        # Exact Jacobi IRM on this rotated system passes 4300 decimal digits,
        # Python's default limit on int <-> str conversions, within 8 steps:
        # the trace is written, and read back whole.
        a_path, b_path, _ = gen_system(tmp_path, capsys, "--spectrum", "1x2,2x2,3x2",
                                       "--rotate", "12", "--seed", "5")
        trace = tmp_path / "t.csv"
        code, _, err = run(["solve", a_path, b_path, "--method", "irm", "--generator",
                            "jacobi-residual+increment", "--max-steps", "8", "-o", str(trace)],
                           capsys)
        assert code == EXIT_NOT_CONVERGED, err
        parsed = parse_csv(str(trace))
        assert max(r.rr.denominator.bit_length() for r in parsed.records) > 4300 * 3.33
        text = io.StringIO()
        emit_csv(parsed, text)
        assert text.getvalue() == trace.read_text()
        # Vector files take such literals too, and write them back unchanged.
        literal = "-1" + "0" * 5000 + "/3"
        vec = tmp_path / "v.txt"
        vec.write_text("vector 2\n%s\n7\n" % literal)
        v = read_vector(str(vec))
        assert v.data[0] == F(-10**5000, 3)
        write_vector(v, str(tmp_path / "w.txt"))
        assert (tmp_path / "w.txt").read_text() == vec.read_text()

    @pytest.mark.parametrize("field, line", [
        ("real", "2 1 inf"),
        ("real", "2 1 nan"),
        ("real", "2 1 abc"),
        ("integer", "2 1 1.5"),
    ])
    def test_bad_matrix_market_value_is_a_usage_error(self, tmp_path, capsys, field, line):
        a = tmp_path / "A.mtx"
        a.write_text(
            "%%%%MatrixMarket matrix coordinate %s symmetric\n2 2 2\n1 1 4\n%s\n" % (field, line)
        )
        b = tmp_path / "b.txt"
        b.write_text("vector 2\n1\n1\n")
        code, out, err = run(["solve", str(a), str(b)], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.count("\n") == 1 and repr(line) in err

    def test_no_energy_flag(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(tmp_path, capsys, "--spectrum", "2x1")
        code, out, _ = run(["solve", a_path, b_path, "--no-energy"], capsys)
        assert code == EXIT_OK
        assert "0,1/1,,1,0" in out

    def test_consistent_x0_is_trivially_solved(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(tmp_path, capsys, "--spectrum", "2x1,3x1")
        x0 = tmp_path / "x0.txt"
        x0.write_text("vector 2\n1/2\n1/3\n")
        code, out, _ = run(["solve", a_path, b_path, "--x0", str(x0)], capsys)
        assert code == EXIT_OK
        assert "# termination zero_initial_residual" in out
        assert not [ln for ln in out.splitlines() if ln and ln[0].isdigit()]

    def test_cg_rejects_relaxation(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(tmp_path, capsys, "--spectrum", "2x1")
        code, _, err = run(
            ["solve", a_path, b_path, "--method", "cg", "--omega", "1.5"], capsys
        )
        assert code == EXIT_USAGE and "omega" in err

    @pytest.mark.parametrize("method", ["cg", "irm-cg"])
    def test_generator_applies_to_irm_only(self, tmp_path, capsys, method):
        a_path, b_path, _ = gen_system(tmp_path, capsys, "--spectrum", "2x1")
        code, out, err = run(
            ["solve", a_path, b_path, "--method", method,
             "--generator", "jacobi-residual+increment"], capsys
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: %s ignores the generator" % method)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("extra", [["--eps", "1e400"], ["--perturb", "1:1:1e400"]])
    def test_f64_scalar_beyond_double_range(self, tmp_path, capsys, extra):
        a_path, b_path, _ = gen_system(tmp_path, capsys, "--spectrum", "2x1,3x1")
        code, out, err = run(["solve", a_path, b_path, "--arith", "f64", *extra], capsys)
        assert code == EXIT_NUMERICAL
        assert err.startswith("error: ") and "does not fit in a double" in err
        assert err.count("\n") == 1


class TestCompare:
    def make_trace(self, tmp_path, capsys, name, *extra):
        a_path, b_path, _ = gen_system(
            tmp_path / name,
            capsys,
            "--spectrum",
            "1x2,100x2,10000x2,1000000x2,100000000x1,10000000000x1",
        )
        trace = str(tmp_path / ("%s.csv" % name))
        code, _, _ = run(["solve", a_path, b_path, "-o", trace, *extra], capsys)
        assert code == EXIT_OK
        return trace

    def test_self_comparison(self, tmp_path, capsys):
        t = self.make_trace(tmp_path, capsys, "e", "--eps", "1e-10")
        code, out, _ = run(["compare", t, t], capsys)
        assert code == EXIT_OK
        assert "divergence_step=none delta_steps=0" in out

    def test_exact_vs_double_delta_positive(self, tmp_path, capsys):
        tE = self.make_trace(tmp_path, capsys, "e", "--eps", "1e-10")
        tDP = self.make_trace(
            tmp_path, capsys, "dp", "--eps", "1e-10", "--arith", "f64"
        )
        code, out, _ = run(["compare", tE, tDP], capsys)
        assert code == EXIT_OK
        delta = int(re.search(r"delta_steps=(-?\d+)", out).group(1))
        assert delta > 0
        assert "exact_steps=6" in out

    def test_mismatched_omega_exits_5(self, tmp_path, capsys):
        t1 = self.make_trace(tmp_path, capsys, "a", "--eps", "1e-10")
        text = open(t1).read().replace("# omega 1/1", "# omega 1/2")
        t2 = str(tmp_path / "b.csv")
        open(t2, "w").write(text)
        code, _, err = run(["compare", t1, t2], capsys)
        assert code == EXIT_INCOMPARABLE and "error:" in err

    def test_bad_flag_is_a_usage_error(self, tmp_path, capsys):
        t1 = self.make_trace(tmp_path, capsys, "a", "--eps", "1e-10")
        text = open(t1).read()
        t2 = str(tmp_path / "b.csv")
        open(t2, "w").write(re.sub(r"(?m)^(1,[^,]*,[^,]*),[01],", r"\1,yes,", text, count=1))
        code, out, err = run(["compare", t1, t2], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: bad row '1,") and "yes" in err

    @pytest.mark.parametrize("gap", ["-1", "nan", "inf"])
    def test_meaningless_gap_is_a_usage_error(self, tmp_path, capsys, gap):
        t = self.make_trace(tmp_path, capsys, "e", "--eps", "1e-10")
        code, out, err = run(["compare", t, t, "--gap", gap], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: gap") and err.count("\n") == 1


class TestActive:
    def test_counts_distinct_loaded_values(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(
            tmp_path, capsys, "--spectrum", "2x2,5x1", "--rhs", "explicit:1,0,3"
        )
        code, out, _ = run(["active", a_path, b_path], capsys)
        assert code == EXIT_OK and out.strip() == "m=2"

    def test_dense_matrix_rejected(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(
            tmp_path, capsys, "--spectrum", "2x2,5x1", "--rotate", "2"
        )
        assert read_matrix(a_path).kind == "dense"
        code, _, err = run(["active", a_path, b_path], capsys)
        assert code == EXIT_USAGE and "error:" in err

    def test_symmetric_file_with_diagonal_body(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        a.write_text("symmetric 3\n2\n0 2\n0 0 5\n")
        b = tmp_path / "b.txt"
        b.write_text("vector 3\n1\n-1\n1\n")
        assert read_matrix(a).kind == "diagonal"
        code, out, _ = run(["active", str(a), str(b)], capsys)
        assert code == EXIT_OK and out.strip() == "m=2"

    def test_rotations_of_equal_eigenvalues_stay_diagonal(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(
            tmp_path, capsys, "--spectrum", "3x2", "--rotate", "4", "--seed", "1"
        )
        assert open(a_path).read() == "diagonal 2\n3\n3\n"
        code, out, _ = run(["active", a_path, b_path], capsys)
        assert code == EXIT_OK and out.strip() == "m=1"


class TestManifest:
    """An invocation is its argv: running it again prints the same bytes."""

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(tmp_path, capsys, "--spectrum", "1x1,2x1,3x1")
        argv = ["solve", a_path, b_path, "--eps", "0"]
        first, second = run(argv, capsys), run(argv, capsys)
        assert first[0] == EXIT_OK
        assert first == second

    def test_f64_rerun_is_byte_identical(self, tmp_path, capsys):
        a_path, b_path, _ = gen_system(
            tmp_path, capsys, "--spectrum", "1x3,7/2x2,90x3", "--rotate", "12", "--seed", "5"
        )
        argv = ["solve", a_path, b_path, "--arith", "f64", "--eps", "1e-12", "--method", "cg"]
        first, second = run(argv, capsys), run(argv, capsys)
        assert first[0] == EXIT_OK
        assert "# arith DP" in first[1]
        assert first == second

    def test_usage_exit_codes(self, capsys):
        assert run([], capsys)[0] == EXIT_USAGE
        assert run(["solve"], capsys)[0] == EXIT_USAGE


def test_installed_script_end_to_end(tmp_path):
    outdir = tmp_path / "sys"
    r = subprocess.run(
        ["irmcg", "gen", "--spectrum", "1x1,4x1", "-o", str(outdir)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0 and r.stdout.strip() == "m=2"
    r = subprocess.run(
        ["irmcg", "solve", str(outdir / "A.txt"), str(outdir / "b.txt")],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert "# termination converged" in r.stdout

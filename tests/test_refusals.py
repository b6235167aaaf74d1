"""Refusals of malformed input: the error's type, its text, and exit 2.

Each table row is one input that a reader or a library call refuses.
The library call must raise the named type with exactly the named
text, and the CLI call that reads the same input must print
``error: <text>`` and exit with EXIT_USAGE.
"""

import os
from fractions import Fraction as F

import numpy as np
import pytest

from irmcg.analysis import count_active, parse_csv
from irmcg.arithmetic import EXACT, F64
from irmcg.benchgen import (
    RHS_EXPLICIT,
    RHS_RANDOM,
    RotationPlan,
    SpectrumSpec,
    gen_inverse,
    gen_spring_chain,
    parse_spectrum_inline,
    read_spectrum_file,
    rhs_entries,
)
from irmcg.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from irmcg.errors import DimensionError, ExactRequired, FormatError, NumericalBreakdown
from irmcg.linalg import (
    SymmetricMatrix,
    Vector,
    add_to_entry,
    read_matrix,
    read_vector,
    small_solve,
    snap_matrix,
    snap_vector,
    write_vector,
)
from irmcg.solvers import Perturbation, SolverConfig, solve


def cli_refuses(argv, capsys, text):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == "error: %s\n" % text


def lib_refuses(call, arg, error, text):
    with pytest.raises(error) as info:
        call(arg)
    assert str(info.value) == text


@pytest.fixture
def system(tmp_path):
    """A valid 2x2 diagonal system: (matrix path, vector path)."""
    a, b = tmp_path / "A.txt", tmp_path / "b.txt"
    a.write_text("diagonal 2\n1\n2\n")
    b.write_text("vector 2\n1\n1\n")
    return a, b


MM = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize("text, message", [
    ("%%MatrixMarket matrix coordinate real\n2 2 1\n1 1 1\n",
     "malformed MatrixMarket banner"),
    ("%%MatrixMarket matrix array real symmetric\n2 2\n1\n0\n1\n",
     "only coordinate matrices are supported"),
    ("%%MatrixMarket vector coordinate real symmetric\n2 2 1\n1 1 1\n",
     "only coordinate matrices are supported"),
    ("%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n1 1 1 0\n",
     "unsupported value field 'complex'"),
    (MM + "% only a comment\n\n", "missing size line"),
    (MM + "2 2\n1 1 1\n", "malformed size line '2 2'"),
    (MM + "2 2 1 7\n1 1 1\n", "malformed size line '2 2 1 7'"),
], ids=["banner", "array", "vector", "complex", "no-size", "short-size", "long-size"])
def test_matrix_market_header(tmp_path, capsys, system, text, message):
    path = tmp_path / "mm.txt"
    path.write_text(text)
    lib_refuses(read_matrix, path, FormatError, message)
    cli_refuses(["solve", path, system[1]], capsys, message)


@pytest.mark.parametrize("text", ["vec 2\n1\n1\n", "vector\n", "", "2 vector\n1\n1\n"])
def test_vector_header(tmp_path, capsys, system, text):
    path = tmp_path / "v.txt"
    path.write_text(text)
    message = "vector file must start with 'vector n'"
    lib_refuses(read_vector, path, FormatError, message)
    cli_refuses(["solve", system[0], path], capsys, message)


@pytest.mark.parametrize("abar, rbar, error, message", [
    ([[1, 2]], [1], DimensionError, "abar is not 1 x 1"),
    ([[1, 2], [3]], [1, 1], DimensionError, "abar is not 2 x 2"),
    ([[1]], [1, 1], DimensionError, "abar is not 2 x 2"),
    ([[1, 2], [3, 1]], [1, 1], ValueError, "abar is not symmetric"),
])
def test_small_solve_shape(abar, rbar, error, message):
    lib_refuses(lambda a: small_solve(a, rbar, EXACT), abar, error, message)


TRACE = (
    "# method cg\n# arith E\n# omega 1/1\n# epsilon 0/1\n# refresh_k 1\n"
    "# max_steps 10\n# seed 0\n# termination converged\n"
    "step,rr,energy,refreshed,perturbed\n0,4/1,0/1,1,0\n1,0/1,-2/1,0,0\n"
)


def test_trace_table_base_is_valid(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACE)
    assert parse_csv(path).steps == 1


def _trace(old, new):
    assert old in TRACE
    return TRACE.replace(old, new)


@pytest.mark.parametrize("text, message", [
    (_trace("# seed 0\n", "# seed 0\n#\n"), "empty preamble line"),
    (_trace("# seed 0\n", "# seed 0\n#   \n"), "empty preamble line"),
    (TRACE.split("step,")[0], "missing column header"),
    (_trace("# arith E", "# arith Q"), "unknown arithmetic tag 'Q'"),
    (_trace("1,0/1,-2/1,0,0", "1,0/1,-2/1,0"), "expected 5 fields, got '1,0/1,-2/1,0'"),
    (_trace("1,0/1,-2/1,0,0", "1,0/1,-2/1,0,0,"), "expected 5 fields, got '1,0/1,-2/1,0,0,'"),
    (_trace("# refresh_k 1", "# refresh_k one"), "not an integer: 'one'"),
    (_trace("# max_steps 10", "# max_steps 1.5"), "not an integer: '1.5'"),
    (_trace("# seed 0", "# seed"), "not an integer: ''"),
    (_trace("# termination converged", "# termination exploded"),
     "unknown termination 'exploded'"),
], ids=["bare-hash", "blank-hash", "no-header", "tag", "four-fields", "six-fields",
        "refresh_k", "max_steps", "seed", "termination"])
def test_trace(tmp_path, capsys, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    lib_refuses(parse_csv, path, FormatError, message)
    cli_refuses(["compare", path, path], capsys, message)


@pytest.mark.parametrize("text, message", [
    ("1 1 active\nrhs ones\nrhs ones\n", "duplicate rhs line"),
    ("1 1 active\nrhs sometimes\n", "bad rhs line 'rhs sometimes'"),
    ("1 1 active\nrhs\n", "bad rhs line 'rhs'"),
    ("1 1 active\nrhs random\n", "rhs random needs a seed"),
    ("1 1 active\nrhs random 1 2\n", "rhs random needs a seed"),
    ("1 1 active\nrhs random x\n", "bad rhs seed 'x'"),
    ("1 1 active\nrhs ones 3\n", "rhs ones takes no arguments"),
    ("rhs ones\n1 1 active\n", "rhs line must come last"),
    ("1 1\nrhs ones\n", "bad spectrum line '1 1'"),
    ("1 1 maybe\nrhs ones\n", "bad spectrum line '1 1 maybe'"),
    ("1 x active\nrhs ones\n", "bad multiplicity in '1 x active'"),
    ("x 1 active\nrhs ones\n", "not a rational literal: 'x'"),
    ("1 1 active\n", "missing rhs line"),
    ("\n\n", "missing rhs line"),
    ("rhs ones\n", "spectrum must contain at least one item"),
    ("1 1 active\n1 2 active\nrhs ones\n", "eigenvalues must be pairwise distinct"),
    ("1 0 active\nrhs ones\n", "multiplicities must be >= 1"),
    ("-1 1 active\nrhs ones\n", "eigenvalues must be strictly positive"),
    ("1 1 active\nrhs explicit 1 2\n", "explicit rhs has 2 entries for n = 1"),
    ("1 1 inactive\nrhs explicit 1\n", "inactive eigenvalue 1 gets a nonzero rhs entry"),
])
def test_spectrum_file(tmp_path, capsys, text, message):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    lib_refuses(read_spectrum_file, path, FormatError, message)
    cli_refuses(["gen", "--spectrum-file", path, "-o", tmp_path / "sys"], capsys, message)
    assert not (tmp_path / "sys").exists()


@pytest.mark.parametrize("args, message", [
    (["--spectrum", "1x1", "--rhs", "sometimes"], "bad --rhs 'sometimes'"),
    (["--spectrum", "1x1", "--rhs", "explicit"], "bad --rhs 'explicit'"),
    (["--chain", "2"], "--chain needs --stiff"),
    (["--chain", "2", "--stiff", ""], "--chain needs --stiff"),
    (["--chain", "3", "--stiff", "1,1,1,1", "--rhs", "explicit:1,2"],
     "explicit rhs has 2 entries for n = 3"),
    (["--chain", "0", "--stiff", "1"], "chain needs at least one mass"),
    # Numeric options that argparse types are read by arithmetic's readers.
    (["--chain", "\u0663", "--stiff", "1,1,1,1"], "not an integer: '\u0663'"),
    (["--spectrum", "1x1,2x1", "--rotate", "\u0661"], "not an integer: '\u0661'"),
    (["--chain", "3", "--stiff", "1,1,1,1", "--rhs", "random", "--seed", "\u0664_\u0662"],
     "not an integer: '\u0664_\u0662'"),
])
def test_gen_options(tmp_path, capsys, args, message):
    cli_refuses(["gen", *args, "-o", tmp_path / "sys"], capsys, message)
    assert not (tmp_path / "sys").exists()


@pytest.mark.parametrize("perturb, message", [
    ("1:2", "--perturb wants STEP:COMP:DELTA, got '1:2'"),
    ("1:2:1:1", "--perturb wants STEP:COMP:DELTA, got '1:2:1:1'"),
    ("a:2:1", "bad perturbation indices in 'a:2:1'"),
    ("1:2.0:1", "bad perturbation indices in '1:2.0:1'"),
    ("1::1", "bad perturbation indices in '1::1'"),
    ("1:0:1", "component_index is 1-based"),
    ("-1:1:1", "step_index must be nonnegative"),
])
def test_perturb_option(capsys, system, perturb, message):
    cli_refuses(["solve", *system, "--perturb=" + perturb], capsys, message)


# Numbers in text are ASCII: non-ASCII digits and "_" separators, which
# Python's int(), float() and Fraction() accept, are refused everywhere.


@pytest.mark.parametrize("text, message", [
    ("1x\u0663", "bad multiplicity in '1x\u0663'"),
    ("1x1,2x1_0", "bad multiplicity in '2x1_0'"),
    ("1x\u0663i", "bad multiplicity in '1x\u0663'"),
])
def test_spectrum_inline_is_ascii(tmp_path, capsys, text, message):
    lib_refuses(parse_spectrum_inline, text, FormatError, message)
    cli_refuses(["gen", "--spectrum", text, "-o", tmp_path / "sys"], capsys, message)


def test_spectrum_inline_ascii_twin():
    spec = parse_spectrum_inline("1x3,2x10, 3/2x 2i")
    assert spec == SpectrumSpec(((1, 3, True), (2, 10, True), (F(3, 2), 2, False)))


@pytest.mark.parametrize("text, message", [
    ("1 \u0662 active\nrhs ones\n", "bad multiplicity in '1 \u0662 active'"),
    ("1 1 active\nrhs random \u0664\u0662\n", "bad rhs seed '\u0664\u0662'"),
    ("1 1 active\nrhs random 4_2\n", "bad rhs seed '4_2'"),
])
def test_spectrum_file_is_ascii(tmp_path, capsys, text, message):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    lib_refuses(read_spectrum_file, path, FormatError, message)
    cli_refuses(["gen", "--spectrum-file", path, "-o", tmp_path / "sys"], capsys, message)


def test_spectrum_file_ascii_twin(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("1 2 active\n5 +1 inactive\nrhs random -42\n")
    assert read_spectrum_file(path) == SpectrumSpec(
        ((1, 2, True), (5, 1, False)), rhs_rule=RHS_RANDOM, rhs_seed=-42)


DP_TRACE = (
    "# method cg\n# arith DP\n# omega 1.0\n# epsilon 0.0\n# refresh_k 50\n"
    "# max_steps 100\n# seed 0\n# termination converged\n"
    "step,rr,energy,refreshed,perturbed\n0,4.0,0.0,1,0\n1,10.5,-2.0,0,0\n"
)


@pytest.mark.parametrize("base, old, new, message", [
    (TRACE, "0,4/1,0/1,1,0", "\u0660,4/1,0/1,1,0",
     "bad row '\u0660,4/1,0/1,1,0': not an integer: '\u0660'"),
    (DP_TRACE, "1,10.5,-2.0,0,0", "1,1_0.5,-2.0,0,0",
     "bad row '1,1_0.5,-2.0,0,0': not a double literal: '1_0.5'"),
    (DP_TRACE, "1,10.5,-2.0,0,0", "1,10.5,-\u0662.0,0,0",
     "bad row '1,10.5,-\u0662.0,0,0': not a double literal: '-\u0662.0'"),
    (TRACE, "1,0/1,-2/1,0,0", "1,0/1,-\u0662/1,0,0",
     "bad row '1,0/1,-\u0662/1,0,0': not a rational literal: '-\u0662/1'"),
    (DP_TRACE, "# refresh_k 50", "# refresh_k \u0665\u0660", "not an integer: '\u0665\u0660'"),
    (DP_TRACE, "# max_steps 100", "# max_steps 1_00", "not an integer: '1_00'"),
    (DP_TRACE, "# omega 1.0", "# omega \u0661.0", "not a double literal: '\u0661.0'"),
], ids=["step", "rr", "energy", "exact-energy", "refresh_k", "max_steps", "omega"])
def test_trace_is_ascii(tmp_path, capsys, base, old, new, message):
    assert old in base
    path = tmp_path / "t.csv"
    path.write_text(base.replace(old, new))
    lib_refuses(parse_csv, path, FormatError, message)
    cli_refuses(["compare", path, path], capsys, message)


def test_trace_ascii_twin(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(DP_TRACE.replace("0,4.0", "+0,4.0"))
    t = parse_csv(path)
    assert (t.refresh_k, t.max_steps, t.omega) == (50, 100, 1.0)
    assert [(r.i, r.rr, r.energy) for r in t.records] == [(0, 4.0, 0.0), (1, 10.5, -2.0)]


@pytest.mark.parametrize("args, message", [
    (["--perturb", "\u0661:\u0662:1"], "bad perturbation indices in '\u0661:\u0662:1'"),
    (["--perturb", "1:1_0:1"], "bad perturbation indices in '1:1_0:1'"),
    (["--omega", "\u0663/\u0664"], "not a number: '\u0663/\u0664'"),
    (["--eps", "\uff11e-3"], "not a number: '\uff11e-3'"),
    (["--eps", "1e-9999999"], "exponent past 4300 in magnitude: '1e-9999999'"),
    (["--snap-zero", "1_0"], "not a number: '1_0'"),
    (["--refresh-k", "\u0665"], "not an integer: '\u0665'"),
    (["--max-steps", "1_0"], "not an integer: '1_0'"),
    (["--max-bits", "\uff16\u0664"], "not an integer: '\uff16\u0664'"),
    (["--seed", "\u0667"], "not an integer: '\u0667'"),
])
def test_solve_options_are_ascii(capsys, system, args, message):
    cli_refuses(["solve", *system, *args], capsys, message)


@pytest.mark.parametrize("args", [
    ["--perturb", "1:2:1"], ["--omega", "3/4", "--eps", "1/10"], ["--eps", "1e-3"],
    ["--snap-zero", "1/2"], ["--eps", "1e-4300"],
])
def test_solve_options_ascii_twin(capsys, system, args):
    assert main(["solve", *map(str, system), *args]) == EXIT_OK
    capsys.readouterr()


def test_stiffness_is_ascii(tmp_path, capsys):
    cli_refuses(["gen", "--chain", "1", "--stiff", "0_5,1", "-o", tmp_path / "a"], capsys,
                "not a number: '0_5'")
    assert main(["gen", "--chain", "1", "--stiff", "0.5,1", "-o", str(tmp_path / "b")]) == EXIT_OK
    assert (tmp_path / "b" / "A.txt").read_text() == "diagonal 1\n3/2\n"


def test_nan_residuals_do_not_compare_as_agreeing(tmp_path, capsys):
    header = "step,rr,energy,refreshed,perturbed\n"
    exact, dp = tmp_path / "e.csv", tmp_path / "dp.csv"
    exact.write_text(TRACE.split(header)[0] + header + "0,4/1,,1,0\n1,1/1,,0,0\n2,1/100,,0,0\n")
    dp.write_text(DP_TRACE.split(header)[0] + header + "0,4.0,,1,0\n1,nan,nan,0,0\n2,nan,,0,0\n")
    assert [r.rr for r in parse_csv(exact).records] == [4, 1, F(1, 100)]
    message = "bad row '1,nan,nan,0,0': rr must be nonnegative"
    lib_refuses(parse_csv, dp, FormatError, message)
    cli_refuses(["compare", exact, dp], capsys, message)


def test_gap_is_ascii(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text(TRACE)
    cli_refuses(["compare", path, path, "--gap", "\u0661.\u0665"], capsys,
                "not a double literal: '\u0661.\u0665'")


def test_option_values_are_read_before_files(capsys):
    cli_refuses(["solve", "missing.txt", "b.txt", "--eps", "\u0663"], capsys,
                "not a number: '\u0663'")


def _typed_option_outputs(tmp_path, capsys, system, pad):
    """Exit codes, output and files of gen, solve and compare, each number padded by pad."""
    def run(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr()

    def opt(text):
        return pad + text + pad

    out, trace = tmp_path / ("sys%r" % pad), tmp_path / "t.csv"
    trace.write_text(TRACE)
    runs = [
        run("gen", "--chain", opt("3"), "--stiff", "1,2,2,1", "--rhs", "random",
            "--seed", opt("42"), "-o", out / "chain"),
        run("gen", "--spectrum", "1x2,2x1", "--rotate", opt("3"), "--seed", opt("-5"),
            "-o", out / "rot"),
        run("solve", *system, "--arith", "f64", "--refresh-k", opt("2"), "--max-steps", opt("9"),
            "--max-bits", opt("64"), "--seed", opt("7")),
        run("compare", trace, trace, "--gap", opt("1.5")),
    ]
    files = [(out / d / f).read_text() for d in ("chain", "rot") for f in ("A.txt", "b.txt")]
    return runs, files


def test_typed_options_ascii_twins(tmp_path, capsys, system):
    runs, files = _typed_option_outputs(tmp_path, capsys, system, "")
    assert (runs, files) == _typed_option_outputs(tmp_path, capsys, system, " ")
    assert [code for code, _ in runs] == [EXIT_OK] * 4
    assert "# refresh_k 2\n# max_steps 9\n# seed 7\n" in runs[2][1].out


# Refusals of arguments that a Python caller passes, each pinned with
# its type and text (the CLI tables above hold those an option reaches).

_D2 = SymmetricMatrix.diagonal([1, 2])


@pytest.mark.parametrize("call, args, error, message", [
    (Vector, ([1, 2], "quad"), ValueError, "unknown field 'quad'"),
    (SymmetricMatrix, (0, [], [], []), DimensionError, "matrix order must be >= 1"),
    (SymmetricMatrix, (2, [0, 1], [0], [1, 1]), DimensionError,
     "need one row and one column index per value"),
    (_D2.entry, (2, 0), DimensionError, "index out of range"),
    (add_to_entry, (Vector.exact([1, 2]), 2, 1), DimensionError, "component index out of range"),
    (snap_matrix, (SymmetricMatrix.diagonal([1, 2], F64), 0), ExactRequired,
     "zero snapping operates on exact data"),
    (snap_vector, (Vector([1, 2], F64), 0), ExactRequired, "zero snapping operates on exact data"),
    (write_vector, (Vector([1, 2], F64), os.devnull), ExactRequired,
     "vector files store exact rationals"),
    (solve, (SymmetricMatrix.diagonal([1e-300, 1e-300], F64), Vector([1e-60, 1e-60], F64)),
     NumericalBreakdown, "r0.A r0 = 0.0 with a nonzero residual"),
    (count_active, (_D2, Vector.exact([1, 2, 3])), DimensionError,
     "matrix order 2 vs vector length 3"),
    (SpectrumSpec, (((1, 1, True),), "sometimes"), ValueError, "unknown rhs rule 'sometimes'"),
    (rhs_entries, (RHS_EXPLICIT, (1, 2), None, [True] * 3), DimensionError,
     "explicit rhs has 2 entries for n = 3"),
    (gen_inverse, (_D2, Vector.exact([1, 2, 3])), DimensionError,
     "matrix order 2 vs solution length 3"),
    (gen_spring_chain, (0, [1]), DimensionError, "chain needs at least one mass"),
    (Perturbation, (1, 0, 1), ValueError, "component_index is 1-based"),
    (Perturbation, (-1, 1, 1), ValueError, "step_index must be nonnegative"),
], ids=["field", "order", "coordinates", "entry", "add_to_entry", "snap_matrix", "snap_vector",
        "write_vector", "r0-breakdown", "count_active", "rhs-rule", "rhs-entries", "gen_inverse",
        "chain", "component", "step"])
def test_library_arguments(call, args, error, message):
    lib_refuses(lambda a: call(*a), args, error, message)


def test_active_sizes(tmp_path, capsys, system):
    path = tmp_path / "v3.txt"
    path.write_text("vector 3\n1\n1\n1\n")
    cli_refuses(["active", system[0], path], capsys, "matrix order 2 vs vector length 3")


def test_r0_breakdown_exit(tmp_path, capsys):
    # A r0 underflows to 0.0 in f64: diag(1e-300, 1e-300), b = (1e-60, 1e-60).
    a, b = tmp_path / "A.txt", tmp_path / "b.txt"
    a.write_text("diagonal 2\n1/1%s\n1/1%s\n" % ("0" * 300, "0" * 300))
    b.write_text("vector 2\n1/1%s\n1/1%s\n" % ("0" * 60, "0" * 60))
    assert main(["solve", str(a), str(b), "--arith", "f64"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: r0.A r0 = 0.0 with a nonzero residual\n"


# Counts and indices from Python callers are integers: a float or a
# string is refused, not truncated or written into a trace.


@pytest.mark.parametrize("call, message", [
    (lambda: SolverConfig(refresh_k=2.5), "refresh_k must be an integer, got 2.5"),
    (lambda: SolverConfig(max_steps=1.5), "max_steps must be an integer, got 1.5"),
    (lambda: solve(_D2, Vector.exact([1, 1]), seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: Perturbation(1.5, 2, 1), "step_index must be an integer, got 1.5"),
    (lambda: Perturbation(1, 2.5, 1), "component_index must be an integer, got 2.5"),
    (lambda: SpectrumSpec(((1, 2.7, True),)), "multiplicity must be an integer, got 2.7"),
    (lambda: SpectrumSpec(((1, "\u0662", True),)),
     "multiplicity must be an integer, got '\u0662'"),
    (lambda: SpectrumSpec(((1, 1, True),), rhs_rule=RHS_RANDOM, rhs_seed=1.5),
     "rhs seed must be an integer, got 1.5"),
    (lambda: RotationPlan(((0.9, 1, F(3, 5), F(4, 5)),)),
     "rotation index must be an integer, got 0.9"),
], ids=["refresh_k", "max_steps", "seed", "step_index", "component_index", "multiplicity",
        "multiplicity-text", "rhs-seed", "rotation-index"])
def test_counts_are_integers(call, message):
    lib_refuses(lambda f: f(), call, ValueError, message)


def test_integer_counts_of_any_type_are_ints():
    cfg = SolverConfig(refresh_k=np.int64(5), max_steps=True)
    assert (cfg.refresh_k, cfg.max_steps) == (5, 1) and type(cfg.max_steps) is int
    _, trace = solve(_D2, Vector.exact([1, 1]), cfg=cfg, seed=np.int64(7))
    assert type(trace.seed) is int and trace.seed == 7
    assert Perturbation(np.int64(1), np.int32(2), 1) == Perturbation(1, 2, 1)
    assert SpectrumSpec(((1, np.int64(2), True),)).items == ((1, 2, True),)

"""Command-line front end.

Subcommands: ``gen`` fabricates benchmark systems, ``solve`` runs a
method under either arithmetic and writes the trace CSV, ``compare``
pairs two traces, ``active`` counts the active eigenvalues of a
diagonal system.  Rerunning an invocation reproduces its output byte
for byte.

``main`` is one parse and one call: argparse reads each numeric option
with its ``arithmetic`` reader, whose FormatError it passes on, so a
malformed number is one ``error:`` line with exit 2 like every other
refusal; the runners read ``--stiff``, ``--rhs`` and ``--perturb``.

Exit codes: 0 solved, 1 step limit hit without convergence, 2 usage or
malformed input, 3 matrix not SPD, 4 bit budget exceeded, 5 traces not
comparable, 6 numerical failure (an f64 overflow or NaN, a breakdown,
or a generator with no usable vectors).
"""

import argparse
import os
import sys

from . import benchgen
from .analysis import (
    BUDGET_EXCEEDED,
    MAX_STEPS,
    compare,
    count_active,
    emit_csv,
    parse_csv,
    render_report,
)
from .arithmetic import BitBudget, parse_decimal, parse_double, parse_integer
from .errors import (
    BudgetExceeded,
    DiagonalRequired,
    DimensionError,
    ExactRequired,
    FormatError,
    GeneratorError,
    IncomparableTraces,
    InvalidRotation,
    InvalidScalar,
    InvalidStiffness,
    IoError,
    NotSPD,
    NumericalBreakdown,
    ScalarOverflow,
    ZeroInitialResidual,
)
from .linalg import (
    Vector,
    demote_matrix,
    demote_vector,
    read_matrix,
    read_vector,
    snap_matrix,
    snap_vector,
    write_matrix,
    write_vector,
)
from .solvers import GENERATORS, METHODS, Perturbation, SolverConfig, solve

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_USAGE = 2
EXIT_NOT_SPD = 3
EXIT_BUDGET = 4
EXIT_INCOMPARABLE = 5
EXIT_NUMERICAL = 6

# Each handled error's exit code: the first row whose types match.
_EXIT_CODES = (
    ((NotSPD,), EXIT_NOT_SPD),
    ((BudgetExceeded,), EXIT_BUDGET),
    ((IncomparableTraces,), EXIT_INCOMPARABLE),
    ((InvalidScalar, ScalarOverflow, NumericalBreakdown, GeneratorError), EXIT_NUMERICAL),
    ((FormatError, IoError, DimensionError, ExactRequired, InvalidRotation,
      InvalidStiffness, DiagonalRequired, ZeroInitialResidual, ValueError), EXIT_USAGE),
)
_HANDLED = tuple(t for types, _ in _EXIT_CODES for t in types)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="irmcg",
        description="Exact-rational and double-precision iterative SPD solvers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="fabricate a benchmark system")
    gen.set_defaults(run=_run_gen)
    gen.add_argument("--spectrum", help="inline spectrum, e.g. 1x2,3/2x1,10x3i")
    gen.add_argument("--spectrum-file", help="spectrum file (see README)")
    gen.add_argument("--chain", type=parse_integer, help="spring chain with this many masses")
    gen.add_argument("--stiff", help="comma-separated spring stiffnesses for --chain")
    gen.add_argument(
        "--rhs",
        help="ones | random | explicit:v1,v2,... (default ones; a spectrum file sets its own)",
    )
    gen.add_argument("--rotate", type=parse_integer, default=0, help="number of seeded rotations")
    gen.add_argument("--seed", type=parse_integer, default=0, help="64-bit seed")
    gen.add_argument("-o", "--out", required=True, help="output directory")

    slv = sub.add_parser("solve", help="run a solver and write its trace")
    slv.set_defaults(run=_run_solve)
    slv.add_argument("matrix", help="matrix file (native or MatrixMarket)")
    slv.add_argument("vector", help="right-hand side file")
    slv.add_argument("--method", choices=METHODS, default="irm-cg")
    slv.add_argument("--arith", choices=("exact", "f64"), default="exact")
    slv.add_argument("--omega", type=parse_decimal, default="1", help="relaxation factor in (0,2)")
    slv.add_argument("--eps", type=parse_decimal, default="0", help="relative residual tolerance")
    slv.add_argument("--refresh-k", type=parse_integer, help="refresh period")
    slv.add_argument("--max-steps", type=parse_integer, help="step cap (default 100n)")
    slv.add_argument("--x0", help="start vector file (default zeros)")
    slv.add_argument("--generator", choices=GENERATORS, default="residual+increment")
    slv.add_argument(
        "--perturb",
        action="append",
        default=[],
        metavar="STEP:COMP:DELTA",
        help="add DELTA to 1-based component COMP of p after step STEP",
    )
    slv.add_argument("--snap-zero", type=parse_decimal, help="zero-snap threshold for inputs")
    slv.add_argument("--no-energy", action="store_true", help="skip the energy column")
    slv.add_argument("--max-bits", type=parse_integer, default=1_000_000, help="bit budget")
    slv.add_argument("--seed", type=parse_integer, default=0, help="seed recorded in the trace")
    slv.add_argument("-o", "--out", help="trace file (default stdout)")

    cmp_ = sub.add_parser("compare", help="pair two traces of one configuration")
    cmp_.set_defaults(run=_run_compare)
    cmp_.add_argument("trace_e", help="reference trace (typically exact)")
    cmp_.add_argument("trace_dp", help="trace to compare against it")
    cmp_.add_argument("--gap", type=parse_double, default=1.0, help="divergence gap in decades")

    act = sub.add_parser("active", help="count active eigenvalues of a diagonal system")
    act.set_defaults(run=_run_active)
    act.add_argument("matrix", help="diagonal matrix file")
    act.add_argument("vector", help="right-hand side file")
    return parser


def _parse_rhs_option(text, seed):
    """--rhs as the (rule, values, seed) that benchgen.rhs_entries takes."""
    if text == "ones":
        return benchgen.RHS_ONES, None, None
    if text == "random":
        return benchgen.RHS_RANDOM, None, seed
    if text.startswith("explicit:"):
        values = tuple(parse_decimal(v) for v in text[len("explicit:"):].split(","))
        return benchgen.RHS_EXPLICIT, values, None
    raise FormatError("bad --rhs %r" % text)


def _run_gen(args):
    sources = [args.spectrum, args.spectrum_file, args.chain]
    if sum(s is not None for s in sources) != 1:
        raise FormatError("give exactly one of --spectrum, --spectrum-file, --chain")
    if args.spectrum_file is not None and args.rhs is not None:
        raise FormatError(
            "--rhs does not apply to --spectrum-file: the file's rhs line sets the right-hand side"
        )
    if args.stiff is not None and args.chain is None:
        raise FormatError("--stiff applies only to --chain")
    if args.chain is not None and args.rotate:
        raise FormatError("--rotate does not apply to --chain: a spring chain is not rotated")
    rhs = "ones" if args.rhs is None else args.rhs
    rule, values, rhs_seed = _parse_rhs_option(rhs, args.seed)
    m = None
    if args.chain is not None:
        if not args.stiff:
            raise FormatError("--chain needs --stiff")
        ks = [parse_decimal(t) for t in args.stiff.split(",")]
        A = benchgen.gen_spring_chain(args.chain, ks)
        b = Vector.exact(benchgen.rhs_entries(rule, values, rhs_seed, [True] * args.chain))
    else:
        if args.spectrum is not None:
            spec = benchgen.parse_spectrum_inline(
                args.spectrum, rhs_rule=rule, rhs_values=values, rhs_seed=rhs_seed
            )
        else:
            spec = benchgen.read_spectrum_file(args.spectrum_file)
        if args.rotate:
            plan = benchgen.random_plan(spec.n, args.rotate, args.seed)
            A, b, m = benchgen.gen_rotated(spec, plan)
        else:
            A, b, m = benchgen.gen_diagonal(spec)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise IoError(str(exc)) from None
    write_matrix(A, os.path.join(args.out, "A.txt"))
    write_vector(b, os.path.join(args.out, "b.txt"))
    if m is not None:
        print("m=%d" % m)
    return EXIT_OK


def _run_solve(args):
    A = read_matrix(args.matrix)
    b = read_vector(args.vector)
    x0 = read_vector(args.x0) if args.x0 else None
    if args.snap_zero is not None:
        A = snap_matrix(A, args.snap_zero)
        b = snap_vector(b, args.snap_zero)
    if args.arith == "f64":
        A = demote_matrix(A)
        b = demote_vector(b)
        x0 = demote_vector(x0) if x0 is not None else None
    perturbations = [_parse_perturbation(p) for p in args.perturb]
    cfg = SolverConfig(
        method=args.method,
        omega=args.omega,
        epsilon=args.eps,
        refresh_k=args.refresh_k,
        max_steps=args.max_steps,
        generator=args.generator,
        bit_budget=BitBudget(args.max_bits),
        record_energy=not args.no_energy,
    )
    _, trace = solve(A, b, x0=x0, cfg=cfg, perturbations=perturbations, seed=args.seed)
    emit_csv(trace, sys.stdout if args.out is None else args.out)
    if trace.termination == BUDGET_EXCEEDED:
        print("bit budget exceeded at step %d" % trace.steps, file=sys.stderr)
        return EXIT_BUDGET
    if trace.termination == MAX_STEPS:
        print("step limit reached without convergence", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    # Both remaining terminations mean the final residual satisfies the
    # tolerance (zero_initial_residual trivially so).
    return EXIT_OK


def _parse_perturbation(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise FormatError("--perturb wants STEP:COMP:DELTA, got %r" % text)
    step, comp = (parse_integer(p, "bad perturbation indices in %r" % text) for p in parts[:2])
    return Perturbation(step, comp, parse_decimal(parts[2]))


def _run_compare(args):
    tE = parse_csv(args.trace_e)
    tDP = parse_csv(args.trace_dp)
    report = compare(tE, tDP, gap=args.gap)
    print(render_report(report))
    return EXIT_OK


def _run_active(args):
    D = read_matrix(args.matrix)
    b = read_vector(args.vector)
    print("m=%d" % count_active(D, b))
    return EXIT_OK


_PARSER = _build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except _HANDLED as exc:
        print("error: %s" % exc, file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())

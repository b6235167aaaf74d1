"""Benchmark of the irmcg pipeline: gen -> solve (exact and f64) -> compare.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload pipeline-rotated --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (single process, BLAS pinned to one thread): see workloads.py.
A run sets up its inputs from --seed (several times; set-up time is the
median plus the import time), warms up on a 3x3 system, then repeats
rounds until --seconds of measured time have passed, checking every
output after each round outside the timed region.

--trace 0 prints the end-to-end metrics:

  setup_s       import time plus the median of the set-ups (generate and
                write the inputs; sweep-rotated also reads them, runs the
                SPD gate and demotes; warm-up)
  wall_s        median wall time of one round
  report_s.p50  median time from a solve through its twin to the compare
                summary: exact, f64, compare per method (pipeline-rotated)
                or configuration (sweep-rotated); cg, cg --no-energy,
                compare (chain-f64)
  solve_s.p50   median time of one solve: the exact ones on the rotated
                workloads, all three CLI calls on chain-f64
  steps_per_s   solver steps completed per second of measured time (on
                sweep-rotated exact steps only: f64 step counts there
                depend on the seed)
  ok_ratio      operations that passed their checks / operations
                attempted; the known f64 failures of sweep-rotated
                (workloads.KNOWN_FAILURES) count against it
  peak_rss_mib  peak resident memory of the process

The result line's "failed" counts operations that failed unexpectedly:
an exception, exit code or output that no check allows.  A known
failure that ends in its documented way is not counted there (it is
the behaviour the checks expect); one that ends any other way is.

The rotated systems differ by about 10% in time from seed to seed, and a
host shared with other work can add as much drift between runs: compare
commits on one seed and re-check a claim on a fresh one.

No percentile above p50 is reported: a run holds too few samples (16
reports on pipeline-rotated, 2 on chain-f64) for any higher percentile
to keep ten samples beyond it.  The sample counts are printed.

--trace 1 instead alternates untraced and traced rounds on the same
systems, traces the set-up once, and prints the per-layer metrics of
one set-up plus one round (round figures are means over the traced
rounds), the tracing overhead and coverage, a self-time table, and per
solve the gate seconds, solve seconds with and without energy, ms per
step and ms per matvec (the ROADMAP baseline table).  Spans are written
to .perfbench_work/spans-<workload>-seed<seed>.jsonl.

--workload all runs every workload untraced and traced, each in its own
process, and ends with one combined JSON line.

A finished run ends its output with one JSON object with the keys
correct, attempted, failed and metrics, and exits 0.  Exit code 2 means
the package could not be imported (no src/irmcg next to this directory).
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread; must be set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("pipeline-rotated", "sweep-rotated", "chain-f64")
SETUP_REPEATS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


def _provenance():
    import numpy
    from irmcg import _kernels

    info = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_installed": _module_present("numba"),
        "symv_kernel": "numba" if _kernels.USING_NUMBA else "numpy",
        "IRMCG_NO_NUMBA": os.environ.get("IRMCG_NO_NUMBA"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    info["cpu"] = _cpu_model()
    info["caches"] = _caches()
    info["commit"] = _commit()
    return info


def _module_present(name):
    import importlib.util
    return importlib.util.find_spec(name) is not None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _caches():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = []
    try:
        for entry in sorted(os.listdir(base)):
            d = os.path.join(base, entry)
            fields = []
            for name in ("level", "type", "size"):
                with open(os.path.join(d, name)) as fh:
                    fields.append(fh.read().strip())
            out.append("L%s %s %s" % tuple(fields))
    except OSError:
        pass
    return out


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _load_pins(seed):
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def tally(rounds):
    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if op.failure is not None]
    unexpected = [op for op in failed if not op.known]
    return ops, failed, unexpected


def _report_failures(failed):
    seen = {}
    for op in failed:
        key = (op.key, op.failure, op.known)
        seen[key] = seen.get(key, 0) + 1
    for (key, mode, known), count in sorted(seen.items()):
        print("%s failure: %s: %s (x%d)" % ("known" if known else "UNEXPECTED", key, mode, count))


def run_round(wl, workloads, index, section=None):
    """One timed round, traced into ``section`` if given, then its checks."""
    rnd = workloads.Round(index)
    with wl.tracer.tracing(section) if section else contextlib.nullcontext():
        t0 = time.perf_counter()
        wl.run_round(rnd)
        rnd.wall = time.perf_counter() - t0
    wl.check_round(rnd)
    return rnd


def _untraced(args, wl, workloads, workdir, import_s):
    setups = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        d = os.path.join(workdir, "setup%d" % rep)
        wl.setup(d)
        wl.warm_up(d)
        setups.append(time.perf_counter() - t0)
    rounds, measured = [], 0.0
    while not rounds or measured < args.seconds:
        rounds.append(run_round(wl, workloads, len(rounds)))
        measured += rounds[-1].wall
    ops, failed, unexpected = tally(rounds)
    reports = [s for r in rounds for s in r.reports]
    solves = [s for r in rounds for s in r.solves]
    steps = sum(wl.rate_steps(op) for op in ops)
    print("rounds=%d measured_s=%.3f import_s=%.4f" % (len(rounds), measured, import_s))
    print("set-up walls: %s" % " ".join("%.4f" % s for s in setups))
    print("round walls: %s" % " ".join("%.4f" % r.wall for r in rounds))
    print("samples: report_s n=%d (max %.4f), solve_s n=%d (max %.4f)" % (
        len(reports), max(reports), len(solves), max(solves)))
    _report_failures(failed)
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "report_s.p50": (statistics.median(reports), "s"),
        "solve_s.p50": (statistics.median(solves), "s"),
        "steps_per_s": (steps / measured, "1/s"),
        "ok_ratio": ((len(ops) - len(failed)) / len(ops), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return not unexpected, len(ops), len(unexpected), metrics


def _traced(args, wl, workloads, workdir, tracer_mod):
    tr = wl.tracer
    setup = tracer_mod.Section("setup")
    t0 = time.perf_counter()
    with tr.tracing(setup):
        wl.setup(os.path.join(workdir, "setup"))
    setup_wall = time.perf_counter() - t0
    wl.warm_up(os.path.join(workdir, "setup"))
    plain, traced, sections, measured = [], [], [], 0.0
    while not traced or measured < args.seconds:
        index = len(traced)
        plain.append(run_round(wl, workloads, index))
        sections.append(tracer_mod.Section("round%d" % index))
        traced.append(run_round(wl, workloads, index, sections[-1]))
        measured += plain[-1].wall + traced[-1].wall
    ops, failed, unexpected = tally(plain + traced)
    _report_failures(failed)

    mean_traced = statistics.fmean(r.wall for r in traced)
    overhead = mean_traced / statistics.fmean(r.wall for r in plain)
    combined = tracer_mod.combine(setup, sections)
    traced_wall = setup_wall + mean_traced
    metrics = tracer_mod.layer_metrics(combined, traced_wall, overhead)

    print("traced: set-up %.4f s + %d rounds (mean %.4f s traced, overhead x%.3f)" % (
        setup_wall, len(traced), mean_traced, overhead))
    print("self time of one set-up plus one round, by span (share of %.3f s traced):"
          % traced_wall)
    for name, calls, self_s in tracer_mod.self_time_table(combined):
        if self_s >= 0.001 * traced_wall:
            print("  %-34s calls=%-10.1f self_s=%-10.4f share=%.3f" % (
                name, calls, self_s, self_s / traced_wall))
    print("per solve (traced, from spans): gate_s solve_s solve_no_energy_s steps "
          "ms_per_step matvecs ms_per_matvec")
    for row in tracer_mod.op_table(tr.records):
        print("  %-46s %.4f %.4f %.4f %4d %.3f %4d %.3f" % (
            row["op"], row["gate_s"], row["solve_s"], row["solve_no_energy_s"], row["steps"],
            row["ms_per_step"], row["matvecs"], row["ms_per_matvec"]))
    print("symv flops and bytes are computed (2n^2 and 8(n(n+1)/2 + 2n) per call), not "
          "measured; the n=1000 packed triangle is 4.0 MB, resident in the L3 (%s), so no "
          "bandwidth ratio is claimed" % ", ".join(c for c in _caches() if c.startswith("L3")))
    spans = os.path.join(ROOT, ".perfbench_work", "spans-%s-seed%d.jsonl" % (
        args.workload, args.seed))
    tr.write(spans)
    print("spans written to %s" % os.path.relpath(spans, ROOT))
    return not unexpected, len(ops), len(unexpected), metrics


def _run_all(args):
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            print("== %s trace=%d" % (name, trace), flush=True)
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s trace=%d exited %d" % (name, trace, done.returncode), file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, m in result["metrics"].items():
                metrics["%s/%s" % (name, key)] = (m["value"], m["unit"])
    _emit(correct, attempted, failed, metrics)
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "irmcg")):
        print("perfbench: no package at %s; run from a checkout of the repository" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print("perfbench: cannot import irmcg: %s" % exc, file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    import tracer as tracer_mod

    print("provenance " + json.dumps(_provenance(), sort_keys=True))
    pins = _load_pins(args.seed)
    print("seed %d: exact traces %s" % (
        args.seed, "checked against pinned SHA-256" if pins else
        "not pinned for this seed; checked by construction and run to run"))
    wl = workloads.WORKLOADS[args.workload](
        args.seed, pins, tracer_mod.Tracer() if args.trace else None)
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = os.path.join(base, "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    try:
        if args.trace:
            result = _traced(args, wl, workloads, workdir, tracer_mod)
        else:
            result = _untraced(args, wl, workloads, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _emit(*result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

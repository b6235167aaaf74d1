"""Span recorder for the traced benchmark run.

The package has no instrumentation of its own, so the benchmark wraps
the public functions of the irmcg modules from outside: every public
function defined in ``cli``, ``solvers``, ``linalg``, ``_kernels``,
``analysis``, ``arithmetic`` and ``benchgen`` (plus ``BitBudget.check``)
is replaced by a timing wrapper in every irmcg namespace that holds
it, so calls made through ``from .linalg import dot`` are caught too.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

A span is one call: name ``<module>.<function>``, start, end, parent
span, and the id of the benchmark operation it belongs to.  Spans nest
strictly (one thread), so a span's self time is its duration minus
the durations of its direct children, and the self times of all spans
add up to the time spent inside wrapped calls.

Per-entry scalar helpers (everything in ``arithmetic``, e.g. one
``demote`` per matrix entry) are called up to half a million times per
solve; they are aggregated (calls, busy and self time per name) but
not kept as individual records.  All other spans are kept in memory
and written out when the run ends.
"""

import contextlib
import functools
import importlib
import json
import os
import time
import types
from collections import defaultdict

MODULES = ("cli", "solvers", "linalg", "_kernels", "analysis", "arithmetic", "benchgen")
AGGREGATE_ONLY_PREFIX = "arithmetic."

VECOPS = ("dot", "vsub", "vscale", "add_scaled", "add_to_entry")
STEPS = ("solvers.cg_step", "solvers.irmcg_step", "solvers.irm_step")
READS = ("linalg.read_matrix", "linalg.read_vector", "linalg.read_matrix_market",
         "linalg.is_matrix_market")
WRITES = ("linalg.write_matrix", "linalg.write_vector")
DEMOTES = ("linalg.demote_matrix", "linalg.demote_vector")


def _lane_of(args):
    for a in args:
        lane = getattr(a, "field", None)
        if lane is not None:
            return lane
    return None


def _file_size(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _max_bits(state):
    vectors = (state.x, state.r, state.p, state.beta)
    return max(
        max(q.numerator.bit_length(), q.denominator.bit_length())
        for v in vectors if v is not None for q in v.data
    )


class Section:
    """Aggregates of one traced stretch (the set-up, or one round)."""

    def __init__(self, label):
        self.label = label
        # (name, tag) -> [calls, busy_ns, self_ns]
        self.stats = defaultdict(lambda: [0, 0, 0])
        self.counters = defaultdict(int)
        self.gated = set()

    def total(self, names, tag=lambda t: True, column=1):
        names = (names,) if isinstance(names, str) else names
        return sum(v[column] for (n, t), v in self.stats.items() if n in names and tag(t))


class Tracer:
    def __init__(self):
        self.records = []  # [name, start_ns, end_ns, parent_record, op, tag, section]
        self.op = None
        self.section = None
        self._stack = []
        self._state = None
        self._patches = []

    # -- wrapping -----------------------------------------------------

    def install(self, section):
        """Start recording into ``section``; wraps every public function."""
        self.section = section
        pkg = importlib.import_module("irmcg")
        modules = [importlib.import_module("irmcg." + m) for m in MODULES]
        canonical = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    canonical[id(obj)] = (short + "." + attr, obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in canonical.items()}
        for mod in [pkg] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        budget = importlib.import_module("irmcg.arithmetic").BitBudget
        self._patches.append((budget, "check", budget.check))
        budget.check = self._wrap("arithmetic.BitBudget.check", budget.check)

    @contextlib.contextmanager
    def tracing(self, section):
        self.install(section)
        try:
            yield
        finally:
            self.uninstall()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.section = None

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        keep = not name.startswith(AGGREGATE_ONLY_PREFIX)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0, parent[1] if parent else -1, name]  # child_ns, record, name
            if keep:
                frame[1] = len(self.records)
                self.records.append([name, 0, 0, parent[1] if parent else -1,
                                     self.op, None, self.section.label])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                self._close(frame, keep, parent, t0, t1, hook, args, None, exc)
                raise
            t1 = clock()
            stack.pop()
            self._close(frame, keep, parent, t0, t1, hook, args, result, None)
            return result

        return wrapper

    def _close(self, frame, keep, parent, t0, t1, hook, args, result, exc):
        dur = t1 - t0
        if parent is not None:
            parent[0] += dur
        tag = type(exc).__name__ if exc is not None else None
        if hook is not None:
            tag = hook(self, args, result, exc, parent[2] if parent else None)
        name = frame[2]
        s = self.section.stats[(name, tag)]
        s[0] += 1
        s[1] += dur
        s[2] += dur - frame[0]
        if keep:
            rec = self.records[frame[1]]
            rec[1], rec[2], rec[5] = t0, t1, tag

    def write(self, path):
        """Write the kept spans as JSON lines (times in microseconds)."""
        base = self.records[0][1] if self.records else 0
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, tag, section) in enumerate(self.records):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "op": op,
                    "section": section, "tag": tag,
                    "start_us": (t0 - base) / 1e3, "dur_us": (t1 - t0) / 1e3,
                }) + "\n")


# -- hooks: run after a span's end time, return the span's tag ------------

def _hook_lane(tr, args, result, exc, parent):
    return _lane_of(args)


def _hook_matvec(tr, args, result, exc, parent):
    caller = "energy" if parent == "linalg.energy" else (
        "solver" if parent and parent.startswith("solvers.") else "other")
    return (_lane_of(args), caller)


def _hook_spd(tr, args, result, exc, parent):
    A = args[0]
    data = A.data.tobytes() if hasattr(A.data, "tobytes") else A.data
    key = (A.field, A.kind, A.n, hash(data))
    if key in tr.section.gated:
        tr.section.counters["spd.repeats"] += 1
    tr.section.gated.add(key)
    return None


def _hook_read(tr, args, result, exc, parent):
    if exc is None:
        tr.section.counters["io.bytes"] += _file_size(args[0])
    return None


def _hook_write(tr, args, result, exc, parent):
    if exc is None:
        tr.section.counters["io.bytes"] += _file_size(args[1])
    return None


def _hook_symv(tr, args, result, exc, parent):
    n = args[1].shape[0]
    tr.section.counters["symv.flops"] += 2 * n * n
    tr.section.counters["symv.bytes"] += 8 * (n * (n + 1) // 2 + 2 * n)
    return None


def _hook_state(tr, args, result, exc, parent):
    if exc is None:
        tr._state = result
        return "ok"
    return type(exc).__name__


def _hook_solve(tr, args, result, exc, parent):
    state, tr._state = tr._state, None
    if state is not None and state.x.field == "exact":
        c = tr.section.counters
        c["exact.max_bits"] = max(c["exact.max_bits"], _max_bits(state))
    return None if exc is None else type(exc).__name__


def _hook_emit(tr, args, result, exc, parent):
    if exc is None:
        tr.section.counters["csv.bytes"] += _file_size(args[1])
    return None


def _hook_parse(tr, args, result, exc, parent):
    if exc is None:
        tr.section.counters["csv.bytes"] += _file_size(args[0])
    return None


def _hook_compare(tr, args, result, exc, parent):
    if exc is None:
        tr.section.counters["compare.delta_steps"] += result.delta_steps
    return None


_HOOKS = {
    "linalg.matvec": _hook_matvec,
    "linalg.spd_check": _hook_spd,
    "_kernels.symv_packed": _hook_symv,
    "solvers.init": _hook_state,
    "solvers.solve": _hook_solve,
    "analysis.emit_csv": _hook_emit,
    "analysis.parse_csv": _hook_parse,
    "analysis.compare": _hook_compare,
}
_HOOKS.update({"linalg." + v: _hook_lane for v in VECOPS})
_HOOKS.update({s: _hook_state for s in STEPS})
_HOOKS.update({r: _hook_read for r in READS if r != "linalg.is_matrix_market"})
_HOOKS.update({w: _hook_write for w in WRITES})


# -- per-layer metrics ------------------------------------------------------

def combine(setup, rounds):
    """One set-up plus the mean of the traced rounds, as one Section."""
    out = Section("setup+round")
    for sec, weight in [(setup, 1.0)] + [(r, 1.0 / len(rounds)) for r in rounds]:
        for key, (calls, busy, self_ns) in sec.stats.items():
            s = out.stats[key]
            s[0] += calls * weight
            s[1] += busy * weight
            s[2] += self_ns * weight
        for key, value in sec.counters.items():
            if key == "exact.max_bits":
                out.counters[key] = max(out.counters[key], value)
            else:
                out.counters[key] += value * weight
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(sec, traced_wall_s, overhead_ratio):
    """The per-layer metrics of BENCHMARK.json from a combined Section."""
    ns = 1e-9
    c = sec.counters
    vec_names = tuple("linalg." + v for v in VECOPS)
    step_calls = sec.total(STEPS, column=0)
    ok_steps = sec.total(STEPS, tag=lambda t: t == "ok", column=0)
    symv_bytes = c["symv.bytes"]
    all_self = sum(v[2] for v in sec.stats.values())
    m = {
        "linalg.spd_check.calls": (sec.total("linalg.spd_check", column=0), "count"),
        "linalg.spd_check.busy_s": (sec.total("linalg.spd_check") * ns, "s"),
        "linalg.spd_check.repeat_ratio": (
            _ratio(c["spd.repeats"], sec.total("linalg.spd_check", column=0)), "ratio"),
        "linalg.matvec.calls.exact": (
            sec.total("linalg.matvec", tag=lambda t: t[0] == "exact", column=0), "count"),
        "linalg.matvec.calls.f64": (
            sec.total("linalg.matvec", tag=lambda t: t[0] == "f64", column=0), "count"),
        "linalg.matvec.exact.busy_s": (
            sec.total("linalg.matvec", tag=lambda t: t[0] == "exact") * ns, "s"),
        "linalg.matvec.f64.self_s": (
            sec.total("linalg.matvec", tag=lambda t: t[0] == "f64", column=2) * ns, "s"),
        "linalg.matvec.calls.energy": (
            sec.total("linalg.matvec", tag=lambda t: t[1] == "energy", column=0), "count"),
        "linalg.matvec.calls.solver": (
            sec.total("linalg.matvec", tag=lambda t: t[1] == "solver", column=0), "count"),
        "kernels.symv_packed.calls": (sec.total("_kernels.symv_packed", column=0), "count"),
        "kernels.symv_packed.busy_s": (sec.total("_kernels.symv_packed") * ns, "s"),
        "kernels.symv_packed.flops_computed": (c["symv.flops"], "flop"),
        "kernels.symv_packed.bytes_computed": (symv_bytes, "byte"),
        "kernels.symv_packed.flops_per_byte": (_ratio(c["symv.flops"], symv_bytes), "flop/byte"),
        "linalg.vecops.calls": (sec.total(vec_names, column=0), "count"),
        "linalg.vecops.exact.busy_s": (
            sec.total(vec_names, tag=lambda t: t == "exact") * ns, "s"),
        "linalg.vecops.f64.busy_s": (sec.total(vec_names, tag=lambda t: t == "f64") * ns, "s"),
        "linalg.small_solve.calls": (sec.total("linalg.small_solve", column=0), "count"),
        "linalg.small_solve.busy_s": (sec.total("linalg.small_solve") * ns, "s"),
        "linalg.energy.calls": (sec.total("linalg.energy", column=0), "count"),
        "linalg.energy.self_s": (sec.total("linalg.energy", column=2) * ns, "s"),
        "linalg.io.read_s": (sec.total(READS) * ns, "s"),
        "linalg.io.write_s": (sec.total(WRITES) * ns, "s"),
        "linalg.io.bytes": (c["io.bytes"], "byte"),
        "linalg.demote.busy_s": (sec.total(DEMOTES) * ns, "s"),
        "arithmetic.bit_budget.calls": (sec.total("arithmetic.BitBudget.check", column=0), "count"),
        "arithmetic.bit_budget.busy_s": (sec.total("arithmetic.BitBudget.check") * ns, "s"),
        "exact.max_bits": (c["exact.max_bits"], "bit"),
        "solvers.steps": (ok_steps, "count"),
        "solvers.step.self_s": (sec.total(STEPS, column=2) * ns, "s"),
        "solvers.init.self_s": (sec.total("solvers.init", column=2) * ns, "s"),
        "solvers.solve.self_s": (sec.total("solvers.solve", column=2) * ns, "s"),
        "solvers.discarded_step_s": (
            sec.total(STEPS, tag=lambda t: t == "BudgetExceeded") * ns, "s"),
        "solvers.useful_step_ratio": (_ratio(ok_steps, step_calls), "ratio"),
        "analysis.emit_csv.busy_s": (sec.total("analysis.emit_csv") * ns, "s"),
        "analysis.parse_csv.busy_s": (sec.total("analysis.parse_csv") * ns, "s"),
        "analysis.compare.busy_s": (sec.total("analysis.compare") * ns, "s"),
        "analysis.csv.bytes": (c["csv.bytes"], "byte"),
        "analysis.compare.delta_steps": (c["compare.delta_steps"], "count"),
        "benchgen.gen_rotated.busy_s": (sec.total("benchgen.gen_rotated") * ns, "s"),
        "benchgen.gen_spring_chain.busy_s": (sec.total("benchgen.gen_spring_chain") * ns, "s"),
        "cli.self_s": (
            sum(v[2] for (n, _), v in sec.stats.items() if n.startswith("cli.")) * ns, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.coverage": (_ratio(all_self * ns, traced_wall_s), "ratio"),
    }
    return m


def self_time_table(sec):
    """(name, calls, self_s) for every span name, largest self time first."""
    rows = defaultdict(lambda: [0, 0])
    for (name, _), (calls, _, self_ns) in sec.stats.items():
        rows[name][0] += calls
        rows[name][1] += self_ns * 1e-9
    return sorted(((n, c, s) for n, (c, s) in rows.items()), key=lambda r: -r[2])


def op_table(records):
    """Per solve operation: gate, solve with and without energy, steps, matvecs.

    Built from the kept span records of the traced rounds; figures
    include the tracing overhead.
    """
    per_op = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for name, t0, t1, _, op, tag, section in records:
        if op is None or section == "setup":
            continue
        key = name if name not in STEPS or tag == "ok" else name + ".failed"
        agg = per_op[op][key]
        agg[0] += 1
        agg[1] += t1 - t0
    rows = []
    for op, agg in per_op.items():
        if "solvers.solve" not in agg:
            continue
        gate = agg["linalg.spd_check"][1] * 1e-9
        solve = agg["solvers.solve"][1] * 1e-9 - gate
        energy = agg["linalg.energy"][1] * 1e-9
        steps = sum(agg[s][0] for s in STEPS)
        matvecs, matvec_ns = agg["linalg.matvec"]
        rows.append({
            "op": op, "gate_s": gate, "solve_s": solve, "solve_no_energy_s": solve - energy,
            "steps": steps, "ms_per_step": _ratio(solve * 1e3, steps),
            "matvecs": matvecs, "ms_per_matvec": _ratio(matvec_ns * 1e-6, matvecs),
        })
    return rows

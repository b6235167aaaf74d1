"""Convergence traces, trace comparison, and CSV emission.

A trace records one solver run: per-step squared residuals (kept in the
run's own arithmetic, so exact runs stay exact), energies, refresh and
perturbation flags, and the termination reason.  Comparison pairs an
exact trace with a double trace of the same configuration and reports
where the two relative-norm curves separate.
"""

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .arithmetic import (
    EXACT,
    F64,
    demote,
    format_double,
    format_rational,
    parse_double,
    parse_integer,
    parse_rational,
)
from .errors import (
    DiagonalRequired,
    DimensionError,
    FormatError,
    IncomparableTraces,
    ZeroInitialResidual,
)
from .linalg import DIAGONAL, read_text, write_text

E_TAG = "E"
DP_TAG = "DP"

CONVERGED = "converged"
MAX_STEPS = "max_steps"
BUDGET_EXCEEDED = "budget_exceeded"
ZERO_INITIAL_RESIDUAL = "zero_initial_residual"
TERMINATIONS = (CONVERGED, MAX_STEPS, BUDGET_EXCEEDED, ZERO_INITIAL_RESIDUAL)

_CSV_HEADER = "step,rr,energy,refreshed,perturbed"
_PREAMBLE_KEYS = (
    "method",
    "arith",
    "omega",
    "epsilon",
    "refresh_k",
    "max_steps",
    "seed",
    "termination",
)


# Each arithmetic tag's lane, and the writer and reader of its scalars.
_CODECS = {
    E_TAG: (EXACT, format_rational, parse_rational),
    DP_TAG: (F64, format_double, parse_double),
}


def tag_for(field):
    return E_TAG if field == EXACT else DP_TAG


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One row of a trace: state after step i (row 0 is the start)."""

    i: int
    rr: object
    energy: object
    refreshed: bool
    perturbed: bool

    def __post_init__(self):
        if not self.rr >= 0:  # NaN too
            raise ValueError("rr must be nonnegative")


def _column(values):
    """array('d') when every value is a float, else a tuple."""
    if all(type(v) is float for v in values):
        return array("d", values)
    return tuple(values)


class Records(Sequence):
    """A trace's rows, held by column; row k is read as StepRecord k.

    An f64 run keeps one row per step, up to max_steps of them: its rr
    and energy columns are array('d'), 8 bytes a value, in place of a
    float object each and a record object per row.  Exact columns are
    tuples of Fractions.
    """

    __slots__ = ("_rr", "_energy", "_flags")

    def __init__(self, records):
        records = tuple(records)
        for pos, rec in enumerate(records):
            if rec.i != pos:
                raise ValueError("records must be consecutively indexed from 0")
        self._rr = _column([rec.rr for rec in records])
        self._energy = _column([rec.energy for rec in records])
        self._flags = bytes(rec.refreshed + 2 * rec.perturbed for rec in records)

    def _row(self, k):
        flags = self._flags[k]
        return StepRecord(k, self._rr[k], self._energy[k], bool(flags & 1), bool(flags & 2))

    def __len__(self):
        return len(self._flags)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self._row, range(len(self))[k]))
        return self._row(range(len(self))[k])

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (Records, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return "Records(%r)" % (tuple(self),)


@dataclass(frozen=True)
class ConvergenceTrace:
    method: str
    arith: str
    omega: object
    epsilon: object
    refresh_k: int
    max_steps: int
    seed: int
    termination: str
    records: Records

    def __post_init__(self):
        if self.arith not in _CODECS:
            raise ValueError("arith must be %r or %r" % (E_TAG, DP_TAG))
        if self.termination not in TERMINATIONS:
            raise ValueError("unknown termination %r" % self.termination)
        object.__setattr__(self, "records", Records(self.records))

    @property
    def field(self):
        return _CODECS[self.arith][0]

    @property
    def steps(self):
        """Index of the last recorded state (0 for an unstarted run)."""
        return self.records[-1].i if self.records else 0


def relative_norms(t):
    """Per-record sqrt(rr_i / rr_0) as doubles; entry 0 is 1.0.

    Exact records divide first in rational arithmetic and convert the
    ratio once, so a terminated exact run ends in exactly 0.0.
    """
    if not t.records:
        raise ZeroInitialResidual("trace has no records")
    rr0 = t.records[0].rr
    if rr0 == 0:
        raise ZeroInitialResidual("r0 = 0; relative norms undefined")
    return [1.0] + [math.sqrt(demote(rec.rr / rr0)) for rec in t.records[1:]]


def count_active(D, b):
    """Number of distinct diagonal values carrying a nonzero b-component.

    Repeated diagonal values count once; values whose every component of
    b is zero do not count at all.  This is the step count at which the
    exact methods terminate on a diagonal system.
    """
    if D.kind != DIAGONAL:
        raise DiagonalRequired("count_active needs the diagonal representation")
    if D.n != len(b):
        raise DimensionError("matrix order %d vs vector length %d" % (D.n, len(b)))
    return len({d for d, be in zip(D.diag(), b.data) if be != 0})


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of pairing an exact trace with a double trace."""

    pairs: tuple
    divergence_step: object
    exact_steps: int
    dp_steps: int
    delta_steps: int
    termination_mismatch: bool
    dp_below_exact: bool
    gap: float


def compare(tE, tDP, gap=1.0):
    """Pair two traces of one configuration and locate their divergence.

    The traces must agree on method, omega and epsilon (arithmetic tag,
    refresh period, step cap and seed may differ; those are exactly the
    knobs a cross-arithmetic comparison varies).  Divergence is the
    first step where the relative norms differ by more than `gap`
    decades; a zero norm against a nonzero one counts as divergent.
    A negative or non-finite gap is a ValueError.
    """
    if not (math.isfinite(gap) and gap >= 0):
        raise ValueError("gap must be a finite number of decades >= 0, got %r" % gap)
    if tE.method != tDP.method:
        raise IncomparableTraces("method %r vs %r" % (tE.method, tDP.method))
    for name in ("omega", "epsilon"):
        a, b = demote(getattr(tE, name)), demote(getattr(tDP, name))
        if a != b:
            raise IncomparableTraces("%s %r vs %r" % (name, a, b))
    normsE = relative_norms(tE)
    normsDP = relative_norms(tDP)
    pairs = []
    divergence = None
    below = False
    for i in range(min(len(normsE), len(normsDP))):
        nE, nDP = normsE[i], normsDP[i]
        pairs.append((i, nE, nDP))
        if nDP < nE:
            below = True
        if divergence is None and _diverged(nE, nDP, gap):
            divergence = i
    return ComparisonReport(
        pairs=tuple(pairs),
        divergence_step=divergence,
        exact_steps=tE.steps,
        dp_steps=tDP.steps,
        delta_steps=tDP.steps - tE.steps,
        termination_mismatch=tE.termination != tDP.termination,
        dp_below_exact=below,
        gap=gap,
    )


def _diverged(nE, nDP, gap):
    if nE == 0.0 and nDP == 0.0:
        return False
    if nE == 0.0 or nDP == 0.0:
        return True
    return abs(math.log10(nE / nDP)) > gap


def _flag(cell):
    """A refreshed or perturbed cell: emit_csv writes only 0 or 1."""
    if cell not in ("0", "1"):
        raise ValueError("flag must be 0 or 1, got %r" % cell)
    return cell == "1"


def emit_csv(t, destination):
    """Write a trace as CSV with a '#' preamble; byte-deterministic.

    Exact scalars are serialized as num/den so nothing is lost; double
    scalars use shortest round-trip decimals.  `destination` is a path
    or a file-like object with write().
    """
    write = _CODECS[t.arith][1]
    lines = []
    for key in _PREAMBLE_KEYS:
        value = getattr(t, key)
        if key in ("omega", "epsilon"):
            value = "" if value is None else write(value)
        lines.append("# %s %s" % (key, value))
    lines.append(_CSV_HEADER)
    for rec in t.records:
        lines.append(
            "%d,%s,%s,%d,%d"
            % (
                rec.i,
                write(rec.rr),
                "" if rec.energy is None else write(rec.energy),
                1 if rec.refreshed else 0,
                1 if rec.perturbed else 0,
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        write_text(destination, text)


def parse_csv(source):
    """Inverse of emit_csv; returns the trace it describes."""
    text = source.read() if hasattr(source, "read") else read_text(source)
    meta = {}
    rows = []
    saw_header = False
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split(None, 1)
            if not parts:
                raise FormatError("empty preamble line")
            meta[parts[0]] = parts[1] if len(parts) > 1 else ""
            continue
        if not saw_header:
            if line != _CSV_HEADER:
                raise FormatError("unexpected header %r" % line)
            saw_header = True
            continue
        rows.append(line)
    missing = [k for k in _PREAMBLE_KEYS if k not in meta]
    if missing:
        raise FormatError("preamble is missing %s" % ", ".join(missing))
    if not saw_header:
        raise FormatError("missing column header")
    arith = meta["arith"]
    if arith not in _CODECS:
        raise FormatError("unknown arithmetic tag %r" % arith)
    read = _CODECS[arith][2]
    records = []
    for line in rows:
        cells = line.split(",")
        if len(cells) != 5:
            raise FormatError("expected 5 fields, got %r" % line)
        if not cells[1]:
            raise FormatError("bad row %r: rr is empty" % line)
        try:
            records.append(
                StepRecord(
                    i=parse_integer(cells[0]),
                    rr=read(cells[1]),
                    energy=read(cells[2]) if cells[2] else None,
                    refreshed=_flag(cells[3]),
                    perturbed=_flag(cells[4]),
                )
            )
        except (ValueError, FormatError) as exc:
            raise FormatError("bad row %r: %s" % (line, exc)) from None
    try:
        return ConvergenceTrace(
            method=meta["method"],
            arith=arith,
            omega=read(meta["omega"]) if meta["omega"] else None,
            epsilon=read(meta["epsilon"]) if meta["epsilon"] else None,
            refresh_k=parse_integer(meta["refresh_k"]),
            max_steps=parse_integer(meta["max_steps"]),
            seed=parse_integer(meta["seed"]),
            termination=meta["termination"],
            records=records,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def render_report(report):
    """Human-readable table plus the machine-readable summary line."""
    lines = ["step  norm_E        norm_DP"]
    for i, nE, nDP in report.pairs:
        lines.append("%4d  %-12.6g  %-12.6g" % (i, nE, nDP))
    lines.append(
        "exact_steps=%d dp_steps=%d termination_mismatch=%s dp_below_exact=%s"
        % (
            report.exact_steps,
            report.dp_steps,
            report.termination_mismatch,
            report.dp_below_exact,
        )
    )
    div = "none" if report.divergence_step is None else str(report.divergence_step)
    lines.append("divergence_step=%s delta_steps=%d" % (div, report.delta_steps))
    return "\n".join(lines)

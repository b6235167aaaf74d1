"""Iterative energy-minimizing solvers for SPD systems.

Three methods run on two step functions:

* ``cg`` (``cg_step``) -- classical conjugate gradients (line search +
  conjugation), in the generalized form that tolerates an arbitrarily
  scaled starting increment.
* ``irm`` and ``irm-cg`` (``irm_step``) -- one Ritz step: energy
  minimization over a small subspace, whose projected (Ritz) system is
  solved with one elimination that also decides which directions to
  keep (while the system is singular the last direction is dropped).
  ``irm`` takes one or two directions from a coordinate-vector
  generator, each with a fresh image.  ``irm-cg`` is its special case
  on span{r, p} with a single matrix-vector product per recursive
  step: the new residual is obtained by recurrence, alpha = A r is the
  only fresh product, and beta = A p is carried along as a linear
  combination; under relaxation the p row of its right-hand side is
  weighted by omega.

All methods run under either scalar backend.  In exact arithmetic the
recurrences are identities, so ``cg`` and ``irm-cg`` produce the same
iterates at omega = 1 and terminate with an exactly zero residual after
m steps, m being the number of distinct eigenvalues that carry a
nonzero component of b.

Every step starts from the state (i, x, r, p, beta) and produces the
next one.  The step with loop counter i recomputes the residual from
scratch when i mod refresh_k == 0 (so the first step always does) and
updates it recursively otherwise.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .analysis import (
    BUDGET_EXCEEDED,
    CONVERGED,
    MAX_STEPS,
    ZERO_INITIAL_RESIDUAL,
    ConvergenceTrace,
    StepRecord,
    tag_for,
)
from .arithmetic import EXACT, BitBudget, as_integer, demote
from .errors import (
    BudgetExceeded,
    DimensionError,
    GeneratorError,
    NumericalBreakdown,
    SingularRitzSystem,
)
from .linalg import (
    Vector,
    add_scaled,
    add_to_entry,
    dot,
    energy,
    ensure_spd,
    matvec,
    small_solve,
    vscale,
    vsub,
)

CG = "cg"
IRM_CG = "irm-cg"
IRM = "irm"
METHODS = (CG, IRM_CG, IRM)

GEN_RESIDUAL = "residual-only"
GEN_RESIDUAL_INCREMENT = "residual+increment"
GEN_JACOBI = "jacobi-residual+increment"
GENERATORS = (GEN_RESIDUAL, GEN_RESIDUAL_INCREMENT, GEN_JACOBI)

# Refresh defaults: recursive updates are exact under the rational
# backend, so refresh is effectively disabled there; doubles accumulate
# roundoff and get a short period.
DEFAULT_REFRESH_EXACT = 2**31 - 1
DEFAULT_REFRESH_F64 = 50


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; omega and epsilon may be given in any numeric type.

    refresh_k and max_steps default to None and are filled in by
    ``resolved`` (per-backend refresh, 100 n step cap).  The step
    functions expect a resolved config.
    """

    method: str = IRM_CG
    omega: object = 1
    epsilon: object = 0
    refresh_k: object = None
    max_steps: object = None
    generator: str = GEN_RESIDUAL_INCREMENT
    bit_budget: BitBudget = BitBudget()
    record_energy: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError("unknown method %r" % self.method)
        if self.generator not in GENERATORS:
            raise ValueError("unknown generator %r" % self.generator)
        if not 0 < self.omega < 2:
            raise ValueError("omega must lie in the open interval (0, 2)")
        if not self.epsilon >= 0:  # NaN too: rr <= NaN never converges
            raise ValueError("epsilon must be nonnegative")
        if self.method == CG and self.omega != 1:
            raise ValueError("cg ignores relaxation; omega must be 1")
        if self.method != IRM and self.generator != GEN_RESIDUAL_INCREMENT:
            raise ValueError(
                "%s ignores the generator; generator must be %r"
                % (self.method, GEN_RESIDUAL_INCREMENT)
            )
        for name in ("refresh_k", "max_steps"):
            value = getattr(self, name)
            if value is not None:
                if not value >= 1:  # NaN too
                    raise ValueError("%s must be >= 1" % name)
                object.__setattr__(self, name, as_integer(value, name))

    def resolved(self, field, n):
        """Copy with backend-typed scalars and concrete defaults."""
        scalar = Fraction if field == EXACT else demote
        refresh = DEFAULT_REFRESH_EXACT if field == EXACT else DEFAULT_REFRESH_F64
        return replace(
            self,
            omega=scalar(self.omega),
            epsilon=scalar(self.epsilon),
            refresh_k=self.refresh_k if self.refresh_k is not None else refresh,
            max_steps=self.max_steps if self.max_steps is not None else 100 * n,
        )


@dataclass
class SolverState:
    """State after step i; owned by exactly one run.

    beta caches A p for the methods that carry it (irm-cg, irm); cg
    recomputes A p each step and leaves beta as None until a converged
    state, where p and beta are zero for every method.  refreshed tells
    whether this state's residual came from full recomputation.  rr is
    r . r as ``init`` or the step that made r formed it (None on a state
    built without it).
    """

    i: int
    x: Vector
    r: Vector
    p: Vector
    beta: object
    rr0: object
    converged: bool = False
    refreshed: bool = True
    rr: object = None


@dataclass(frozen=True)
class Perturbation:
    """delta added to one 1-based component of p after step step_index."""

    step_index: int
    component_index: int
    delta: object

    def __post_init__(self):
        if self.step_index < 0:
            raise ValueError("step_index must be nonnegative")
        if self.component_index < 1:
            raise ValueError("component_index is 1-based")
        for name in ("step_index", "component_index"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))


def _check_budget(state, cfg):
    """BudgetExceeded for the first entry of x, r, p, beta past the budget.

    Entry num/den in lowest terms has no more bits than num and den, so
    a vector whose den and widest numerator fit is within the budget;
    only one that does not is checked entry by entry.
    """
    if state.x.field != EXACT:
        return
    budget = cfg.bit_budget
    for vec in (state.x, state.r, state.p, state.beta):
        if vec is None:
            continue
        nums = vec.num.tolist()
        if max(vec.den.bit_length(), *map(int.bit_length, nums)) > budget.max_bits:
            for num in nums:
                budget.check(Fraction(num, vec.den))


def init(A, b, x0, budget=BitBudget()):
    """Steepest-descent initialisation shared by all three methods.

    r0 = b - A x0; p0 = q r0 with q = (r0.r0)/(r0.A r0); beta0 = q (A r0)
    comes for free from the q computation.  A zero initial residual
    marks the state converged without evaluating q.  ``budget`` bounds
    the exact SPD check of A (BudgetExceeded past it).
    """
    ensure_spd(A, budget)
    if A.n != len(b) or A.n != len(x0):
        raise DimensionError("system dimensions do not agree")
    r0 = vsub(b, matvec(A, x0))
    rr0 = dot(r0, r0)
    n, field = A.n, A.field
    if rr0 == 0:
        zero = Vector.zeros(n, field)
        return SolverState(0, x0, r0, zero, zero, rr0, converged=True, rr=rr0)
    Ar0 = matvec(A, r0)
    rAr = dot(r0, Ar0)
    if rAr <= 0:
        raise NumericalBreakdown("r0.A r0 = %r with a nonzero residual" % rAr)
    q = rr0 / rAr
    return SolverState(0, x0, r0, vscale(q, r0), vscale(q, Ar0), rr0, rr=rr0)


def _advance_x_r(state, A, b, cfg, step, image):
    # Shared x/r update: x + step p, and r - step image unless the loop
    # counter state.i calls for the true residual.
    x1 = add_scaled(state.x, step, state.p)
    refreshed = state.i % cfg.refresh_k == 0
    if refreshed:
        r1 = vsub(b, matvec(A, x1))
    else:
        r1 = add_scaled(state.r, -step, image)
    return x1, r1, refreshed


def _converged_state(state, x1, r1, refreshed, rr):
    zero = Vector.zeros(len(x1), x1.field)
    return SolverState(
        state.i + 1, x1, r1, zero, zero, state.rr0,
        converged=True, refreshed=refreshed, rr=rr,
    )


def _ritz_update(dirs, images, gram, rhs, field):
    """Subspace minimizer over the leading independent directions.

    Solves the projected system gram a = rhs on dirs[:m], dropping the
    last direction while the system is singular, and returns the
    increment sum a_j dirs[j] with its A-image sum a_j images[j].
    Returns None when even the first direction is dependent.
    """
    for m in range(len(dirs), 0, -1):
        try:
            a = small_solve([row[:m] for row in gram[:m]], rhs[:m], field)
        except SingularRitzSystem:
            continue
        p1 = vscale(a[0], dirs[0])
        beta1 = vscale(a[0], images[0])
        for coeff, f, Af in zip(a[1:], dirs[1:], images[1:]):
            p1 = add_scaled(p1, coeff, f)
            beta1 = add_scaled(beta1, coeff, Af)
        return p1, beta1
    return None


def cg_step(state, A, b, cfg):
    """One classical conjugate-gradient step.

    Generalized line search alpha = (p.r)/(p.A p) so the scaled initial
    increment from ``init`` is handled; conjugation uses
    beta = -(r_new.A p)/(p.A p).  Shares the refresh and termination
    conventions of the other methods.
    """
    if state.converged:
        raise ValueError("cannot step a converged state")
    Ap = matvec(A, state.p)
    pAp = dot(state.p, Ap)
    if pAp == 0:
        raise NumericalBreakdown("p.A p = 0 while the residual is nonzero")
    al = dot(state.p, state.r) / pAp
    x1, r1, refreshed = _advance_x_r(state, A, b, cfg, al, Ap)
    rr = dot(r1, r1)
    if rr == 0:
        return _converged_state(state, x1, r1, refreshed, rr)
    be = -dot(r1, Ap) / pAp
    p1 = add_scaled(r1, be, state.p)
    new = SolverState(state.i + 1, x1, r1, p1, None, state.rr0, refreshed=refreshed, rr=rr)
    _check_budget(new, cfg)
    return new


def _directions(generator, r, p, A):
    """The nonzero coordinate vectors of one generic IRM step: one or two.

    The generator runs on the updated residual r and the old increment
    p; the Ritz solve filters out dependent ones.
    """
    if generator == GEN_RESIDUAL:
        cand = [r]
    elif generator == GEN_RESIDUAL_INCREMENT:
        cand = [r, p]
    else:
        cand = [Vector(r.data / np.asarray(A.diag()), r.field), p]
    out = [v for v in cand if not v.is_zero()]
    if not out:
        raise GeneratorError("generator %r emitted no nonzero vectors" % generator)
    return out


def irm_step(state, A, b, cfg):
    """One Ritz step of irm-cg or irm, as cfg.method says.

    After the x/r update the step minimizes the energy over directions
    phi: [r, p] for irm-cg, with images alpha = A r (fresh) and
    beta = A p (carried), or the generated directions for irm, each
    with a fresh image.  The projected system, Gram entries
    phi_i.A phi_j and right side phi_j.r, is solved on the leading
    directions, the last one being dropped while it is singular (A
    being SPD, exactly when the kept directions are dependent).  irm-cg
    weights the p row of the right side by omega; the term vanishes at
    omega = 1, where r is orthogonal to p.  The new increment and its
    A-image are the matching combinations, so beta = A p stays cached.
    """
    if state.converged:
        raise ValueError("cannot step a converged state")
    x1, r1, refreshed = _advance_x_r(state, A, b, cfg, cfg.omega, state.beta)
    rr = dot(r1, r1)
    if rr == 0:
        return _converged_state(state, x1, r1, refreshed, rr)
    if cfg.method == IRM_CG:
        phi, images = [r1, state.p], [matvec(A, r1), state.beta]
    else:
        phi = _directions(cfg.generator, r1, state.p, A)
        images = [matvec(A, f) for f in phi]
    # Entry (i, j) is phi_min(i,j) . A phi_max(i,j), so the Gram matrix is
    # symmetric bit for bit in f64 too.
    m = len(phi)
    gram = [[None] * m for _ in range(m)]
    for j in range(m):
        for i in range(j + 1):
            gram[i][j] = gram[j][i] = dot(phi[i], images[j])
    rhs = [rr if f is r1 else dot(f, r1) for f in phi]
    if cfg.method == IRM_CG:
        rhs[1] = cfg.omega * rhs[1]
    update = _ritz_update(phi, images, gram, rhs, x1.field)
    if update is None:
        if cfg.method == IRM_CG:
            raise NumericalBreakdown("r.A r vanished with a nonzero residual")
        raise GeneratorError("all generated vectors were dependent or zero")
    new = SolverState(state.i + 1, x1, r1, *update, state.rr0, refreshed=refreshed, rr=rr)
    _check_budget(new, cfg)
    return new


def _apply_perturbations(state, A, perturbations, index):
    hit = False
    for pert in perturbations:
        if pert.step_index != index:
            continue
        if pert.component_index > len(state.p):
            raise DimensionError(
                "perturbation component %d exceeds n = %d"
                % (pert.component_index, len(state.p))
            )
        state.p = add_to_entry(state.p, pert.component_index - 1, pert.delta)
        hit = True
    if hit and state.beta is not None:
        # Keep the cached A p image truthful after the injection.
        state.beta = matvec(A, state.p)
    return hit


# An f64 overflow is reported once, by the lane's own finiteness checks
# (InvalidScalar); NumPy's warnings about it would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def solve(A, b, x0=None, cfg=None, perturbations=(), seed=0, observer=None):
    """Run the configured method until convergence or a stop condition.

    Convergence is tested on squared quantities, rr <= epsilon^2 rr0,
    which is exact under the rational backend.  Each perturbation fires
    right after the step whose index it names (index 0 fires on the
    initial increment).  ``observer``, if given, is called with
    (previous_state, new_state) after every completed step; it is an
    instrumentation hook and has no effect on the run.

    Returns (x, trace).  The trace ends with termination ``converged``,
    ``max_steps``, ``budget_exceeded`` (the offending step is
    discarded), or ``zero_initial_residual`` (empty record list).
    """
    seed = as_integer(seed, "seed")
    if cfg is None:
        cfg = SolverConfig()
    if x0 is None:
        x0 = Vector.zeros(A.n, A.field)
    rcfg = cfg.resolved(A.field, A.n)
    step = cg_step if rcfg.method == CG else irm_step

    def trace_for(termination, records):
        return ConvergenceTrace(
            method=rcfg.method,
            arith=tag_for(A.field),
            omega=rcfg.omega,
            epsilon=rcfg.epsilon,
            refresh_k=rcfg.refresh_k,
            max_steps=rcfg.max_steps,
            seed=seed,
            termination=termination,
            records=records,
        )

    state = init(A, b, x0, rcfg.bit_budget)
    if state.converged and state.i == 0:
        return state.x, trace_for(ZERO_INITIAL_RESIDUAL, [])
    hit0 = _apply_perturbations(state, A, perturbations, 0)
    threshold = rcfg.epsilon * rcfg.epsilon * state.rr0

    def record_of(st, hit):
        # Every exact state's r is exactly b - A x, so its energy needs no
        # matvec; perturbations leave r, and so st.rr, as the step made them.
        e = energy(A, b, st.x, st.r) if rcfg.record_energy else None
        return StepRecord(st.i, st.rr, e, st.refreshed, hit)

    records = [record_of(state, hit0)]
    while True:
        if state.rr <= threshold:
            termination = CONVERGED
            break
        if state.i >= rcfg.max_steps:
            termination = MAX_STEPS
            break
        previous = state
        try:
            state = step(state, A, b, rcfg)
        except BudgetExceeded:
            termination = BUDGET_EXCEEDED
            break
        hit = _apply_perturbations(state, A, perturbations, state.i)
        if observer is not None:
            observer(previous, state)
        records.append(record_of(state, hit))
    return state.x, trace_for(termination, records)

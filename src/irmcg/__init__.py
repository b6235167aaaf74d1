"""Exact-rational and double-precision iterative solvers for SPD systems.

The package pairs conjugate gradients with its subspace reformulation
(IRM-CG and the generic iterated Ritz method) under two interchangeable
scalar backends, fabricates benchmark systems with exactly known
spectra, and captures per-step convergence traces for exact-vs-float
comparison.
"""

from .analysis import (
    ComparisonReport,
    ConvergenceTrace,
    StepRecord,
    compare,
    count_active,
    emit_csv,
    parse_csv,
    relative_norms,
)
from .arithmetic import EXACT, F64, BitBudget, demote, rationalize, snap_zero
from .benchgen import (
    RotationPlan,
    SpectrumSpec,
    gen_diagonal,
    gen_inverse,
    gen_rotated,
    gen_spring_chain,
    random_plan,
)
from .linalg import (
    SymmetricMatrix,
    Vector,
    condition_estimate,
    energy,
    matvec,
    small_solve,
    spd_check,
)
from .solvers import (
    Perturbation,
    SolverConfig,
    SolverState,
    cg_step,
    init,
    irm_step,
    solve,
)

__version__ = "0.1.0"

import random
import warnings
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import irmcg.linalg as linalg_module
import irmcg.solvers as solvers_module
from irmcg.arithmetic import BitBudget, EXACT, F64
from irmcg.benchgen import (
    RHS_RANDOM,
    SpectrumSpec,
    gen_diagonal,
    gen_rotated,
    gen_spring_chain,
    random_plan,
)
from irmcg.errors import (
    BudgetExceeded,
    DimensionError,
    GeneratorError,
    InvalidScalar,
    NotSPD,
    NumericalBreakdown,
    ScalarOverflow,
)
from irmcg.linalg import (
    SymmetricMatrix,
    Vector,
    demote_matrix,
    demote_vector,
    dot,
    matvec,
    vscale,
)
from irmcg.analysis import (
    BUDGET_EXCEEDED,
    CONVERGED,
    MAX_STEPS,
    ZERO_INITIAL_RESIDUAL,
)
from irmcg.solvers import (
    CG,
    IRM,
    IRM_CG,
    METHODS,
    GEN_JACOBI,
    GEN_RESIDUAL,
    GEN_RESIDUAL_INCREMENT,
    Perturbation,
    SolverConfig,
    SolverState,
    cg_step,
    init,
    irm_step,
    solve,
)


def random_spd(rng, n):
    B = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    rows = [
        [
            sum((B[k][i] * B[k][j] for k in range(n)), F(0)) + (1 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return SymmetricMatrix.from_rows(rows)


def exact_cfg(**kw):
    return SolverConfig(**kw)


def resolved(n, **kw):
    return SolverConfig(**kw).resolved(EXACT, n)


class TestConfig:
    @pytest.mark.parametrize("omega", [0, 2, -1, F(5, 2)])
    def test_omega_outside_open_interval(self, omega):
        with pytest.raises(ValueError):
            SolverConfig(omega=omega)

    def test_cg_rejects_relaxation(self):
        with pytest.raises(ValueError):
            SolverConfig(method=CG, omega=F(3, 2))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="sor")

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            SolverConfig(generator="krylov")

    @pytest.mark.parametrize("method", [CG, IRM_CG])
    @pytest.mark.parametrize("generator", [GEN_RESIDUAL, GEN_JACOBI])
    def test_generator_applies_to_irm_only(self, method, generator):
        with pytest.raises(ValueError, match="ignores the generator"):
            SolverConfig(method=method, generator=generator)
        SolverConfig(method=IRM, generator=generator)

    def test_f64_epsilon_beyond_double_range(self):
        cfg = SolverConfig(epsilon=F(10) ** 400)
        assert cfg.resolved(EXACT, 2).epsilon == F(10) ** 400
        with pytest.raises(ScalarOverflow, match="does not fit in a double"):
            cfg.resolved(F64, 2)

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=-1)

    def test_nan_epsilon(self):
        # rr <= NaN never holds, so such a run would step past convergence.
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            SolverConfig(epsilon=float("nan"))

    def test_refresh_floor(self):
        with pytest.raises(ValueError):
            SolverConfig(refresh_k=0)

    @pytest.mark.parametrize("name", ["max_steps", "refresh_k"])
    def test_nan_counts(self, name):
        # i >= NaN and i % NaN == 0 never hold: no cap, no refresh.
        with pytest.raises(ValueError, match="^%s must be >= 1$" % name):
            SolverConfig(**{name: float("nan")})

    def test_resolved_defaults(self):
        r = SolverConfig().resolved(EXACT, 7)
        assert r.max_steps == 700
        assert isinstance(r.omega, F) and isinstance(r.epsilon, F)
        rf = SolverConfig().resolved(F64, 7)
        assert rf.refresh_k == 50
        assert isinstance(rf.omega, float)


class TestInit:
    def test_scaled_steepest_descent(self):
        A = SymmetricMatrix.diagonal([2, 8])
        state = init(A, Vector.exact([1, 1]), Vector.zeros(2, EXACT))
        assert state.rr0 == 2
        assert state.p == Vector.exact([F(1, 5), F(1, 5)])
        assert state.beta == Vector.exact([F(2, 5), F(8, 5)])
        assert state.refreshed and not state.converged

    def test_identity_keeps_residual(self):
        A = SymmetricMatrix.diagonal([1, 1, 1])
        b = Vector.exact([1, -2, 3])
        state = init(A, b, Vector.zeros(3, EXACT))
        assert state.p == b and state.beta == b

    def test_consistent_start_is_converged(self):
        A = SymmetricMatrix.diagonal([1, 2])
        x0 = Vector.exact([1, 1])
        state = init(A, matvec(A, x0), x0)
        assert state.converged and state.rr0 == 0

    def test_rejects_non_spd(self):
        A = SymmetricMatrix.from_rows([[1, 2], [2, 1]])
        with pytest.raises(NotSPD):
            init(A, Vector.exact([1, 0]), Vector.zeros(2, EXACT))

    def test_dimension_mismatch(self):
        A = SymmetricMatrix.diagonal([1, 2])
        with pytest.raises(DimensionError):
            init(A, Vector.exact([1, 0, 0]), Vector.zeros(2, EXACT))


class TestSteps:
    def test_irmcg_identity_converges_in_one(self):
        A = SymmetricMatrix.diagonal([1, 1])
        b = Vector.exact([1, 2])
        cfg = resolved(2)
        state = irm_step(init(A, b, Vector.zeros(2, EXACT)), A, b, cfg)
        assert state.converged and state.x == b and state.r.is_zero()

    def test_irmcg_terminates_at_distinct_eigenvalue_count(self):
        A = SymmetricMatrix.diagonal([1, 2, 3])
        b = Vector.exact([1, 1, 1])
        cfg = resolved(3)
        state = init(A, b, Vector.zeros(3, EXACT))
        for _ in range(3):
            state = irm_step(state, A, b, cfg)
        assert state.converged and state.i == 3
        assert list(state.x.data) == oracles.gauss_solve(
            oracles.unpack(A), [F(1), F(1), F(1)]
        )

    def test_irmcg_counts_multiplicity_once(self):
        A = SymmetricMatrix.diagonal([2, 2, 5])
        b = Vector.exact([1, 1, 1])
        cfg = resolved(3)
        state = init(A, b, Vector.zeros(3, EXACT))
        state = irm_step(state, A, b, cfg)
        assert not state.converged
        state = irm_step(state, A, b, cfg)
        assert state.converged and state.i == 2

    def test_cg_identity_converges_in_one(self):
        A = SymmetricMatrix.diagonal([1, 1])
        b = Vector.exact([3, 4])
        cfg = resolved(2, method=CG)
        state = cg_step(init(A, b, Vector.zeros(2, EXACT)), A, b, cfg)
        assert state.converged and state.x == b

    def test_cg_matches_irmcg_iterates(self):
        A = SymmetricMatrix.diagonal([1, 2, 3])
        b = Vector.exact([1, 1, 1])
        s_cg = init(A, b, Vector.zeros(3, EXACT))
        s_ir = init(A, b, Vector.zeros(3, EXACT))
        cfg_cg = resolved(3, method=CG)
        cfg_ir = resolved(3)
        for _ in range(3):
            s_cg = cg_step(s_cg, A, b, cfg_cg)
            s_ir = irm_step(s_ir, A, b, cfg_ir)
            assert s_cg.x == s_ir.x and s_cg.r == s_ir.r
        assert s_cg.converged and s_ir.converged

    def test_cg_multiplicity(self):
        A = SymmetricMatrix.diagonal([2, 2, 5])
        b = Vector.exact([1, 1, 1])
        cfg = resolved(3, method=CG)
        state = init(A, b, Vector.zeros(3, EXACT))
        state = cg_step(state, A, b, cfg)
        state = cg_step(state, A, b, cfg)
        assert state.converged and state.i == 2

    def test_stepping_converged_state_is_an_error(self):
        A = SymmetricMatrix.diagonal([1])
        x0 = Vector.exact([2])
        state = init(A, matvec(A, x0), x0)
        for fn, method in ((irm_step, IRM_CG), (cg_step, CG), (irm_step, IRM)):
            with pytest.raises(ValueError):
                fn(state, A, matvec(A, x0), resolved(1, method=method))

    def test_cg_breakdown_on_zero_curvature_direction(self):
        A = SymmetricMatrix.diagonal([1, 1])
        state = SolverState(
            i=0,
            x=Vector.zeros(2, EXACT),
            r=Vector.exact([1, 0]),
            p=Vector.zeros(2, EXACT),
            beta=None,
            rr0=F(1),
        )
        with pytest.raises(NumericalBreakdown):
            cg_step(state, A, Vector.exact([1, 0]), resolved(2, method=CG))


class TestGenericIrm:
    def test_residual_only_is_steepest_descent(self):
        A = SymmetricMatrix.from_rows([[3, 1], [1, 2]])
        b = Vector.exact([1, -1])
        cfg = resolved(2, method=IRM, generator=GEN_RESIDUAL)
        state = irm_step(init(A, b, Vector.zeros(2, EXACT)), A, b, cfg)
        r1 = state.r
        q = dot(r1, r1) / dot(r1, matvec(A, r1))
        assert state.p == vscale(q, r1)
        assert state.beta == matvec(A, state.p)

    def test_dependent_column_is_dropped(self):
        # p parallel to the updated residual: the Gram filter must keep
        # only one column and reproduce the residual-only step.
        A = SymmetricMatrix.diagonal([1, 1])
        b = Vector.exact([1, 1])
        base = SolverState(
            i=0,
            x=Vector.zeros(2, EXACT),
            r=Vector.exact([1, 1]),
            p=Vector.exact([2, 2]),
            beta=Vector.exact([2, 2]),
            rr0=F(2),
        )
        cfg_both = resolved(2, method=IRM, generator=GEN_RESIDUAL_INCREMENT)
        cfg_ronly = resolved(2, method=IRM, generator=GEN_RESIDUAL)
        got = irm_step(base, A, b, cfg_both)
        want = irm_step(
            SolverState(0, base.x, base.r, base.p, base.beta, base.rr0), A, b, cfg_ronly
        )
        assert got.p == want.p and got.beta == want.beta and got.x == want.x

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 4))
    def test_residual_increment_matches_irmcg_at_unit_omega(self, seed, n):
        rng = random.Random(seed)
        A = random_spd(rng, n)
        b = Vector.exact([rng.randint(-4, 4) for _ in range(n)])
        if b.is_zero():
            b = Vector.exact([1] * n)
        xs_irm, xs_cg2 = [], []
        solve(A, b, cfg=exact_cfg(method=IRM), observer=lambda _, s: xs_irm.append(s.x))
        solve(A, b, cfg=exact_cfg(), observer=lambda _, s: xs_cg2.append(s.x))
        assert xs_irm == xs_cg2

    def test_jacobi_generator_scales_by_diagonal(self):
        A = SymmetricMatrix.diagonal([2, 4])
        r = Vector.exact([1, 1])
        p = Vector.exact([0, 1])
        cand = solvers_module._directions(GEN_JACOBI, r, p, A)
        assert cand[0] == Vector.exact([F(1, 2), F(1, 4)])
        assert cand[1] == p

    def test_generator_rejects_all_zero(self):
        with pytest.raises(GeneratorError):
            solvers_module._directions(
                GEN_RESIDUAL, Vector.zeros(2, EXACT), Vector.zeros(2, EXACT), None
            )


class TestRitzUpdate:
    def test_dependent_last_direction_is_dropped(self):
        # p = 2r: the 2x2 system is singular, so only r's coefficient
        # is solved for, a = (r.r)/(r.A r).
        A = SymmetricMatrix.diagonal([1, 3])
        r, p = Vector.exact([1, 1]), Vector.exact([2, 2])
        Ar, Ap = matvec(A, r), matvec(A, p)
        gram = [[dot(r, Ar), dot(r, Ap)], [dot(r, Ap), dot(p, Ap)]]
        a = solvers_module._ritz_coefficients(gram, [F(2), F(1)], EXACT)
        assert a == [F(2) / dot(r, Ar)]
        assert solvers_module._combination(a, [r, p]) == vscale(a[0], r)

    def test_dependent_first_direction(self):
        # r.A r underflows to 0.0 while r.r does not, and p = 0.
        A = demote_matrix(SymmetricMatrix.diagonal([F(1, 10**300)]))
        b = demote_vector(Vector.exact([1]))
        zero = Vector.zeros(1, F64)
        state = SolverState(1, zero, demote_vector(Vector.exact([F(1, 10**20)])), zero, zero, 1.0)
        r, Ar = state.r, matvec(A, state.r)
        assert solvers_module._ritz_coefficients([[dot(r, Ar)]], [dot(r, r)], F64) is None
        with pytest.raises(GeneratorError):
            irm_step(state, A, b, SolverConfig(method=IRM).resolved(F64, 1))
        with pytest.raises(NumericalBreakdown):
            irm_step(state, A, b, SolverConfig().resolved(F64, 1))


class TestSolve:
    def test_exact_three_distinct_eigenvalues(self):
        A = SymmetricMatrix.diagonal([1, 2, 3])
        b = Vector.exact([1, 1, 1])
        x, trace = solve(A, b)
        assert trace.termination == CONVERGED
        assert trace.steps == 3
        assert trace.records[-1].rr == 0
        assert x == Vector.exact([1, F(1, 2), F(1, 3)])

    def test_energy_strictly_decreases(self):
        A = SymmetricMatrix.diagonal([1, 2, 3])
        b = Vector.exact([1, 1, 1])
        _, trace = solve(A, b)
        energies = [rec.energy for rec in trace.records]
        assert all(e1 < e0 for e0, e1 in zip(energies, energies[1:]))

    def test_zero_initial_residual(self):
        A = SymmetricMatrix.diagonal([1, 2])
        x0 = Vector.exact([1, 1])
        x, trace = solve(A, matvec(A, x0), x0=x0)
        assert trace.termination == ZERO_INITIAL_RESIDUAL
        assert len(trace.records) == 0
        assert x == x0

    def test_max_steps_cap(self):
        A = SymmetricMatrix.diagonal([2, 5])
        b = Vector.exact([1, 1])
        _, trace = solve(A, b, cfg=exact_cfg(omega=F(1, 2), max_steps=8))
        assert trace.termination == MAX_STEPS
        assert trace.steps == 8

    def test_budget_exceeded_discards_offending_step(self):
        A = gen_spring_chain(8, [1, 2, 3, 5, 7, 11, 13, 17, 19])
        b = Vector.exact([1, -2, 3, 1, -1, 2, 5, -3])
        _, trace = solve(A, b, cfg=exact_cfg(bit_budget=BitBudget(64)))
        assert trace.termination == BUDGET_EXCEEDED
        assert trace.steps == 1  # the offending second step is discarded

    def test_f64_ill_conditioned_converges(self):
        spec = SpectrumSpec(
            (
                (1, 2, True),
                (100, 2, True),
                (10**4, 2, True),
                (10**6, 2, True),
                (10**8, 1, True),
                (10**10, 1, True),
            )
        )
        D, b, m = gen_diagonal(spec)
        assert m == 6
        A = demote_matrix(D)
        for method in (IRM_CG, CG):
            _, trace = solve(
                A,
                demote_vector(b),
                cfg=SolverConfig(method=method, epsilon=1e-10),
            )
            assert trace.termination == CONVERGED
            assert m < trace.steps <= 40

    def test_refresh_flag_pattern(self):
        spec = SpectrumSpec(
            (
                (1, 2, True),
                (100, 2, True),
                (10**4, 2, True),
                (10**6, 2, True),
                (10**8, 1, True),
                (10**10, 1, True),
            )
        )
        D, b, _ = gen_diagonal(spec)
        _, trace = solve(
            demote_matrix(D),
            demote_vector(b),
            cfg=SolverConfig(epsilon=1e-10, refresh_k=3),
        )
        assert trace.steps >= 8
        for rec in trace.records:
            assert rec.refreshed == (rec.i == 0 or (rec.i - 1) % 3 == 0)


def _primes_above(start, count):
    found = []
    p = start
    while len(found) < count:
        p += 1
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            found.append(p)
    return found


def _per_entry_budget_scan(state, cfg):
    # Every entry of x, r, p, beta through BitBudget.check, in order.
    if state.x.field != EXACT:
        return
    for vec in (state.x, state.r, state.p, state.beta):
        for entry in [] if vec is None else vec.data:
            cfg.bit_budget.check(entry)


def _whole_state_scan(monkeypatch):
    """Make steps form their whole state unchecked, then scan it entry by entry.

    This is the reference the in-step checks must agree with: a step
    that converges is not scanned, any other is, x, r, p, beta in order.
    """
    monkeypatch.setattr(solvers_module, "_check_budget", lambda budget, *vectors: None)
    monkeypatch.setattr(solvers_module, "_check_leading_entry", lambda *args: None)
    for name in ("cg_step", "irm_step"):
        step = getattr(solvers_module, name)

        def scanned(state, A, b, cfg, step=step):
            new = step(state, A, b, cfg)
            if not new.converged:
                _per_entry_budget_scan(new, cfg)
            return new

        monkeypatch.setattr(solvers_module, name, scanned)


def _rotated_12():
    spec = SpectrumSpec(tuple((k, 2, True) for k in range(1, 7)), rhs_rule=RHS_RANDOM,
                        rhs_seed=3)
    A, b, _ = gen_rotated(spec, random_plan(spec.n, 30, 3))
    return A, b


class TestBitBudget:
    """The per-vector bit test, its per-entry fallback, and where a step stops."""

    def test_lcm_denominator_past_the_budget_is_not_an_entry_past_it(self):
        # 1/p for four primes p of 31 bits: a 124-bit lcm, 31-bit entries.
        v = Vector.exact([F(1, p) for p in _primes_above(2**30, 4)])
        assert v.den.bit_length() > 64
        solvers_module._check_budget(BitBudget(64), v, v)

    def test_one_entry_one_bit_past_the_budget(self):
        v = Vector.exact([F(1, 3), F(2**64, 5), F(7)])
        with pytest.raises(BudgetExceeded) as exc:
            solvers_module._check_budget(BitBudget(64), Vector.exact([1, 2, 3]), v)
        assert str(exc.value) == "scalar grew to 65 bits (budget 64)"
        solvers_module._check_budget(BitBudget(65), v)

    def test_leading_entry_is_formed_only_past_its_bound(self, monkeypatch):
        u, v = Vector.exact([F(2**70, 3), 1]), Vector.exact([F(1, 5), 2])
        coeffs = (F(3, 7), F(-2**30, 11))
        entry = coeffs[0] * u[0] + coeffs[1] * v[0]
        bits = entry.numerator.bit_length()
        assert entry == F(55 * 2**70 - 7 * 2**30, 385) and bits == 76
        with pytest.raises(BudgetExceeded) as exc:
            solvers_module._check_leading_entry(BitBudget(bits - 1), coeffs, (u, v))
        assert str(exc.value) == "scalar grew to 76 bits (budget 75)"
        solvers_module._check_leading_entry(BitBudget(bits), coeffs, (u, v))
        # The bound counts denominators too: here they carry all the bits.
        w = Vector.exact([F(1, 2**100), F(1, 3)])
        with pytest.raises(BudgetExceeded, match="101 bits"):
            solvers_module._check_leading_entry(BitBudget(100), (1,), (w,))
        # Far below the budget the bound decides, and no entry is formed.
        monkeypatch.setattr(BitBudget, "check", lambda self, q: pytest.fail("entry formed"))
        solvers_module._check_leading_entry(BitBudget(), coeffs, (u, v))
        f64 = demote_vector(u)
        solvers_module._check_leading_entry(BitBudget(64), (2.0**200,), (f64,))

    @pytest.mark.parametrize("method, omega, generator, bits, first", [
        pytest.param(CG, 1, GEN_RESIDUAL_INCREMENT, 64, "p", id="cg-1-64"),
        pytest.param(IRM_CG, F(3, 2), GEN_RESIDUAL_INCREMENT, 1024, "p", id="irm-cg-omega1-1024"),
        pytest.param(IRM_CG, F(19, 10), GEN_RESIDUAL_INCREMENT, 1024, "p",
                     id="irm-cg-omega2-1024"),
        pytest.param(IRM, F(1, 2), GEN_RESIDUAL_INCREMENT, 2048, "p", id="irm-omega3-2048"),
        # Jacobi directions; at omega = 1 the first step is the one discarded.
        pytest.param(IRM, F(1, 2), GEN_JACOBI, 2048, "p", id="irm-jacobi-1/2-2048"),
        pytest.param(IRM, 1, GEN_JACOBI, 1024, "p", id="irm-jacobi-1-1024"),
        # x, then r, is the first vector past the budget.
        pytest.param(IRM_CG, F(3, 2), GEN_RESIDUAL_INCREMENT, 224, "x", id="irm-cg-3/2-224-x"),
        pytest.param(IRM_CG, F(3, 2), GEN_RESIDUAL_INCREMENT, 73, "r", id="irm-cg-3/2-73-r"),
    ])
    def test_runs_stop_where_the_per_entry_scan_stops(self, method, omega, generator, bits,
                                                      first, monkeypatch):
        A, b = _rotated_12()
        cfg = exact_cfg(method=method, omega=omega, generator=generator,
                        bit_budget=BitBudget(bits))
        states = [init(A, b, Vector.zeros(A.n, EXACT))]
        _, trace = solve(A, b, cfg=cfg, observer=lambda _, new: states.append(new))
        assert trace.termination == BUDGET_EXCEEDED and trace.steps == len(states) - 1
        step, rcfg = cg_step if method == CG else irm_step, cfg.resolved(EXACT, A.n)
        with pytest.raises(BudgetExceeded) as got:
            step(states[-1], A, b, rcfg)
        # The case is what it says: the discarded step's first vector past the budget.
        full = step(states[-1], A, b, replace(rcfg, bit_budget=BitBudget()))
        assert first == next(name for name in ("x", "r", "p", "beta") if any(
            max(q.numerator.bit_length(), q.denominator.bit_length()) > bits
            for q in getattr(full, name).data))
        _whole_state_scan(monkeypatch)
        assert solve(A, b, cfg=cfg)[1] == trace
        with pytest.raises(BudgetExceeded) as want:
            getattr(solvers_module, step.__name__)(states[-1], A, b, rcfg)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("method", [CG, IRM_CG])
    def test_a_converging_step_is_not_held_to_the_budget(self, method):
        # One distinct eigenvalue: the first step converges, with x = b / 3
        # of 71 bits, past a 64-bit budget.
        A = SymmetricMatrix.diagonal([3, 3])
        b = Vector.exact([2**70 + 1, 1])
        x, trace = solve(A, b, cfg=exact_cfg(method=method, bit_budget=BitBudget(64)))
        assert trace.termination == CONVERGED and trace.steps == 1
        assert x == Vector.exact([F(2**70 + 1, 3), F(1, 3)])
        assert max(q.numerator.bit_length() for q in x.data) > 64

    def test_a_step_past_the_budget_at_its_leading_entry_forms_no_p_or_beta(self, monkeypatch):
        # irm-cg at omega = 19/10 on the rotated n=12 system: x and r of
        # step 3 fit 1024 bits, entry 0 of its p does not.
        A, b = _rotated_12()
        cfg = exact_cfg(method=IRM_CG, omega=F(19, 10), bit_budget=BitBudget(1024))
        states = []
        _, trace = solve(A, b, cfg=cfg, observer=lambda _, new: states.append(new))
        assert trace.termination == BUDGET_EXCEEDED and trace.steps == 2
        rcfg = cfg.resolved(EXACT, A.n)
        calls = []
        for name in ("vscale", "add_scaled"):
            real = getattr(solvers_module, name)
            monkeypatch.setattr(solvers_module, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        with pytest.raises(BudgetExceeded) as got:
            irm_step(states[-1], A, b, rcfg)
        # Only x and r were formed (x + omega p, r - omega beta).
        assert calls == ["add_scaled", "add_scaled"]
        monkeypatch.undo()
        _whole_state_scan(monkeypatch)
        with pytest.raises(BudgetExceeded) as want:
            solvers_module.irm_step(states[-1], A, b, rcfg)
        assert str(got.value) == str(want.value)


def test_f64_overflow_raises_without_numpy_warnings():
    # sweep's irm-cg at omega = 19/10 overflows on the rotated n=60
    # systems; the lane's own check reports it, and NumPy stays quiet.
    spec = SpectrumSpec(tuple((k, 5, True) for k in range(1, 13)), rhs_rule=RHS_RANDOM,
                        rhs_seed=2551)
    A, b, _ = gen_rotated(spec, random_plan(spec.n, 180, 2551))
    cfg = SolverConfig(method=IRM_CG, omega=F(19, 10), epsilon=F(1, 10**10))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidScalar):
            solve(demote_matrix(A), demote_vector(b), cfg=cfg)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestMatvecBudget:
    def run_counted(self, method, monkeypatch):
        A = SymmetricMatrix.diagonal([1, 2, 3])
        b = Vector.exact([1, 1, 1])
        counts = []
        real = solvers_module.matvec

        def counting(M, v):
            counts.append(None)
            return real(M, v)

        monkeypatch.setattr(solvers_module, "matvec", counting)
        deltas = []

        def observer(_, __):
            deltas.append(len(counts))

        _, trace = solve(
            A, b, cfg=SolverConfig(method=method, record_energy=False), observer=observer
        )
        assert trace.termination == CONVERGED and trace.steps == 3
        # init costs two products; deltas are cumulative totals per step.
        return [deltas[0] - 2] + [y - x for x, y in zip(deltas, deltas[1:])]

    def test_irmcg_recursive_steps_cost_one_product(self, monkeypatch):
        # The first step refreshes (full residual plus alpha); the
        # middle step costs exactly the single alpha = A r product; the
        # terminal step sees rr = 0 before alpha would be formed.
        assert self.run_counted(IRM_CG, monkeypatch) == [2, 1, 0]

    def test_cg_recursive_steps_cost_one_product(self, monkeypatch):
        assert self.run_counted(CG, monkeypatch) == [2, 1, 1]

    def test_irm_recursive_steps_cost_two_products(self, monkeypatch):
        # IRM takes a fresh image of every direction: the first step
        # refreshes and forms A r and A p, the middle step forms A r and
        # A p, and the terminal step sees rr = 0 first.  One product per
        # recursive step is what sets irm-cg apart.
        assert self.run_counted(IRM, monkeypatch) == [3, 2, 0]


class TestEnergyColumn:
    """Exact energies come from the residual, E(x) = -(x.b + x.r)/2, with no matvec."""

    @staticmethod
    def rotated():
        spec = SpectrumSpec(tuple((k, 2, True) for k in range(1, 5)), rhs_rule=RHS_RANDOM,
                            rhs_seed=7)
        A, b, _ = gen_rotated(spec, random_plan(spec.n, 12, 7))
        return A, b

    @pytest.mark.parametrize("method, generator, omega", [(CG, GEN_RESIDUAL_INCREMENT, 1)] + [
        (method, generator, omega)
        for method, generator in ((IRM_CG, GEN_RESIDUAL_INCREMENT),
                                  (IRM, GEN_RESIDUAL_INCREMENT), (IRM, GEN_JACOBI))
        for omega in (1, F(1, 2))
    ])
    def test_every_record_is_the_energy_of_its_x(self, method, generator, omega):
        A, b = self.rotated()
        x0 = Vector.exact([F(k - 3, k + 1) for k in range(A.n)])
        xs = [x0]
        cfg = exact_cfg(method=method, generator=generator, omega=omega, max_steps=10,
                        bit_budget=BitBudget(4096))
        _, trace = solve(A, b, x0=x0, cfg=cfg, perturbations=(Perturbation(2, 3, F(-5, 7)),),
                         observer=lambda _, new: xs.append(new.x))
        assert any(rec.perturbed for rec in trace.records)
        assert len(trace.records) == len(xs) >= 3
        rows, bl = oracles.unpack(A), list(b.data)
        for rec, x in zip(trace.records, xs):
            assert rec.energy == oracles.direct_energy(rows, bl, list(x.data))

    @pytest.mark.parametrize("method", METHODS)
    def test_exact_energy_forms_no_matvec(self, method, monkeypatch):
        A, b = self.rotated()
        counts = []
        for module in (linalg_module, solvers_module):
            real = module.matvec

            def counting(M, v, real=real):
                counts.append(None)
                return real(M, v)

            monkeypatch.setattr(module, "matvec", counting)
        formed = []
        for record_energy in (True, False):
            del counts[:]
            _, trace = solve(A, b, cfg=exact_cfg(method=method, record_energy=record_energy))
            formed.append(len(counts))
        # Four distinct eigenvalues: four steps.
        assert trace.termination == CONVERGED and trace.steps == 4
        assert formed[0] == formed[1] > 0


@pytest.mark.parametrize("field", [EXACT, F64])
@pytest.mark.parametrize("method, generator, omega", [
    (CG, GEN_RESIDUAL_INCREMENT, 1), (IRM_CG, GEN_RESIDUAL_INCREMENT, F(1, 2)),
    (IRM, GEN_RESIDUAL_INCREMENT, F(3, 2)), (IRM, GEN_JACOBI, 1),
])
def test_each_state_carries_its_rr(field, method, generator, omega):
    # The step forms r.r; solve records it after the perturbations, which leave r alone.
    A, b = TestEnergyColumn.rotated()
    if field == F64:
        A, b = demote_matrix(A), demote_vector(b)
    states = []
    cfg = SolverConfig(method=method, generator=generator, omega=omega, max_steps=4)
    _, trace = solve(A, b, cfg=cfg, perturbations=(Perturbation(2, 3, F(-5, 7)),),
                     observer=lambda _, new: states.append(new))
    assert len(states) == trace.steps >= 4 and trace.records[2].perturbed
    for state, rec in zip(states, trace.records[1:]):
        assert state.rr == rec.rr == dot(state.r, state.r)
        assert type(rec.rr) is (F if field == EXACT else float)


class TestPerturbation:
    def chain(self):
        A = gen_spring_chain(3, [1, 2, 2, 1])
        return A, Vector.exact([0, 1, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Perturbation(-1, 1, 1)
        with pytest.raises(ValueError):
            Perturbation(0, 0, 1)

    def test_component_bound(self):
        A, b = self.chain()
        with pytest.raises(DimensionError):
            solve(A, b, perturbations=(Perturbation(0, 4, 1),))

    def test_injection_shifts_increment_and_resyncs_beta(self):
        A, b = self.chain()
        baseline = init(A, b, Vector.zeros(3, EXACT))
        seen = []
        solve(
            A,
            b,
            cfg=exact_cfg(max_steps=1),
            perturbations=(Perturbation(0, 2, F(1, 3)),),
            observer=lambda prev, _: seen.append(prev),
        )
        used = seen[0]
        diff = [a - c for a, c in zip(used.p.data, baseline.p.data)]
        assert diff == [0, F(1, 3), 0]
        rows = oracles.unpack(A)
        assert list(used.beta.data) == oracles.full_matvec(rows, list(used.p.data))

    @pytest.mark.parametrize("method", [IRM_CG, CG])
    def test_recovery_after_unit_hit(self, method):
        A, b = self.chain()
        _, trace = solve(
            A,
            b,
            cfg=exact_cfg(method=method, max_steps=30),
            perturbations=(Perturbation(1, 2, 1),),
        )
        assert trace.termination == CONVERGED
        assert trace.steps == 3
        assert [rec.perturbed for rec in trace.records] == [False, True, False, False]
        assert trace.records[-1].rr == 0


class TestRelaxed:
    @pytest.mark.parametrize("omega", [F(1, 2), F(3, 2)])
    def test_recursive_residual_stays_exact(self, omega):
        A = SymmetricMatrix.diagonal([2, 5])
        b = Vector.exact([1, 1])
        rows = oracles.unpack(A)
        snaps = []
        _, trace = solve(
            A,
            b,
            cfg=exact_cfg(omega=omega, max_steps=8),
            observer=lambda prev, new: snaps.append((prev, new)),
        )
        assert trace.termination == MAX_STEPS
        saw_omega_term = False
        for prev, new in snaps:
            x, r = list(new.x.data), list(new.r.data)
            want_r = [bi - ei for bi, ei in zip([F(1), F(1)], oracles.full_matvec(rows, x))]
            assert r == want_r
            alpha = oracles.full_matvec(rows, r)
            assert oracles.vdot(r, list(prev.beta.data)) == oracles.vdot(
                list(prev.p.data), alpha
            )
            if oracles.vdot(r, list(prev.p.data)) != 0:
                saw_omega_term = True
        assert saw_omega_term

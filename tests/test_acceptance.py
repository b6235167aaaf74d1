"""End-to-end acceptance checks, one test per numbered criterion.

Criteria 1-4 share a module-scoped corpus of instrumented exact runs;
criterion 5 sweeps every captured step of that corpus for the algebraic
step invariants.  Each corpus is seeded, so the suite is deterministic.
"""

import contextlib
import io
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from irmcg.analysis import CONVERGED, ZERO_INITIAL_RESIDUAL, compare, emit_csv, parse_csv
from irmcg.arithmetic import demote, format_rational, rationalize
from irmcg.benchgen import (
    RotationPlan,
    SpectrumSpec,
    gen_diagonal,
    gen_inverse,
    gen_rotated,
    gen_spring_chain,
    random_plan,
)
from irmcg.cli import EXIT_OK, main
from irmcg.errors import IncomparableTraces
from irmcg.linalg import (
    SymmetricMatrix,
    Vector,
    demote_matrix,
    demote_vector,
    matvec,
)
from irmcg.solvers import CG, IRM, IRM_CG, Perturbation, SolverConfig, solve


class Capture:
    """One instrumented run: the system, its trace, and all step pairs."""

    def __init__(self, A, b, cfg):
        self.A, self.b = A, b
        self.snaps = []
        self.x, self.trace = solve(
            A, b, cfg=cfg, observer=lambda prev, new: self.snaps.append((prev, new))
        )


def seeded_spectrum(rng, max_active, max_n):
    active = rng.randint(1, max_active)
    inactive = rng.randint(0, 2)
    count = active + inactive
    denom = rng.choice([1, 1, 2, 7])
    eigs = [F(e, denom) for e in rng.sample(range(1, 100), count)]
    mults = [1] * count
    for _ in range(rng.randint(0, max_n - count)):
        mults[rng.randrange(count)] += 1
    flags = [True] * active + [False] * inactive
    rng.shuffle(flags)
    items = tuple(zip(eigs, mults, flags))
    if rng.random() < 0.5:
        return SpectrumSpec(items)
    return SpectrumSpec(items, rhs_rule="random", rhs_seed=rng.randrange(2**32))


def build_c1():
    runs = []
    for idx in range(50):
        rng = random.Random(9000 + idx)
        spec = seeded_spectrum(rng, max_active=12, max_n=40)
        D, b, m = gen_diagonal(spec)
        for method in (IRM_CG, CG):
            runs.append((m, Capture(D, b, SolverConfig(method=method))))
    return runs


def build_c2():
    pairs = []
    for idx in range(25):
        rng = random.Random(7000 + idx)
        kind = idx % 3
        if kind == 0:
            D, b, _ = gen_diagonal(seeded_spectrum(rng, max_active=6, max_n=20))
            A = D
        elif kind == 1:
            spec = seeded_spectrum(rng, max_active=3, max_n=6)
            A, b, _ = gen_rotated(
                spec, random_plan(spec.n, rng.randint(1, 4), seed=idx)
            )
        else:
            n = rng.randint(2, 10)
            A = gen_spring_chain(n, [rng.randint(1, 9) for _ in range(n + 1)])
            entries = [rng.randint(-5, 5) for _ in range(n)]
            if not any(entries):
                entries[0] = 1
            b = Vector.exact(entries)
        pairs.append(
            (
                Capture(A, b, SolverConfig(method=IRM_CG)),
                Capture(A, b, SolverConfig(method=CG)),
            )
        )
    return pairs


def build_c3():
    pairs = []
    for idx in range(10):
        rng = random.Random(5000 + idx)
        spec = seeded_spectrum(rng, max_active=4, max_n=6)
        plan = random_plan(spec.n, rng.randint(1, 4), seed=idx)
        D, bd, _ = gen_diagonal(spec)
        A, b, _ = gen_rotated(spec, plan)
        pairs.append((Capture(D, bd, SolverConfig()), Capture(A, b, SolverConfig())))
    return pairs


def build_c4():
    runs = []
    for idx in range(20):
        rng = random.Random(3000 + idx)
        kind = idx % 3
        if kind == 0:
            A, _, _ = gen_diagonal(seeded_spectrum(rng, max_active=5, max_n=10))
        elif kind == 1:
            spec = seeded_spectrum(rng, max_active=3, max_n=5)
            A, _, _ = gen_rotated(spec, random_plan(spec.n, rng.randint(1, 3), seed=idx))
        else:
            n = rng.randint(2, 8)
            A = gen_spring_chain(n, [rng.randint(1, 9) for _ in range(n + 1)])
        entries = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(A.n)]
        if not any(entries):
            entries[0] = F(1)
        x_star = Vector.exact(entries)
        runs.append((x_star, Capture(A, gen_inverse(A, x_star), SolverConfig())))
    return runs


@pytest.fixture(scope="module")
def corpora():
    data = {}
    for name, builder in (("c1", build_c1), ("c2", build_c2), ("c3", build_c3),
                          ("c4", build_c4)):
        t0 = time.monotonic()
        data[name] = builder()
        data[name + "_seconds"] = time.monotonic() - t0
    return data


def sweep_invariants(cap, check_orthogonality):
    """Count the criterion-5 checks on one capture; assert none fail."""
    rows = oracles.unpack(cap.A)
    bvec = list(cap.b.data)
    checks = 0
    for prev, new in cap.snaps:
        r = list(new.r.data)
        assert r == [
            bi - e for bi, e in zip(bvec, oracles.full_matvec(rows, list(new.x.data)))
        ]
        if check_orthogonality:
            assert oracles.vdot(r, list(prev.p.data)) == 0
        alpha = oracles.full_matvec(rows, r)
        if prev.beta is not None:
            lhs = oracles.vdot(r, list(prev.beta.data))
        else:
            lhs = oracles.vdot(r, oracles.full_matvec(rows, list(prev.p.data)))
        assert lhs == oracles.vdot(list(prev.p.data), alpha)
        checks += 3
    energies = [rec.energy for rec in cap.trace.records]
    assert all(e1 < e0 for e0, e1 in zip(energies, energies[1:]))
    return checks + max(len(energies) - 1, 0)


def all_captures(corpora):
    for m, cap in corpora["c1"]:
        yield cap
    for left, right in corpora["c2"]:
        yield left
        yield right
    for diag, rot in corpora["c3"]:
        yield diag
        yield rot
    for x_star, cap in corpora["c4"]:
        yield cap


def test_criterion_1_m_step_exact_termination(corpora):
    for m, cap in corpora["c1"]:
        assert cap.trace.termination == CONVERGED
        assert cap.trace.steps == m
        assert format_rational(cap.trace.records[-1].rr) == "0/1"
    assert corpora["c1_seconds"] < 60


def test_criterion_2_cg_irmcg_iterate_equality(corpora):
    for irmcg_run, cg_run in corpora["c2"]:
        xs_a = [new.x for _, new in irmcg_run.snaps]
        xs_b = [new.x for _, new in cg_run.snaps]
        assert xs_a == xs_b
        assert irmcg_run.trace.steps == cg_run.trace.steps
    assert corpora["c2_seconds"] < 120


def test_criterion_3_rotation_equivalence(corpora):
    for diag_run, rot_run in corpora["c3"]:
        rr_diag = [rec.rr for rec in diag_run.trace.records]
        rr_rot = [rec.rr for rec in rot_run.trace.records]
        assert rr_diag == rr_rot
    assert corpora["c3_seconds"] < 60


def test_criterion_4_inverse_round_trip(corpora):
    for x_star, cap in corpora["c4"]:
        assert cap.trace.termination == CONVERGED
        assert cap.x == x_star
    assert corpora["c4_seconds"] < 60


def test_criterion_5_step_invariants(corpora):
    checks = 0
    for cap in all_captures(corpora):
        checks += sweep_invariants(cap, check_orthogonality=True)
    assert checks > 1000


RECOVERY_SYSTEMS = []


def _recovery_diagonal(diag, b, component):
    A = SymmetricMatrix.diagonal(diag)
    return A, Vector.exact(b), component


def _recovery_rotated(eig_pair, pad, c, s, weights, component):
    items = ((eig_pair[0], 1, True), (eig_pair[1], 1, True)) + pad
    spec = SpectrumSpec(items, rhs_rule="explicit",
                        rhs_values=weights + (0,) * sum(m for _, m, _ in pad))
    A, b, _ = gen_rotated(spec, RotationPlan(((0, 1, c, s),)))
    return A, b, component


def _recovery_chain(k_outer, k_inner):
    A = gen_spring_chain(3, [k_outer, k_inner, k_inner, k_outer])
    return A, Vector.exact([0, 1, 0]), 2


RECOVERY_SYSTEMS = [
    _recovery_diagonal([2, 5], [1, 1], 1),
    _recovery_diagonal([3, 7, 11, 11], [2, -3, 0, 0], 2),
    _recovery_diagonal([1, 4, 9, 9, 9], [5, 1, 0, 0, 0], 2),
    _recovery_diagonal([6, 10, 13, 13, 13, 13, 13, 13], [1, 1, 0, 0, 0, 0, 0, 0], 1),
    _recovery_rotated((2, 5), (), F(3, 5), F(4, 5), (1, 1), 1),
    _recovery_rotated((1, 4), ((7, 2, False),), F(5, 13), F(12, 13), (2, 1), 2),
    _recovery_rotated((3, 8), ((11, 4, False),), F(8, 17), F(15, 17), (1, -2), 1),
    _recovery_chain(1, 2),
    _recovery_chain(3, 1),
    _recovery_chain(2, 7),
]


def test_criterion_6_perturbation_recovery():
    report = []
    for index, (A, b, component) in enumerate(RECOVERY_SYSTEMS):
        lengths = {}
        for method in (IRM_CG, CG):
            _, trace = solve(
                A,
                b,
                cfg=SolverConfig(method=method, max_steps=A.n + 20),
                perturbations=(Perturbation(1, component, 1),),
            )
            assert trace.termination == CONVERGED
            assert trace.records[-1].rr == 0
            recovery = trace.steps - 1  # steps taken after the injection
            assert recovery <= A.n
            lengths[method] = recovery
        report.append(
            "system %2d (n=%2d): irm-cg recovers in %d, cg in %d"
            % (index + 1, A.n, lengths[IRM_CG], lengths[CG])
        )
    print()
    print("perturbation recovery lengths:")
    for line in report:
        print("  " + line)


ILL_SPECTRUM = SpectrumSpec(
    tuple(
        (eig, 7 if slot < 4 else 6, True)
        for slot, eig in enumerate(
            (
                1, 5, 10, 100, 10**3, 10**4, 10**5, 5 * 10**5,
                10**6, 10**7, 10**8, 10**9, 10**10, 10**11, 5 * 10**11, 10**12,
            )
        )
    )
)

WELL_SPECTRUM = SpectrumSpec(
    tuple((eig, 7 if eig <= 4 else 6, True) for eig in range(1, 17))
)


def test_criterion_7_exact_vs_double_divergence():
    t0 = time.monotonic()

    D, b, m = gen_diagonal(ILL_SPECTRUM)
    assert D.n == 100 and m == 16
    assert D.data[-1] / D.data[0] == 10**12
    _, tE = solve(D, b, cfg=SolverConfig(epsilon=1e-10))
    assert tE.termination == CONVERGED and tE.steps == m
    _, tDP = solve(demote_matrix(D), demote_vector(b), cfg=SolverConfig(epsilon=1e-10))
    assert tDP.termination == CONVERGED
    report = compare(tE, tDP)
    assert report.delta_steps > 0
    assert tDP.steps > m

    D2, b2, m2 = gen_diagonal(WELL_SPECTRUM)
    assert D2.n == 100 and m2 == 16
    _, tE2 = solve(D2, b2, cfg=SolverConfig(epsilon=1e-10))
    _, tDP2 = solve(
        demote_matrix(D2), demote_vector(b2), cfg=SolverConfig(epsilon=1e-10)
    )
    early = compare(tE2, tDP2)
    assert early.divergence_step is None or early.divergence_step >= 3

    assert time.monotonic() - t0 < 120


OMEGA_SYSTEMS = [
    (SymmetricMatrix.diagonal([2, 5]), Vector.exact([1, 1])),
    (SymmetricMatrix.diagonal([3, 3, 3, 3]), Vector.exact([1, 2, 0, 1])),
    (SymmetricMatrix.diagonal([1, 1, 4, 4, 9, 9]), Vector.exact([1, 0, 2, 0, 0, 0])),
    (SymmetricMatrix.diagonal([2, 7, 7, 7]), Vector.exact([5, 1, 1, 0])),
    gen_rotated(
        SpectrumSpec(((1, 1, True), (4, 1, True))),
        RotationPlan(((0, 1, F(3, 5), F(4, 5)),)),
    )[:2],
]


def test_criterion_8_omega_sweep_soundness():
    for A, b in OMEGA_SYSTEMS:
        for omega in (F(1, 2), F(1), F(3, 2)):
            cap = Capture(
                A, b, SolverConfig(method=IRM, omega=omega, epsilon=F(1, 10**8))
            )
            assert cap.trace.termination == CONVERGED
            assert cap.trace.steps < 100 * A.n
            sweep_invariants(cap, check_orthogonality=False)


def test_criterion_9_determinism_round_trips(tmp_path):
    # Reruns of one invocation are byte-identical.
    outdir = tmp_path / "sys"
    assert main(["gen", "--spectrum", "1x1,2x1,3x1", "-o", str(outdir)]) == EXIT_OK
    argv = ["solve", str(outdir / "A.txt"), str(outdir / "b.txt"), "--eps", "0"]
    first, second = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(first):
        assert main(argv) == EXIT_OK
    with contextlib.redirect_stdout(second):
        assert main(argv) == EXIT_OK
    assert first.getvalue() == second.getvalue()

    # CSV parse/emit is the identity, in both directions.
    trace = parse_csv(io.StringIO(first.getvalue()))
    buf = io.StringIO()
    emit_csv(trace, buf)
    assert buf.getvalue() == first.getvalue()

    # demote(rationalize(x)) reproduces x bit for bit.
    rng = np.random.default_rng(20240823)
    arr = np.concatenate(
        [
            rng.standard_normal(400_000),
            rng.uniform(-1e150, 1e150, 300_000),
            rng.standard_normal(300_000) * 1e-290,
            np.array(
                [
                    0.0,
                    1.0,
                    -1.0,
                    5e-324,
                    np.finfo(np.float64).tiny,
                    np.finfo(np.float64).max,
                    np.finfo(np.float64).eps,
                ]
            ),
        ]
    )
    assert arr.size >= 10**6
    back = np.fromiter(
        (demote(rationalize(x)) for x in arr.tolist()), dtype=np.float64, count=arr.size
    )
    assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))

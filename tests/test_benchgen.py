import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from irmcg.analysis import CONVERGED, ZERO_INITIAL_RESIDUAL
from irmcg.arithmetic import EXACT, F64
from irmcg.benchgen import (
    RHS_EXPLICIT,
    RHS_ONES,
    RHS_RANDOM,
    RotationPlan,
    SpectrumSpec,
    gen_diagonal,
    gen_inverse,
    gen_rotated,
    gen_spring_chain,
    parse_spectrum_inline,
    read_spectrum_file,
    random_plan,
    write_spectrum_file,
)
from irmcg.errors import (
    DimensionError,
    ExactRequired,
    FormatError,
    InvalidRotation,
    InvalidStiffness,
    IoError,
)
from irmcg.linalg import (
    SymmetricMatrix,
    Vector,
    condition_estimate,
    demote_matrix,
    matvec,
    spd_check,
)
from irmcg.solvers import CG, SolverConfig, solve

ROT_12 = RotationPlan(((0, 1, F(3, 5), F(4, 5)),))


def seeded_spec(seed, max_items=4, max_mult=3):
    rng = random.Random(seed)
    count = rng.randint(1, max_items)
    eigs = rng.sample(range(1, 40), count)
    items = tuple(
        (F(e), rng.randint(1, max_mult), rng.random() < 0.8) for e in eigs
    )
    if not any(active for _, _, active in items):
        items = items[:-1] + ((items[-1][0], items[-1][1], True),)
    return SpectrumSpec(items)


class TestSpectrumSpec:
    def test_rejects_duplicate_eigenvalues(self):
        with pytest.raises(ValueError):
            SpectrumSpec(((1, 1, True), (1, 2, True)))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SpectrumSpec(((0, 1, True),))

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            SpectrumSpec(((2, 0, True),))

    def test_random_rule_needs_seed(self):
        with pytest.raises(ValueError):
            SpectrumSpec(((2, 1, True),), rhs_rule=RHS_RANDOM)

    def test_explicit_rhs_must_load_active_blocks(self):
        with pytest.raises(ValueError):
            SpectrumSpec(
                ((2, 2, True), (5, 1, True)),
                rhs_rule=RHS_EXPLICIT,
                rhs_values=(0, 0, 1),
            )

    def test_explicit_rhs_must_zero_inactive_blocks(self):
        with pytest.raises(ValueError):
            SpectrumSpec(
                ((2, 1, True), (5, 1, False)),
                rhs_rule=RHS_EXPLICIT,
                rhs_values=(1, 1),
            )

    def test_counts(self):
        spec = SpectrumSpec(((1, 2, True), (4, 3, False), (9, 1, True)))
        assert spec.n == 6 and spec.m == 2


class TestGenDiagonal:
    def test_three_distinct_active(self):
        D, b, m = gen_diagonal(SpectrumSpec(((1, 1, True), (2, 1, True), (3, 1, True))))
        assert D == SymmetricMatrix.diagonal([1, 2, 3])
        assert b == Vector.exact([1, 1, 1])
        assert m == 3

    def test_multiplicity_counted_once(self):
        D, b, m = gen_diagonal(SpectrumSpec(((2, 2, True), (5, 1, True))))
        assert D == SymmetricMatrix.diagonal([2, 2, 5])
        assert b == Vector.exact([1, 1, 1])
        assert m == 2

    def test_inactive_block_gets_zero_rhs(self):
        D, b, m = gen_diagonal(SpectrumSpec(((1, 1, True), (7, 1, False))))
        assert D == SymmetricMatrix.diagonal([1, 7])
        assert b == Vector.exact([1, 0])
        assert m == 1

    def test_random_rhs_is_seeded_and_respects_activity(self):
        spec = SpectrumSpec(
            ((2, 2, True), (5, 1, False)), rhs_rule=RHS_RANDOM, rhs_seed=42
        )
        _, b1, _ = gen_diagonal(spec)
        _, b2, _ = gen_diagonal(spec)
        assert b1 == b2
        assert b1[0] != 0 and b1[1] != 0 and b1[2] == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_exact_methods_terminate_at_m(self, seed):
        spec = seeded_spec(seed)
        D, b, m = gen_diagonal(spec)
        for cfg in (SolverConfig(), SolverConfig(method=CG)):
            _, trace = solve(D, b, cfg=cfg)
            assert trace.termination == CONVERGED
            assert trace.steps == m
            assert trace.records[-1].rr == 0


class TestRotationPlan:
    def test_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            RotationPlan(((1, 1, F(3, 5), F(4, 5)),))

    def test_rejects_non_pythagorean(self):
        with pytest.raises(InvalidRotation):
            RotationPlan(((0, 1, F(1, 2), F(1, 2)),))

    def test_random_plan_is_deterministic(self):
        assert random_plan(5, 4, 9).steps == random_plan(5, 4, 9).steps
        assert len(random_plan(5, 4, 9).steps) == 4
        assert random_plan(1, 3, 0).steps == ()

    def test_random_plan_rejects_a_negative_count(self):
        with pytest.raises(ValueError):
            random_plan(5, -3, 0)

    def test_random_plan_rejects_a_fractional_count(self):
        with pytest.raises(ValueError, match="rotation count must be an integer"):
            random_plan(5, 2.5, 0)


class TestGenRotated:
    def test_two_by_two_exact_entries(self):
        spec = SpectrumSpec(((1, 1, True), (4, 1, True)))
        A, b, m = gen_rotated(spec, ROT_12)
        assert A == SymmetricMatrix.from_rows(
            [[F(73, 25), F(-36, 25)], [F(-36, 25), F(52, 25)]]
        )
        rows = oracles.unpack(A)
        assert rows[0][0] + rows[1][1] == 5  # trace = 1 + 4
        assert oracles.det(rows) == 4  # det = 1 * 4
        assert b == Vector.exact([F(-1, 5), F(7, 5)])
        assert m == 2

    def test_empty_plan_is_identity(self):
        spec = SpectrumSpec(((1, 1, True), (4, 1, True)))
        D, bd, _ = gen_diagonal(spec)
        A, b, _ = gen_rotated(spec, RotationPlan(()))
        assert A.full() == D.full()
        assert b == bd

    def test_plan_then_inverse_restores_diagonal(self):
        spec = SpectrumSpec(((1, 2, True), (3, 1, True), (7, 1, False)))
        plan = random_plan(4, 6, seed=13)
        D, bd, _ = gen_diagonal(spec)
        A, b, _ = gen_rotated(spec, RotationPlan(plan.steps + plan.inverse().steps))
        assert A.full() == D.full()
        assert b == bd

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 7), st.integers(0, 14), st.booleans())
    def test_matches_fraction_rotation_oracle(self, seed, n, count, explicit):
        # Fractional eigenvalues, an explicit fractional rhs, and plans that
        # reuse indices (and whole pairs, back to back) against the plain
        # Fraction loop.
        rng = random.Random(seed)
        eigs = rng.sample([F(1), F(3, 7), F(5, 2), F(11, 6), F(9), F(13, 10), F(2, 9)], n)
        rhs = [F(3, 7)] + [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n - 1)]
        items = tuple((e, 1, q != 0 or not explicit) for e, q in zip(eigs, rhs))
        spec = (SpectrumSpec(items, rhs_rule=RHS_EXPLICIT, rhs_values=rhs) if explicit
                else SpectrumSpec(items, rhs_rule=RHS_RANDOM, rhs_seed=seed))
        steps = list(random_plan(n, count, seed).steps)
        if steps:
            steps.insert(rng.randrange(len(steps)), steps[rng.randrange(len(steps))])
        plan = RotationPlan(tuple(steps))
        D, bd, m = gen_diagonal(spec)
        rows, want_b = oracles.rotate(D.diag(), list(bd.data), plan.steps)
        A, b, m_rot = gen_rotated(spec, plan)
        assert oracles.unpack(A) == rows
        assert list(b.data) == want_b
        assert m_rot == m

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(0, 20),
           st.sampled_from([RHS_ONES, RHS_RANDOM, RHS_EXPLICIT]))
    def test_matches_the_fraction_tail(self, seed, count, rotations, rule):
        # Random rational spectra (unrelated denominators, multiplicities,
        # inactive items) and plans: the integer constructors give the
        # matrix and rhs, with the same den, that a Fraction per entry gives.
        rng = random.Random(seed)
        dens = [1, 2, 3, 7, 12, 25, 2**61 - 1, 10**9 + 7]
        eigs = {F(rng.randint(1, 10**6), rng.choice(dens)) for _ in range(count)}
        items = tuple((e, rng.randint(1, 3), rng.random() < 0.8) for e in eigs)
        if not any(active for _, _, active in items):
            items = ((items[0][0], items[0][1], True),) + items[1:]
        rhs = []
        for _, mult, active in items:
            block = [F(rng.randint(-9, 9), rng.choice(dens)) if active else F(0)
                     for _ in range(mult)]
            if active and not any(block):
                block[0] = F(1, rng.choice(dens))
            rhs.extend(block)
        spec = SpectrumSpec(items, rhs_rule=rule, rhs_values=rhs, rhs_seed=seed)
        plan = random_plan(spec.n, rotations, seed)
        A, b, m = gen_rotated(spec, plan)
        want_A, want_b, want_m = oracles.fraction_gen_rotated(spec, plan)
        assert (A.den, A.kind) == (want_A.den, want_A.kind) and A == want_A
        assert b.den == want_b.den and b == want_b and m == want_m

    def test_index_out_of_range(self):
        spec = SpectrumSpec(((1, 1, True), (4, 1, True)))
        with pytest.raises(DimensionError):
            gen_rotated(spec, RotationPlan(((0, 5, F(3, 5), F(4, 5)),)))

    def test_convergence_history_matches_diagonal_system(self):
        spec = SpectrumSpec(((2, 2, True), (5, 1, True), (11, 1, True)))
        plan = random_plan(4, 5, seed=3)
        D, bd, _ = gen_diagonal(spec)
        A, b, _ = gen_rotated(spec, plan)
        _, t_diag = solve(D, bd)
        _, t_rot = solve(A, b)
        assert [rec.rr for rec in t_diag.records] == [rec.rr for rec in t_rot.records]

    def test_condition_estimate_matches_spectrum(self):
        spec = SpectrumSpec(((2, 1, True), (3, 1, True), (12, 1, True)))
        A, _, _ = gen_rotated(spec, random_plan(3, 4, seed=8))
        assert abs(condition_estimate(A) - 6.0) <= 6e-6


class TestGenInverse:
    def test_diagonal(self):
        A = SymmetricMatrix.diagonal([2, 3])
        assert gen_inverse(A, Vector.exact([1, 1])) == Vector.exact([2, 3])

    def test_dense_round_trip(self):
        A = SymmetricMatrix.from_rows([[2, 1], [1, 2]])
        x_star = Vector.exact([1, -1])
        b = gen_inverse(A, x_star)
        assert b == Vector.exact([1, -1])
        x, trace = solve(A, b)
        assert trace.termination == CONVERGED
        assert x == x_star

    def test_zero_solution_converges_in_zero_steps(self):
        A = SymmetricMatrix.from_rows([[2, 1], [1, 2]])
        b = gen_inverse(A, Vector.zeros(2, EXACT))
        assert b.is_zero()
        x, trace = solve(A, b)
        assert trace.termination == ZERO_INITIAL_RESIDUAL
        assert len(trace.records) == 0
        assert x.is_zero()

    def test_rejects_double_backend(self):
        A = demote_matrix(SymmetricMatrix.diagonal([2, 3]))
        with pytest.raises(ExactRequired):
            gen_inverse(A, Vector.f64([1.0, 1.0]))


class TestSpringChain:
    def test_two_mass_unit_chain(self):
        A = gen_spring_chain(2, [1, 1, 1])
        assert A == SymmetricMatrix.from_rows([[2, -1], [-1, 2]])

    def test_single_mass_sums_adjacent(self):
        A = gen_spring_chain(1, [3, 5])
        assert A == SymmetricMatrix.from_rows([[8]])

    def test_rejects_nonpositive_stiffness(self):
        with pytest.raises(InvalidStiffness):
            gen_spring_chain(2, [1, 0, 1])

    def test_rejects_wrong_count(self):
        with pytest.raises(DimensionError):
            gen_spring_chain(2, [1, 1])

    def test_rejects_a_fractional_size(self):
        with pytest.raises(ValueError, match="chain size must be an integer"):
            gen_spring_chain(2.5, [1, 1, 1])

    # deadline off: the leading-minor oracle is factorial in n.
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 7))
    def test_always_spd(self, seed, n):
        rng = random.Random(seed)
        ks = [F(rng.randint(1, 20), rng.randint(1, 5)) for _ in range(n + 1)]
        A = gen_spring_chain(n, ks)
        assert spd_check(A) is True
        minors = oracles.leading_minors(oracles.unpack(A))
        assert all(d > 0 for d in minors)

    def test_tridiagonal_assembly(self):
        A = gen_spring_chain(3, [1, 2, 2, 1])
        assert A == SymmetricMatrix.from_rows(
            [[3, -2, 0], [-2, 4, -2], [0, -2, 3]]
        )


class TestSpectrumFormats:
    def test_inline_round_trip(self):
        spec = parse_spectrum_inline("1x2,3/2x1,10x3i")
        assert spec.items == (
            (F(1), 2, True),
            (F(3, 2), 1, True),
            (F(10), 3, False),
        )
        assert spec.n == 6 and spec.m == 2

    def test_inline_rejects_garbage(self):
        for text in ("", "2", "2x", "x3", "2x2,,3x1", "1.5x2"):
            with pytest.raises(FormatError):
                parse_spectrum_inline(text)

    def test_inline_rejects_duplicate_eigenvalue(self):
        with pytest.raises(FormatError):
            parse_spectrum_inline("2x1,2x2")

    def test_file_round_trip(self, tmp_path):
        spec = SpectrumSpec(
            ((1, 2, True), (F(3, 2), 1, False)),
            rhs_rule=RHS_EXPLICIT,
            rhs_values=(1, F(-1, 2), 0),
        )
        path = tmp_path / "spec.txt"
        write_spectrum_file(spec, path)
        assert read_spectrum_file(path) == spec

    def test_file_round_trip_random_rhs(self, tmp_path):
        spec = SpectrumSpec(((2, 1, True),), rhs_rule=RHS_RANDOM, rhs_seed=77)
        path = tmp_path / "spec.txt"
        write_spectrum_file(spec, path)
        assert read_spectrum_file(path) == spec

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_spectrum_file(tmp_path / "absent.txt")

    def test_unwritable_path_is_io_error(self, tmp_path):
        spec = SpectrumSpec(((2, 1, True),))
        with pytest.raises(IoError):
            write_spectrum_file(spec, tmp_path / "no-such-dir" / "spec.txt")

    def test_file_requires_rhs_line(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("2 1 active\n")
        with pytest.raises(FormatError):
            read_spectrum_file(path)

    def test_file_rejects_rhs_before_items(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("rhs ones\n2 1 active\n")
        with pytest.raises(FormatError):
            read_spectrum_file(path)

    def test_file_rejects_explicit_violating_activity(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("2 1 active\n5 1 inactive\nrhs explicit 1 1\n")
        with pytest.raises(FormatError):
            read_spectrum_file(path)

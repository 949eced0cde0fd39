import math

import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from cbre2.branching import BranchingSpec, effective_drift_matrix
from cbre2.env import EnvPath, LevyEnvSpec, _base_grid, env_increments, levy_exponent, sample_env_path
from cbre2.errors import (
    DivergentCoefficient,
    ExponentOverflow,
    HypothesisViolated,
)
from cbre2.measures import Atom1D, Atom2D, AxisTail, JumpMeasure, JumpMeasure1D, Tail1D
from cbre2.moments import (
    _backward_steps,
    annealed_laplace_mc,
    build_moment_generator,
    first_moment_closed_form,
    initial_moment_vector,
    martingale_factors,
    max_feasible_degree,
    moment_polynomial,
    moment_table,
    monomial_basis,
    phi_eval_vec,
    quenched_laplace,
    recursion_check,
    recursion_coefficients,
    solve_moment_ode,
)
from cbre2.simulate import simulate_paths
from cbre2.truncation import TruncationPredicate, norm_cap, unit_square
from tests.conftest import bundled_scenario

MIXED = bundled_scenario("mixed", 100_000, 1e-3)
ENV, BSPEC, X0 = MIXED.environment, MIXED.branching, MIXED.x0


def test_basis_order_and_size():
    basis = monomial_basis(3)
    assert basis == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))


def test_degree_one_block_matches_effective_drift():
    gen = build_moment_generator(ENV, BSPEC, 1)
    expected = levy_exponent(ENV, 1) * np.eye(2) - effective_drift_matrix(BSPEC).T
    assert np.allclose(gen.matrix, expected, rtol=0, atol=1e-14)


def test_no_branching_generator_is_diagonal():
    gen = build_moment_generator(ENV, BranchingSpec(), 3)
    diag = np.array([levy_exponent(ENV, p + q) for p, q in gen.basis])
    assert np.allclose(gen.matrix, np.diag(diag))


def test_feller_row():
    gen = build_moment_generator(LevyEnvSpec(), BranchingSpec(c1=0.7), 2)
    row = gen.matrix[gen.index(2, 0)]
    expected = np.zeros(len(gen.basis))
    expected[gen.index(1, 0)] = 2 * 0.7
    assert np.allclose(row, expected)


def test_rows_couple_only_downward_in_degree():
    gen = build_moment_generator(ENV, BSPEC, 4)
    for i, (p, q) in enumerate(gen.basis):
        for j, (r, s) in enumerate(gen.basis):
            if gen.matrix[i, j] != 0.0:
                assert r + s <= p + q


def test_hypothesis_violated_for_heavy_tail():
    heavy = BranchingSpec(
        m2=JumpMeasure(tails=[AxisTail(1, "pareto", 0.5, 2.5, 1.0)])
    )
    build_moment_generator(LevyEnvSpec(), heavy, 2)
    with pytest.raises(HypothesisViolated):
        build_moment_generator(LevyEnvSpec(), heavy, 3)
    # norm-cap truncation restores every order
    build_moment_generator(LevyEnvSpec(), heavy, 5, norm_cap(3.0))
    assert max_feasible_degree(LevyEnvSpec(), heavy, 6) == 2


def test_env_only_moments_exponential():
    table = moment_table(ENV, BranchingSpec(), X0, [0.3, 1.0], 3)
    for p, q in monomial_basis(3):
        for t in (0.3, 1.0):
            expected = X0[0] ** p * X0[1] ** q * math.exp(levy_exponent(ENV, p + q) * t)
            assert table.entry(p, q, t) == pytest.approx(expected, rel=1e-12)


def test_feller_second_moment_closed_form():
    table = moment_table(LevyEnvSpec(), BranchingSpec(c1=0.4), (1.5, 0.0), [0.8], 2)
    assert table.entry(2, 0, 0.8) == pytest.approx(1.5**2 + 2 * 0.4 * 1.5 * 0.8, rel=1e-12)
    assert table.entry(1, 0, 0.8) == pytest.approx(1.5, rel=1e-12)


def test_first_moment_closed_form_trivia():
    assert np.allclose(
        first_moment_closed_form(LevyEnvSpec(), BranchingSpec(), (2.0, 3.0), 5.0), [2.0, 3.0]
    )
    out = first_moment_closed_form(
        LevyEnvSpec(), BranchingSpec(b11=0.5, b22=-0.25), (2.0, 3.0), 2.0
    )
    assert np.allclose(out, [2.0 * math.exp(-1.0), 3.0 * math.exp(0.5)], rtol=1e-14)
    # beta~ = 0.5, b = 0, t = 2 scales by e
    env = LevyEnvSpec(a=0.5)
    assert np.allclose(
        first_moment_closed_form(env, BranchingSpec(), (1.0, 2.0), 2.0),
        math.e * np.array([1.0, 2.0]),
        rtol=1e-14,
    )


@pytest.mark.parametrize(
    "pred",
    [norm_cap(1.0), TruncationPredicate(unit_square().branching, env_clip=1.0)],
    ids=["norm_cap", "restricted"],
)
def test_truncated_first_moment_and_martingale_factors_match_the_table(pred):
    """The closed form and the martingale factors describe the table's truncated system."""
    table = moment_table(ENV, BSPEC, X0, [0.7], 1, pred)
    mean = first_moment_closed_form(ENV, BSPEC, X0, 0.7, pred)
    assert mean == pytest.approx([table.entry(1, 0, 0.7), table.entry(0, 1, 0.7)], rel=1e-12)
    (factor,) = martingale_factors(ENV, BSPEC, [0.7], pred)
    assert factor @ mean == pytest.approx(X0, rel=1e-12)


def test_degree_one_marginals_match_closed_form():
    ts = [0.1, 0.35, 0.7, 1.0]
    table = moment_table(ENV, BSPEC, X0, ts, 4)
    for t in ts:
        cf = first_moment_closed_form(ENV, BSPEC, X0, t)
        got = np.array([table.entry(1, 0, t), table.entry(0, 1, t)])
        assert np.max(np.abs(got - cf)) <= 1e-9 * max(1.0, np.max(np.abs(cf)))


def test_recursion_coefficient_examples():
    a, _ = recursion_coefficients(BranchingSpec(), 3, 1)
    assert a == [0.0, 0.0]
    a, _ = recursion_coefficients(BranchingSpec(c1=2.0), 3, 1)
    assert a[1] == 12.0  # c1 n (n-1)
    _, b = recursion_coefficients(BranchingSpec(b21=-1.0), 2, 1)
    assert b[1] == 2.0  # -b21 n
    _, b = recursion_coefficients(BranchingSpec(b12=-0.5), 2, 2)
    assert b[1] == 1.0


def test_recursion_coefficient_divergence():
    heavy = JumpMeasure(tails=[AxisTail(1, "pareto", 0.5, 2.5, 1.0)])
    with pytest.raises(DivergentCoefficient):
        recursion_coefficients(BranchingSpec(m1=heavy), 4, 1)


def test_recursion_check_frozen_process():
    table = moment_table(LevyEnvSpec(), BranchingSpec(), (1.3, 0.8), [1.0], 3)
    for n in (2, 3):
        for ti in (1, 2):
            assert recursion_check(BranchingSpec(), table, n, ti, 1.0)[2] < 1e-12


def test_recursion_check_mixed_small():
    table = moment_table(ENV, BSPEC, X0, [0.5, 1.0], 3)
    for n in (2, 3):
        for ti in (1, 2):
            for t in (0.5, 1.0):
                assert recursion_check(BSPEC, table, n, ti, t)[2] < 1e-8


def test_recursion_check_mixed_degree6_exact_convolution():
    """The block-exponential convolution leaves only rounding in the residual."""
    table = moment_table(ENV, BSPEC, X0, [0.5, 1.0], 6)
    for n in range(2, 7):
        for ti in (1, 2):
            for t in (0.5, 1.0):
                lhs, rhs, res = recursion_check(BSPEC, table, n, ti, t)
                assert res < 1e-10
                target = table.entry(*((n, 0) if ti == 1 else (0, n)), t)
                assert abs(lhs - target) <= 1e-11 * target


@pytest.mark.parametrize(
    "grid",
    [
        [0.7, 0.0, 0.25, 1.0, 0.25, 0.013, 0.7, 0.5],  # unsorted, duplicated, non-uniform
        [1.0, 0.5, 0.0],
        [0.3],
        np.linspace(0.0, 1.0, 1001),
    ],
)
def test_grid_stepping_matches_per_point_expm(grid):
    # per-point expm is the looser side: against 30 digits it is 1.4e-12 off
    # at degree 4 (t = 0.78) and 1.5e-11 at degree 6 (t = 1), where grid
    # stepping is 6e-14 and 8e-14 off; so the 1e-12 comparison runs at degree 3
    gen = build_moment_generator(ENV, BSPEC, 3)
    table = solve_moment_ode(gen, X0, grid)
    m0 = initial_moment_vector(gen, X0)
    for k, t in enumerate(np.asarray(grid)):
        got = np.array([table.values[pq][k] for pq in gen.basis])
        np.testing.assert_allclose(got, expm(gen.matrix * t) @ m0, rtol=1e-12, atol=0)


def test_grid_stepping_against_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    gen = build_moment_generator(ENV, BSPEC, 6)
    table = solve_moment_ode(gen, X0, np.linspace(0.0, 1.0, 1001))
    m0 = initial_moment_vector(gen, X0)
    ref = mp.expm(mp.matrix(gen.matrix.tolist())) * mp.matrix(m0.tolist())
    got = [table.values[pq][-1] for pq in gen.basis]
    np.testing.assert_allclose(got, [float(x) for x in ref], rtol=1e-12, atol=0)


def test_grid_stepping_degree7_first_moments():
    grid = np.linspace(0.0, 1.0, 1001)
    table = moment_table(ENV, BSPEC, X0, grid, 7)
    for k, t in enumerate(grid):
        ref = first_moment_closed_form(ENV, BSPEC, X0, t)
        got = (table.values[(1, 0)][k], table.values[(0, 1)][k])
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)


def test_moment_overflow_names_degree_and_beta():
    gen = build_moment_generator(ENV, BSPEC, 8)
    with pytest.raises(ExponentOverflow, match=r"degree-8 .*beta\(8\) = 1651\.7"):
        solve_moment_ode(gen, X0, [0.0, 0.5, 1.0])


def test_moment_table_flags_infeasible_degrees():
    heavy = BranchingSpec(m2=JumpMeasure(tails=[AxisTail(1, "pareto", 0.5, 2.5, 1.0)]))
    table = moment_table(LevyEnvSpec(), heavy, (1.0, 1.0), [0.5], 3)
    assert table.finite[(1, 0)] and table.finite[(2, 0)]
    assert not table.finite[(3, 0)]
    assert math.isinf(table.values[(3, 0)][0])
    with pytest.raises(HypothesisViolated):
        recursion_check(heavy, table, 3, 1, 0.5)[2]


def test_moment_table_all_infinite_when_env_divergent():
    env = LevyEnvSpec(nu=JumpMeasure1D(tails=[Tail1D("pareto", 0.5, 2.0, 1.0)]))
    table = moment_table(env, BranchingSpec(), (1.0, 1.0), [0.5], 2)
    assert not any(table.finite.values())


def test_truncation_never_increases_moments():
    sc = bundled_scenario("mixed", 100_000, 1e-3)
    spec = BranchingSpec(
        b11=sc.branching.b11,
        b12=sc.branching.b12,
        b21=sc.branching.b21,
        b22=sc.branching.b22,
        c1=sc.branching.c1,
        c2=sc.branching.c2,
        m1=sc.branching.m1,
        m2=JumpMeasure(
            atoms=[Atom2D(0.3, 0.3, 0.5)], tails=[AxisTail(1, "pareto", 0.4, 3.5, 1.0)]
        ),
    )
    full = moment_table(ENV, spec, X0, [1.0], 3)
    capped = moment_table(ENV, spec, X0, [1.0], 3, norm_cap(2.0))
    for pq in monomial_basis(3):
        assert capped.values[pq][0] <= full.values[pq][0] * (1 + 1e-12) + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    m1_mass=st.floats(0.05, 0.8),
    z1=st.floats(0.05, 1.5),
    z2=st.floats(0.0, 1.5),
    c1=st.floats(0.0, 0.5),
    a=st.floats(-0.5, 0.5),
)
def test_cauchy_schwarz_on_tables(m1_mass, z1, z2, c1, a):
    spec = BranchingSpec(
        b11=0.2, b12=-0.1, b21=-0.1, b22=0.3, c1=c1,
        m1=JumpMeasure(atoms=[Atom2D(m1_mass, z1, z2)]),
    )
    env = LevyEnvSpec(a=a, sigma1=0.2)
    table = moment_table(env, spec, (1.2, 0.7), [0.8], 4)
    m11 = table.entry(1, 1, 0.8)
    m20 = table.entry(2, 0, 0.8)
    m02 = table.entry(0, 2, 0.8)
    assert m11**2 <= m20 * m02 * (1 + 1e-9)
    m21 = table.entry(2, 1, 0.8)
    assert m21**2 <= table.entry(4, 0, 0.8) * m02 * (1 + 1e-9)


def test_martingale_transform_trivia():
    sc = bundled_scenario("mixed", 100_000, 1e-3)
    paths = simulate_paths(sc, 2, 99)
    for p in paths:
        m = [f @ x for f, x in zip(martingale_factors(ENV, BSPEC, p.grid), p.states)]
        assert np.allclose(m[0], sc.x0)
    frozen = simulate_paths(
        type(sc)(**{**sc.__dict__, "environment": LevyEnvSpec(), "branching": BranchingSpec()}),
        2,
        1,
    )
    for p in frozen:
        factors = martingale_factors(LevyEnvSpec(), BranchingSpec(), p.grid)
        m = [f @ x for f, x in zip(factors, p.states)]
        assert np.allclose(m, np.tile(sc.x0, (len(p.grid), 1)))


def test_polynomial_fit_degrees():
    for k in (1, 2, 3):
        assert tuple(moment_polynomial(ENV, BSPEC, k, 2, 0.7)) == monomial_basis(k)
    poly = moment_polynomial(LevyEnvSpec(), BranchingSpec(c1=0.4), 2, 1, 0.5)
    assert poly[(2, 0)] == pytest.approx(1.0, abs=1e-9)
    assert poly[(1, 0)] == pytest.approx(2 * 0.4 * 0.5, abs=1e-9)
    assert [poly[pq] for pq in ((0, 1), (1, 1), (0, 2))] == pytest.approx([0.0] * 3, abs=1e-12)


def test_quenched_laplace_no_branching():
    env = LevyEnvSpec(a=0.2, sigma1=0.4, nu=JumpMeasure1D(atoms=[Atom1D(1.0, 0.6)]))
    path = sample_env_path(env, 1.0, 0.01, np.random.default_rng(3))
    ql = quenched_laplace(path, BranchingSpec(), (0.7, 0.3), 1.0)
    expected = math.exp(path.xi_values()[-1]) * np.array([0.7, 0.3])
    assert np.allclose(ql.v0, expected, rtol=1e-12)
    assert np.allclose(ql.v[-1], [0.7, 0.3])


def test_quenched_laplace_feller_closed_form():
    path = sample_env_path(LevyEnvSpec(), 1.0, 1e-4, np.random.default_rng(0))
    ql = quenched_laplace(path, BranchingSpec(c1=1.0), (1.0, 0.0), 1.0)
    assert abs(ql.v0[0] - 1.0 / (1.0 + 1.0 * 1.0 * 1.0)) < 1e-8
    assert ql.v0[1] == 0.0


@settings(max_examples=20, deadline=None)
@given(
    l1=st.floats(0.0, 2.0),
    l2=st.floats(0.0, 2.0),
    bump=st.floats(0.0, 1.0),
)
def test_quenched_laplace_monotone_in_lambda(l1, l2, bump):
    path = sample_env_path(LevyEnvSpec(a=0.1, sigma1=0.3), 0.5, 0.01, np.random.default_rng(8))
    spec = BranchingSpec(c1=0.3, c2=0.2, m1=JumpMeasure(atoms=[Atom2D(0.4, 0.35, 0.2)]))
    lo = quenched_laplace(path, spec, (l1, l2), 0.5)
    hi = quenched_laplace(path, spec, (l1 + bump, l2 + 0.5 * bump), 0.5)
    assert (lo.v >= -1e-15).all()
    assert (lo.v <= hi.v + 1e-10).all()


def test_quenched_laplace_fixed_point_divergence():
    from cbre2.errors import FixedPointDivergence

    path = sample_env_path(LevyEnvSpec(), 1.0, 0.5, np.random.default_rng(0))
    with pytest.raises(FixedPointDivergence):
        quenched_laplace(path, BranchingSpec(c1=80.0), (2.0, 0.0), 1.0)


def test_backward_steps_reuse_phi(monkeypatch):
    """Each step's explicit half is the phi of the step before's last iterate, so a Feller
    solve makes at most 3 phi calls a step and one to start, not 4 a step."""
    import cbre2.moments

    calls = []

    def counted(spec, lam):
        calls.append(len(lam))
        return phi_eval_vec(spec, lam)

    monkeypatch.setattr(cbre2.moments, "phi_eval_vec", counted)
    steps = 1000
    path = sample_env_path(LevyEnvSpec(), 1.0, 1.0 / steps, np.random.default_rng(0))
    ql = quenched_laplace(path, BranchingSpec(c1=0.6), (1.0, 0.0), 1.0)
    assert len(ql.v) == steps + 1
    assert len(calls) <= 3 * steps + 1


def test_phi_eval_vec_matches_scalar(phi_reference):
    from cbre2.branching import phi_eval

    lam = np.array([[0.3, 0.7], [1.2, 0.0], [0.0, 0.0]])
    out = phi_eval_vec(BSPEC, lam)
    for k in range(len(lam)):
        assert np.allclose(out[k], phi_eval(BSPEC, lam[k]), rtol=1e-12)
    # tail measures evaluate too, and match an independent quadrature
    exp_tail = AxisTail(1, "exponential", 0.5, 2.0, 0.0)
    par_tail = AxisTail(1, "pareto", 0.5, 2.5, 1.0)
    tails = BranchingSpec(m1=JumpMeasure(tails=[exp_tail]), m2=JumpMeasure(tails=[par_tail]))
    out = phi_eval_vec(tails, lam)
    for k, (l1, _) in enumerate(lam):
        assert tuple(out[k]) == phi_eval(tails, lam[k])
        ref = (phi_reference(exp_tail, l1, True), phi_reference(par_tail, l1, False))
        assert np.allclose(out[k], ref, rtol=1e-11, atol=1e-14)


def _jumpy_path(seed, horizon=1.0, step=0.01):
    env = LevyEnvSpec(
        a=0.1, sigma1=0.3, nu=JumpMeasure1D(atoms=[Atom1D(4.0, 0.4), Atom1D(3.0, -1.5)])
    )
    return sample_env_path(env, horizon, step, np.random.default_rng(seed))


TAIL_SPEC = BranchingSpec(
    b11=0.2, b12=-0.1, b21=-0.05, b22=0.3, c1=0.1,
    m1=JumpMeasure(atoms=[Atom2D(0.5, 0.4, 0.25)]),
    m2=JumpMeasure(atoms=[Atom2D(0.3, 0.3, 0.5)], tails=[AxisTail(1, "pareto", 0.5, 2.5, 1.0)]),
)


def test_quenched_laplace_is_the_shared_solver_on_one_path():
    path = _jumpy_path(4)
    jumps = np.abs(path.xi_increments)  # Gaussian increments have sd 0.03 here
    assert (jumps > 0.3).sum() > 4 and (jumps > 1.0).any()  # several jumps, some large
    lam = np.array([0.7, 0.4])
    ql = quenched_laplace(path, TAIL_SPEC, lam, 1.0)
    increments = zip(np.diff(path.grid)[::-1], path.xi_increments[::-1])
    steps = _backward_steps(TAIL_SPEC, lam, increments, 1e-13)
    shared = np.concatenate(list(steps)[::-1])
    np.testing.assert_allclose(ql.v[:-1], shared, rtol=1e-15, atol=0)
    assert tuple(ql.v[-1]) == (0.7, 0.4)


def test_backward_solver_batches_paths():
    """Solving paths together agrees with solving each alone (shared grid)."""
    env = LevyEnvSpec(a=0.1, sigma1=0.3)
    paths = [sample_env_path(env, 0.5, 0.01, np.random.default_rng(s)) for s in range(4)]
    lam = np.array([0.9, 0.2])
    dxi = np.stack([p.xi_increments for p in paths])
    increments = zip(np.diff(paths[0].grid)[::-1], dxi.T[::-1])
    *_, v0 = _backward_steps(TAIL_SPEC, lam, increments, 1e-13)
    for k, p in enumerate(paths):
        np.testing.assert_allclose(v0[k], quenched_laplace(p, TAIL_SPEC, lam, 0.5).v0, rtol=1e-12)


@pytest.mark.parametrize("lam", [(-0.5, 0.2), (math.nan, 0.2), (0.7, math.inf)],
                         ids=["negative", "nan", "inf"])
def test_laplace_solvers_reject_a_bad_lambda(lam):
    """lam must be finite and >= 0 in both solvers; a bad lam is not a step too coarse."""
    sc = bundled_scenario("laplace", 10_000, 2e-3)
    path = sample_env_path(sc.environment, 0.5, 0.01, np.random.default_rng(0))
    with pytest.raises(ValueError, match="lam must be finite"):
        quenched_laplace(path, sc.branching, lam, 0.5)
    with pytest.raises(ValueError, match="lam must be finite"):
        annealed_laplace_mc(sc.environment, sc.branching, sc.x0, lam, 0.5, 20, 0.01, 1)


@pytest.mark.parametrize("name", ["laplace", "pareto"])
def test_annealed_laplace_is_the_mean_of_quenched_solves(name):
    """The annealed estimate averages exp(-<x0, v0>) over quenched solves of the same increments."""
    sc = bundled_scenario(name, 10_000, 2e-3)
    lam, t, step, n, seed = (0.7, 0.4), 0.5, 0.01, 200, 123
    est, _ = annealed_laplace_mc(sc.environment, sc.branching, sc.x0, lam, t, n, step, seed)
    grid = _base_grid(t, step)
    reflected = t - grid[::-1]
    incs = env_increments(sc.environment, reflected, step, n, np.random.default_rng(seed))
    dxi = np.array([np.broadcast_to(d, (n,)) for d in incs])[::-1]  # forward in time
    assert np.ptp(dxi.sum(axis=0)) > 0.5  # the paths differ
    vals = []
    for k in range(n):
        v0 = quenched_laplace(EnvPath(grid, dxi[:, k]), sc.branching, lam, t).v0
        vals.append(math.exp(-(v0[0] * sc.x0[0] + v0[1] * sc.x0[1])))
    assert est == pytest.approx(math.fsum(vals) / n, rel=1e-13, abs=0)


def test_annealed_laplace_matches_quenched_average():
    sc = bundled_scenario("laplace", 10_000, 2e-3)
    est, se = annealed_laplace_mc(
        sc.environment, sc.branching, sc.x0, sc.laplace_lambda, 0.5, 3000, 0.01, 123
    )
    # independent estimate: average exp(-<x0, v0>) over separately sampled paths
    rng = np.random.default_rng(9)
    vals = []
    for _ in range(300):
        path = sample_env_path(sc.environment, 0.5, 0.01, rng)
        ql = quenched_laplace(path, sc.branching, sc.laplace_lambda, 0.5)
        vals.append(math.exp(-(ql.v0[0] * sc.x0[0] + ql.v0[1] * sc.x0[1])))
    ref = np.mean(vals)
    ref_se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(est - ref) <= 3.5 * math.hypot(se, ref_se)

"""Broyden solver and fixed-point iterator against closed forms and the
long fixed-point oracle."""

import warnings

import numpy as np
import pytest

from ifr.rng import CounterRng
from ifr.solver import (
    DivergenceError,
    SolverConfig,
    SolveStatus,
    broyden_solve,
    fixed_point_iterate,
)

from conftest import rand


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    for rel_tol in (0.0, -1e-6, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SolverConfig(rel_tol=rel_tol)


def test_negation_residual_roots_in_one_step():
    x0 = rand(1, (6,))
    res = broyden_solve(lambda v: -v, x0[None], SolverConfig())
    assert np.abs(res.root).max() == 0.0
    assert res.converged
    assert res.problems[0].best_iteration == 1


def test_scalar_fixed_point_closed_form():
    res = broyden_solve(lambda v: 0.5 * v + 1.0 - v, np.zeros((1, 1)), SolverConfig())
    assert abs(res.root[0, 0] - 2.0) < 1e-10
    assert res.converged


def test_contraction_root_matches_long_fixed_point_oracle():
    rng = CounterRng(9)
    a = rng.normal((16, 16)) / 4.0
    b = rng.normal((16,))

    def contraction(h):
        return 0.4 * np.tanh(a @ h) + b

    res = broyden_solve(
        lambda h: contraction(h[0])[None] - h, np.zeros((1, 16)),
        SolverConfig(max_iters=40, rel_tol=1e-13),
    )
    oracle, _ = fixed_point_iterate(contraction, np.zeros(16), 10_000)
    assert np.abs(res.root[0] - oracle).max() < 1e-8


@pytest.mark.parametrize("dim", [4, 16, 64])
def test_linear_residual_converges_within_two_dim_iterations(dim):
    rng = CounterRng(100 + dim)
    m = rng.normal((dim, dim)) * (0.4 / np.sqrt(dim))
    np.fill_diagonal(m, m.diagonal() - 1.0)  # g(x) = Mx + c with M ~ -(I - small)
    c = rng.normal((dim,))
    res = broyden_solve(
        lambda v: v @ m.T + c, np.zeros((1, dim)), SolverConfig(max_iters=2 * dim, rel_tol=1e-8)
    ).problems[0]
    assert res.converged
    assert res.residual_trace[res.best_iteration] < 1e-8


def test_best_iteration_is_argmin_of_trace():
    rng = CounterRng(55)
    a = rng.normal((8, 8)) / 3.0

    def residual(v):
        return np.tanh(v @ a.T) + 0.5 - v

    res = broyden_solve(
        residual, rng.normal((1, 8)), SolverConfig(max_iters=10, rel_tol=1e-14)
    ).problems[0]
    assert res.residual_trace[res.best_iteration] == min(res.residual_trace)
    assert res.iterations_used == len(res.residual_trace)


def test_solver_is_deterministic():
    rng = CounterRng(66)
    a = rng.normal((12, 12)) / 4.0
    x0 = rng.normal((1, 12))

    def residual(v):
        return 0.3 * np.tanh(v @ a.T) + 1.0 - v

    r1 = broyden_solve(residual, x0, SolverConfig())
    r2 = broyden_solve(residual, x0, SolverConfig())
    assert np.array_equal(r1.root, r2.root)
    assert r1.problems[0].residual_trace == r2.problems[0].residual_trace


def test_divergence_returns_best_iterate_with_status():
    # cubic residual: the first fixed-point-style step explodes the
    # relative residual past the divergence factor
    def residual(v):
        return v**3

    res = broyden_solve(residual, np.full((1, 3), 10.0), SolverConfig(max_iters=10)).problems[0]
    assert not res.converged
    assert res.status is SolveStatus.DIVERGED
    assert res.residual_trace[res.best_iteration] == min(res.residual_trace)


def test_nonfinite_residual_has_its_status():
    def residual(v):
        return v * np.inf

    res = broyden_solve(residual, np.ones((1, 2)), SolverConfig()).problems[0]
    assert not res.converged
    assert res.status is SolveStatus.NON_FINITE


def test_fixed_point_zero_steps_returns_start():
    x0 = rand(70, (5,))
    out, trace = fixed_point_iterate(lambda v: v + 1, x0, 0)
    assert np.array_equal(out, x0)
    assert trace == []


def test_fixed_point_geometric_series():
    out, trace = fixed_point_iterate(lambda v: 0.5 * v + 1.0, np.zeros(1), 10)
    assert out[0] == 1.998046875
    assert trace[0] == 1.0 and trace[1] == 0.5


@pytest.mark.parametrize("lipschitz", [0.3, 0.7, 0.95])
def test_fixed_point_contraction_ratio_bound(lipschitz):
    rng = CounterRng(80)
    q, _ = np.linalg.qr(rng.normal((10, 10)))
    a = q @ np.diag(np.linspace(lipschitz, lipschitz * 0.2, 10)) @ q.T
    b = rng.normal((10,))
    _, trace = fixed_point_iterate(lambda v: a @ v + b, np.zeros(10), 60)
    ratios = [t1 / t0 for t0, t1 in zip(trace, trace[1:]) if t0 > 1e-13]
    assert max(ratios) <= lipschitz + 1e-9


def test_fixed_point_nonfinite_aborts_with_step():
    # the first iterate (1e200, 1e200) is finite but its step norm overflows,
    # so the iteration stops at step 0 rather than recording an inf step
    with pytest.raises(DivergenceError) as err:
        fixed_point_iterate(lambda v: v * 1e200, np.ones(2), 10)
    assert err.value.step == 0


def test_broyden_runaway_residual_stops_as_diverged():
    # g(x) = 1e4 x^2 + 1 has no root; the first step from x0 = 0 lands where
    # |g| is 1e4 times |g(x0)|, past the default divergence factor of 1e3
    res = broyden_solve(lambda v: 1e4 * v * v + 1.0, np.zeros((1, 4)), SolverConfig())
    res = res.problems[0]
    assert res.status is SolveStatus.DIVERGED
    assert not res.converged
    assert res.iterations_used == 2


def test_fixed_point_step_norm_overflow_raises_at_that_step():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            fixed_point_iterate(lambda v: 1e8 * v, np.full(1, 1e300), 1)
    assert err.value.step == 0


def test_broyden_never_returns_a_point_worse_than_its_start():
    # the runaway step lands where |g| is 2.0e4; by relative residual it
    # beats x0 = 0 (whose entry is |g(0)| / 1e-9), but its absolute residual
    # is 1e4 times that of x0, so x0 stays the returned iterate
    residual = lambda v: 1e4 * v * v + 1.0
    res = broyden_solve(residual, np.zeros((1, 4)), SolverConfig())
    assert res.problems[0].best_iteration == 0
    assert np.array_equal(res.root, np.zeros((1, 4)))
    assert np.linalg.norm(residual(res.root)) == 2.0


def _contractions(count: int, dim: int = 12):
    rng = CounterRng(321)
    mats = [rng.normal((dim, dim)) * (0.3 + 0.1 * i) / np.sqrt(dim) for i in range(count)]
    offsets = [rng.normal((dim,)) for _ in range(count)]

    def single(i):
        return lambda v: np.tanh(v @ mats[i].T) + offsets[i] - v

    def stacked(v):
        return np.stack([single(i)(vi) for i, vi in enumerate(v)])

    return single, stacked


def test_batched_solve_is_the_stack_of_single_solves():
    single, stacked = _contractions(4)
    cfg = SolverConfig(max_iters=12, rel_tol=1e-9)
    x0 = rand(5, (4, 12))
    batch = broyden_solve(stacked, x0, cfg)
    assert batch.root.shape == x0.shape
    for i, problem in enumerate(batch.problems):
        solve = broyden_solve(single(i), x0[i : i + 1], cfg)
        alone = solve.problems[0]
        assert np.abs(batch.root[i] - solve.root[0]).max() <= 1e-12
        assert problem.iterations_used == alone.iterations_used
        assert problem.best_iteration == alone.best_iteration
        assert problem.converged == alone.converged
        assert np.allclose(problem.residual_trace, alone.residual_trace, rtol=1e-9, atol=0)


def test_mixed_batch_freezes_the_converged_problem():
    # problem 0 is the scalar fixed point h = 0.5 h + 1, which Broyden solves
    # in two steps; problem 1, g = 1.5 + sin(v) > 0, has no root
    cfg = SolverConfig(max_iters=10, rel_tol=1e-10)
    linear = lambda v: 0.5 * v + 1.0 - v
    rootless = lambda v: 1.5 + np.sin(v)
    batch = broyden_solve(
        lambda v: np.stack([linear(v[0]), rootless(v[1])]), np.zeros((2, 1)), cfg
    )
    solve = broyden_solve(linear, np.zeros((1, 1)), cfg)
    alone = solve.problems[0]
    first, second = batch.problems
    assert alone.iterations_used <= 3
    assert [first.converged, second.converged] == [True, False]
    assert abs(batch.root[0, 0] - solve.root[0, 0]) <= 1e-12
    assert first.residual_trace == alone.residual_trace
    assert second.iterations_used == cfg.max_iters + 1
    assert batch.iterations_used == cfg.max_iters + 1 and not batch.converged


def test_batched_result_keeps_the_fields_a_solve_counter_reads():
    # the benchmark's tracer records (result.iterations_used,
    # bool(result.converged)) for every broyden_solve call, of any stack,
    # and averages the first as evaluations per solve: a result must keep
    # an int there and a converged value that bool() accepts
    _, stacked = _contractions(3)
    batch = broyden_solve(stacked, np.zeros((3, 12)), SolverConfig(max_iters=4))
    assert type(batch.iterations_used) is int
    assert bool(batch.converged) is False
    assert batch.iterations_used == max(p.iterations_used for p in batch.problems)


# one residual per status, each a map of one (4,) problem row from x0 = 0,
# and the residual trace length it ends with at max_iters 6
_STATUS_RESIDUALS = {
    SolveStatus.CONVERGED: (lambda v: 0.5 * v + 1.0 - v, 3),  # root 2 at step 2
    SolveStatus.BUDGET: (lambda v: 1.5 + np.sin(v), 7),  # > 0 everywhere: no root
    SolveStatus.DIVERGED: (lambda v: 1e4 * v * v + 1.0, 2),  # step 1 at 1e4 |g(x0)|
    # step 1 lands at v = 1, whose residual overflows; it is not recorded
    SolveStatus.NON_FINITE: (lambda v: v * np.inf if v.any() else v + 1.0, 1),
}


@pytest.mark.parametrize("status", list(SolveStatus))
def test_each_status_comes_out_of_a_solve_built_for_it(status):
    residual, trace_length = _STATUS_RESIDUALS[status]
    res = broyden_solve(residual, np.zeros((1, 4)), SolverConfig(max_iters=6))
    (stats,) = res.problems
    assert stats.status is status
    assert stats.converged == res.converged == (status is SolveStatus.CONVERGED)
    assert stats.iterations_used == trace_length


def test_a_stack_of_four_statuses_is_each_problem_solved_alone():
    statuses = list(SolveStatus)
    cfg = SolverConfig(max_iters=6)

    def stacked(v):
        return np.stack([_STATUS_RESIDUALS[s][0](row) for s, row in zip(statuses, v)])

    batch = broyden_solve(stacked, np.zeros((4, 4)), cfg)
    assert [p.status for p in batch.problems] == statuses
    assert not batch.converged and batch.iterations_used == cfg.max_iters + 1
    for i, status in enumerate(statuses):
        residual = _STATUS_RESIDUALS[status][0]
        alone = broyden_solve(lambda v: residual(v[0])[None], np.zeros((1, 4)), cfg)
        assert np.array_equal(batch.root[i], alone.root[0])
        assert batch.problems[i] == alone.problems[0]


def test_x0_without_a_problem_axis_is_rejected():
    for x0 in (np.float64(1.0), np.zeros((0, 3))):
        with pytest.raises(ValueError, match="at least one problem"):
            broyden_solve(lambda v: v, x0, SolverConfig())


def _dense_good_broyden(residual, x0, cfg: SolverConfig, steps: int):
    """The iterates of textbook good Broyden with a dense inverse-Jacobian estimate.

    B starts at -I, x+ = x - B g, and B += (dx - B dg)(dx^T B) / (dx^T B dg),
    with the solver's skip rule. It stops where the solver stops a problem
    that converges, and after steps steps otherwise.
    """
    x, g = x0.copy(), residual(x0)
    b = -np.eye(x.size)
    start = np.linalg.norm(g)
    iterates = [x]
    for _ in range(steps):
        x_new = x - b @ g
        g_new = residual(x_new)
        iterates.append(x_new)
        g_norm = np.linalg.norm(g_new)
        if g_norm / (np.linalg.norm(x_new) + 1e-9) < cfg.rel_tol and g_norm <= start:
            break
        dx, dg = x_new - x, g_new - g
        den = dx @ b @ dg
        dg_norm = np.linalg.norm(dg)
        if dg_norm > 1e-12 * (g_norm + dg_norm) and abs(den) > 1e-30:
            b += np.outer(dx - b @ dg, dx @ b) / den
        x, g = x_new, g_new
    return iterates


def test_a_stack_takes_the_iterates_of_dense_good_broyden():
    # a linear residual, a mildly nonlinear one and one that converges at step 2
    # (h = 0.5 h + 1 in every coordinate), stacked as one solve of ten steps
    rng = CounterRng(2301)
    dim = 16
    a = rng.normal((dim, dim)) * (0.4 / np.sqrt(dim))
    np.fill_diagonal(a, a.diagonal() - 1.0)
    c = rng.normal((dim,))
    m = rng.normal((dim, dim)) / np.sqrt(dim)
    offset = rng.normal((dim,))
    maps = [
        lambda v: a @ v - c,
        lambda v: 0.6 * np.tanh(m @ v) + offset - v,
        lambda v: 0.5 * v + 1.0 - v,
    ]
    cfg = SolverConfig(max_iters=10, rel_tol=1e-13)
    x0 = np.stack([rng.normal((dim,)), rng.normal((dim,)), np.zeros(dim)])
    seen = []

    def stacked(v):
        seen.append(v.copy())
        return np.stack([f(row) for f, row in zip(maps, v)])

    res = broyden_solve(stacked, x0, cfg)
    assert [p.status for p in res.problems] == [
        SolveStatus.BUDGET, SolveStatus.BUDGET, SolveStatus.CONVERGED]
    assert len(seen) == cfg.max_iters + 1
    for i, f in enumerate(maps):
        oracle = _dense_good_broyden(f, x0[i], cfg, cfg.max_iters)
        assert len(oracle) == res.problems[i].iterations_used
        for step, expected in enumerate(oracle):
            got = seen[step][i]
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        # a stopped problem is frozen at its last iterate
        for later in seen[len(oracle):]:
            assert np.array_equal(later[i], seen[len(oracle) - 1][i])
    assert len(_dense_good_broyden(maps[2], x0[2], cfg, cfg.max_iters)) == 3

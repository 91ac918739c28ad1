"""Convergence traces, spectral-radius estimation, implicit/unroll gap."""

import warnings

import numpy as np
import pytest

from ifr.blocks import block_apply_factory, double_residual_forward
from ifr.diagnostics import (
    block_jacobian_apply,
    estimate_spectral_radius,
    implicit_gap,
    spectral_radius,
    unroll_convergence,
)
from ifr.rng import CounterRng
from ifr.solver import SolverConfig, fixed_point_iterate

from conftest import rand
from test_blocks import linear_proxy_block


def test_unroll_convergence_geometric_trace():
    p = linear_proxy_block(slope=0.5, offset=0.5)
    x = np.ones((1, 1, 1))
    report = unroll_convergence(p, x, 10)
    assert report.norm_diff_trace == [2.0**-k for k in range(10)]
    assert not report.diverged


def test_unroll_convergence_contracts_to_noise_floor(corpus_block):
    x = rand(1, (8, 6, 6))
    report = unroll_convergence(corpus_block, x, 10_000)
    assert report.norm_diff_trace[-1] < 1e-10
    assert not report.diverged


def test_unroll_convergence_flags_expanding_map():
    p = linear_proxy_block(slope=1.7, offset=0.0)
    x = np.ones((1, 1, 1))
    report = unroll_convergence(p, x, 200)
    assert report.diverged
    assert len(report.norm_diff_trace) < 200
    assert report.note


def test_fixed_point_iterate_stops_where_unroll_convergence_flags_growth():
    # the step norms grow 1.7-fold per step, past 1e6 times the first at step 27
    p = linear_proxy_block(slope=1.7, offset=0.0)
    x = np.ones((1, 1, 1))
    report = unroll_convergence(p, x, 200)
    h, trace = fixed_point_iterate(block_apply_factory(p, x), np.zeros_like(x), 200)
    assert report.note == f"step size grew 1e+06-fold by step {len(trace) - 1}"
    assert trace == report.norm_diff_trace
    assert len(trace) == 28
    assert h.tobytes() == report.endpoint.tobytes()


def test_unroll_convergence_flags_a_step_norm_overflow_at_its_step():
    # F(0) = 1e308 is finite, but the norm of that first step overflows
    p = linear_proxy_block(slope=1e8, offset=0.0)
    x = np.full((1, 1, 1), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = unroll_convergence(p, x, 20)
    assert report.diverged
    assert report.note == "non-finite iterate at step 0"
    assert report.norm_diff_trace == []
    assert not report.endpoint.any()


def test_unroll_convergence_probes_spectral_radius():
    p = linear_proxy_block(slope=0.5, offset=0.5)
    x = np.ones((1, 1, 1))
    report = unroll_convergence(p, x, 20, probe_steps=(0, 10))
    assert len(report.spectral_radius_estimates) == 2
    assert all(abs(est - 0.5) < 1e-6 for est in report.spectral_radius_estimates)


def test_unroll_convergence_endpoint_is_the_unrolled_forward(corpus_block):
    x = rand(11, (8, 6, 6))
    report = unroll_convergence(corpus_block, x, 300)
    unrolled, _ = fixed_point_iterate(block_apply_factory(corpus_block, x), np.zeros_like(x), 300)
    assert report.endpoint.tobytes() == unrolled.tobytes()


def test_block_jacobian_apply_is_the_transposed_jacobian(corpus_block):
    # <(dF/dh)^T v, u> against a central difference of <F(h + eps u) - F(h - eps u), v> / 2 eps
    x, h = rand(12, (8, 6, 6)), rand(13, (8, 6, 6))
    u, v = rand(14, (8, 6, 6)), rand(15, (8, 6, 6))
    eps = 1e-5
    up = double_residual_forward(corpus_block, h + eps * u, x)
    down = double_residual_forward(corpus_block, h - eps * u, x)
    fd = float(np.sum((up - down) * v)) / (2.0 * eps)
    exact = float(np.sum(block_jacobian_apply(corpus_block, x, h)(v) * u))
    assert abs(exact - fd) <= 1e-6 * abs(fd)


def test_spectral_radius_diagonal_linear_map():
    d = np.diag([0.9, 0.1, 0.05, 0.02])
    est = estimate_spectral_radius(lambda v: v @ d.T, (4,), probes=3, power_iters=200, seed=1)
    assert abs(est - 0.9) < 1e-3


def test_spectral_radius_random_matrix_vs_eigen_oracle():
    # the CounterRng(4242) matrices are the acceptance-gate oracle cases; each
    # has a complex-conjugate dominant pair (|lambda| 1.0024, 1.1032, 1.1504)
    cases = [(CounterRng(42).normal((16, 16)) / 4.0, 2)]
    cases += [(CounterRng(4242).split(t).normal((16, 16)) / 4.0, t) for t in range(3)]
    for a, seed in cases:
        oracle = max(np.abs(np.linalg.eigvals(a)))
        est = estimate_spectral_radius(lambda v: v @ a.T, (16,), probes=4, power_iters=400, seed=seed)
        assert abs(est - oracle) <= 1e-2


@pytest.mark.parametrize("rho", [0.25, 0.6, 0.95])
def test_spectral_radius_constructed_known_radius(rho):
    rng = CounterRng(50 + int(rho * 100))
    q, _ = np.linalg.qr(rng.normal((12, 12)))
    a = q @ np.diag(np.linspace(rho, rho * 0.1, 12)) @ q.T
    est = estimate_spectral_radius(lambda v: v @ a.T, (12,), probes=3, power_iters=300, seed=3)
    assert abs(est - rho) <= max(1e-2, 0.02 * rho)


def reference_arnoldi(apply_row, shape, probes, power_iters, seed):
    """The estimator one probe at a time: apply_row(probe, v) applies the
    operator of that probe to one vector."""
    n = int(np.prod(shape))
    m = min(power_iters, n)
    rng = CounterRng(seed)
    best = 0.0
    for probe in range(probes):
        basis, hess = np.zeros((m, n)), np.zeros((m, m))
        start = rng.split(probe).normal(shape).reshape(-1)
        basis[0] = start / np.linalg.norm(start)
        for j in range(m):
            w = apply_row(probe, basis[j].reshape(shape)).reshape(-1)
            w_norm = float(np.linalg.norm(w))
            for _ in range(2):
                coef = basis[: j + 1] @ w
                w = w - basis[: j + 1].T @ coef
                hess[: j + 1, j] += coef
            beta = float(np.linalg.norm(w))
            if j + 1 == m or beta <= 1e-12 * w_norm:
                break
            hess[j + 1, j] = beta
            basis[j + 1] = w / beta
        best = max(best, float(np.max(np.abs(np.linalg.eigvals(hess[: j + 1, : j + 1])))))
    return best


@pytest.mark.parametrize("probes", [1, 3, 4])
def test_lockstep_probes_agree_with_a_per_probe_arnoldi_loop(probes, corpus_block):
    a = CounterRng(60).normal((30, 30)) / 5.0
    est = estimate_spectral_radius(lambda v: v @ a.T, (30,), probes=probes, power_iters=12, seed=7)
    ref = reference_arnoldi(lambda _, v: a @ v, (30,), probes, 12, 7)
    assert abs(est - ref) <= 1e-12 * ref
    # the block's radius from one taped stack against per-vector VJPs at the point
    x, h = rand(16, (8, 6, 6)), rand(17, (8, 6, 6))
    est = spectral_radius(corpus_block, x, h, probes=probes, power_iters=20, seed=8)
    per_vector = block_jacobian_apply(corpus_block, x, h)
    ref = reference_arnoldi(lambda _, v: per_vector(v), (8, 6, 6), probes, 20, 8)
    assert abs(est - ref) <= 1e-12 * ref


def test_a_probe_that_breaks_down_stays_frozen_while_the_others_run():
    # probe 0 sees the rank-1 map u v^T (eigenvalue v.u = 2): its Krylov space
    # is invariant after 2 vectors; the others see a full-rank map of radius 0.9
    rng = CounterRng(61)
    u, v = rng.split(0).normal(12), rng.split(1).normal(12)
    rank1 = np.outer(u, v) * (2.0 / float(v @ u))
    q, _ = np.linalg.qr(rng.split(2).normal((12, 12)))
    full = q @ np.diag(np.linspace(0.9, 0.1, 12)) @ q.T
    seen = []

    def apply(stack):
        seen.append(stack.copy())
        out = stack @ full.T
        out[0] = rank1 @ stack[0]
        return out

    est = estimate_spectral_radius(apply, (12,), probes=3, power_iters=10, seed=9)
    ref = reference_arnoldi(lambda i, w: rank1 @ w if i == 0 else full @ w, (12,), 3, 10, 9)
    assert abs(est - ref) <= 1e-12 * ref
    assert abs(est - 2.0) <= 1e-12
    assert len(seen) == 10
    assert all(stack[0].any() for stack in seen[:2])
    assert not any(stack[0].any() for stack in seen[2:])
    assert all(stack[1:].all() for stack in seen)


def test_an_operator_that_returns_a_view_of_its_argument_leaves_the_basis_intact():
    # reversing the last axis is an involution (eigenvalues +-1); each probe's
    # Krylov space {v, Pv} is invariant after 2 vectors
    est = estimate_spectral_radius(lambda v: v[..., ::-1], (6,), probes=2, power_iters=4)
    assert abs(est - 1.0) <= 1e-12


def test_spectral_radius_of_block_linear_proxy():
    p = linear_proxy_block(slope=0.4, offset=0.2)
    x = np.ones((1, 1, 1))
    est = spectral_radius(p, x, np.zeros_like(x), probes=2, power_iters=40, seed=4)
    assert abs(est - 0.4) < 1e-6


def test_spectral_radius_shape_mismatch():
    p = linear_proxy_block()
    with pytest.raises(ValueError):
        spectral_radius(p, np.ones((1, 1, 1)), np.ones((1, 2, 1)))


@pytest.mark.parametrize("kwargs", [dict(probes=0), dict(power_iters=1)])
def test_spectral_radius_needs_a_probe_and_two_krylov_vectors(kwargs):
    x = np.ones((1, 1, 1))
    with pytest.raises(ValueError, match="probes >= 1"):
        spectral_radius(linear_proxy_block(), x, x, **kwargs)


def test_implicit_gap_linear_proxy_tiny():
    p = linear_proxy_block(slope=0.5, offset=0.5)
    x = np.ones((1, 1, 1))
    unrolled = fixed_point_iterate(block_apply_factory(p, x), np.zeros_like(x), 200)[0]
    gap, solve = implicit_gap(p, x, SolverConfig(max_iters=30, rel_tol=1e-14), unrolled)
    assert gap < 1e-12
    assert solve.converged and solve.residual_trace[-1] < 1e-14


@pytest.mark.parametrize("unrolled", [200, np.zeros((1, 2, 1)), np.zeros(1)])
def test_implicit_gap_needs_an_endpoint_of_the_input_shape(unrolled):
    p = linear_proxy_block(slope=0.5, offset=0.5)
    with pytest.raises(ValueError):
        implicit_gap(p, np.ones((1, 1, 1)), SolverConfig(), unrolled)


def test_implicit_gap_shrinks_with_budget(corpus_block):
    x = rand(2, (8, 6, 6))
    unrolled = fixed_point_iterate(
        block_apply_factory(corpus_block, x), np.zeros_like(x), 2000)[0]
    gaps = [
        implicit_gap(corpus_block, x, SolverConfig(max_iters=b, rel_tol=1e-13), unrolled)[0]
        for b in (3, 5, 10, 15, 20)
    ]
    assert all(b <= a * 1.001 + 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] > gaps[-1]


def test_log_trace_slope_bounded_by_contraction_rate(corpus_block):
    from ifr.implicit import ifr_forward

    x = rand(3, (8, 6, 6))
    rec = ifr_forward(corpus_block, x, SolverConfig(max_iters=30, rel_tol=1e-11))
    rho = spectral_radius(corpus_block, x, rec.equilibrium, probes=3, power_iters=80, seed=6)
    assert rho < 0.95  # delta >= 0.05 so the bound below is meaningful
    report = unroll_convergence(corpus_block, x, 400)
    trace = np.array(report.norm_diff_trace)
    window = trace[(trace > 1e-12)][-80:]
    slope = np.polyfit(np.arange(window.size), np.log(window), 1)[0]
    assert slope <= np.log(rho) + 0.01

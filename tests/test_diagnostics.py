"""Convergence traces, spectral-radius estimation, implicit/unroll gap."""

import numpy as np
import pytest

from ifr.blocks import double_residual_forward, unrolled_shared_forward
from ifr.diagnostics import (
    block_jacobian_apply,
    estimate_spectral_radius,
    implicit_gap,
    spectral_radius,
    unroll_convergence,
)
from ifr.rng import CounterRng
from ifr.solver import SolverConfig

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


def test_unroll_convergence_probes_spectral_radius():
    p = linear_proxy_block(slope=0.5, offset=0.5)
    x = np.ones((1, 1, 1))
    report = unroll_convergence(p, x, 20, probe_steps=(0, 10))
    assert len(report.spectral_radius_estimates) == 2
    assert all(abs(est - 0.5) < 1e-6 for est in report.spectral_radius_estimates)


def test_unroll_convergence_endpoint_is_the_unrolled_forward(corpus_block):
    x = rand(11, (8, 6, 6))
    report = unroll_convergence(corpus_block, x, 300)
    unrolled, _ = unrolled_shared_forward(corpus_block, x, 300)
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
    est = estimate_spectral_radius(lambda v: d @ v, (4,), probes=3, power_iters=200, seed=1)
    assert abs(est - 0.9) < 1e-3


def test_spectral_radius_random_matrix_vs_eigen_oracle():
    # the CounterRng(4242) matrices are the acceptance-gate oracle cases; each
    # has a complex-conjugate dominant pair (|lambda| 1.0024, 1.1032, 1.1504)
    cases = [(CounterRng(42).normal((16, 16)) / 4.0, 2)]
    cases += [(CounterRng(4242).split(t).normal((16, 16)) / 4.0, t) for t in range(3)]
    for a, seed in cases:
        oracle = max(np.abs(np.linalg.eigvals(a)))
        est = estimate_spectral_radius(lambda v: a @ v, (16,), probes=4, power_iters=400, seed=seed)
        assert abs(est - oracle) <= 1e-2


@pytest.mark.parametrize("rho", [0.25, 0.6, 0.95])
def test_spectral_radius_constructed_known_radius(rho):
    rng = CounterRng(50 + int(rho * 100))
    q, _ = np.linalg.qr(rng.normal((12, 12)))
    a = q @ np.diag(np.linspace(rho, rho * 0.1, 12)) @ q.T
    est = estimate_spectral_radius(lambda v: a @ v, (12,), probes=3, power_iters=300, seed=3)
    assert abs(est - rho) <= max(1e-2, 0.02 * rho)


def test_spectral_radius_of_block_linear_proxy():
    p = linear_proxy_block(slope=0.4, offset=0.2)
    x = np.ones((1, 1, 1))
    est = spectral_radius(p, x, np.zeros_like(x), probes=2, power_iters=40, seed=4)
    assert abs(est - 0.4) < 1e-6


def test_spectral_radius_shape_mismatch():
    p = linear_proxy_block()
    with pytest.raises(ValueError):
        spectral_radius(p, np.ones((1, 1, 1)), np.ones((1, 2, 1)))


def test_implicit_gap_linear_proxy_tiny():
    p = linear_proxy_block(slope=0.5, offset=0.5)
    x = np.ones((1, 1, 1))
    gap = implicit_gap(p, x, SolverConfig(max_iters=30, rel_tol=1e-14), 200)
    assert gap < 1e-12


def test_implicit_gap_shrinks_with_budget(corpus_block):
    x = rand(2, (8, 6, 6))
    gaps = [
        implicit_gap(corpus_block, x, SolverConfig(max_iters=b, rel_tol=1e-13), 2000)
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

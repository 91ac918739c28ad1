"""Convergence analysis of the weight-tied refinement iteration.

Three probes: the long-unroll norm-difference trace, an Arnoldi (Krylov)
estimate of the spectral radius of dF/dh, and the gap between the solver
equilibrium and the endpoint of that same unroll. The Arnoldi iteration
runs on the exact transposed Jacobian (dF/dh)^T, applied as a
vector-Jacobian product from one forward tape; no finite differences are
taken, and the transpose has the same spectral radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blocks import (
    DoubleResidualParams,
    block_apply_factory,
    block_forward_tape,
    block_vjp_from_tape,
)
from .implicit import ifr_forward
from .rng import CounterRng
from .solver import RUNAWAY_FACTOR, DivergenceError, SolverConfig, SolverResult, fixed_point_steps

# the spectral-radius probes of unroll_convergence
_PROBES = 3
_POWER_ITERS = 60


@dataclass
class ConvergenceReport:
    norm_diff_trace: list[float]
    spectral_radius_estimates: list[float]
    # the last finite iterate: h after len(norm_diff_trace) applications of F
    endpoint: np.ndarray
    diverged: bool = False
    note: str = ""


def unroll_convergence(
    p: DoubleResidualParams,
    x: np.ndarray,
    steps: int,
    probe_steps: Sequence[int] = (),
) -> ConvergenceReport:
    """Iterate h <- F(h; x) from h = 0 for `steps`, recording step-size norms.

    The iteration is solver.fixed_point_steps. Optionally estimates the
    spectral radius of dF/dh at the iterates whose indices appear in
    probe_steps (_PROBES probe vectors, Krylov dimension _POWER_ITERS,
    seeded by the step index). The trace ends, flagged as diverged with a
    note, before a step whose iterate or norm is non-finite and after a
    runaway step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    probe_set = set(int(s) for s in probe_steps)
    h = np.zeros_like(x)
    trace: list[float] = []
    radius_estimates: list[float] = []
    note = ""
    iterates = fixed_point_steps(block_apply_factory(p, x), h, steps)
    try:
        for i in range(steps):
            if i in probe_set:
                radius_estimates.append(
                    spectral_radius(p, x, h, probes=_PROBES, power_iters=_POWER_ITERS, seed=i)
                )
            h, diff, runaway = next(iterates)
            trace.append(diff)
            if runaway:
                note = f"step size grew {RUNAWAY_FACTOR:.0e}-fold by step {i}"
                break
    except DivergenceError as err:
        note = f"non-finite iterate at step {err.step}"
    return ConvergenceReport(
        norm_diff_trace=trace,
        spectral_radius_estimates=radius_estimates,
        endpoint=h,
        diverged=bool(note),
        note=note,
    )


def estimate_spectral_radius(
    apply_jacobian: Callable[[np.ndarray], np.ndarray],
    shape: tuple[int, ...],
    probes: int = 4,
    power_iters: int = 60,
    seed: int = 0,
) -> float:
    """Dominant |eigenvalue| of a linear operator by Arnoldi iteration.

    power_iters caps the Krylov dimension. From each probe vector, builds
    an orthonormal Krylov basis of m = min(power_iters, n) vectors (n the
    operator dimension, one operator application per vector), with every
    new vector re-orthogonalised against the basis, and returns the largest
    |eigenvalue| of the m x m Hessenberg projection. A complex-conjugate
    dominant pair appears as a conjugate pair of Ritz values, so its modulus
    is recovered. On breakdown (the basis spans an invariant subspace) the
    iteration stops early and its Ritz values are exact; for m = n they are
    the eigenvalues. Returns the max over independent probe vectors.
    """
    if probes < 1 or power_iters < 2:
        raise ValueError("need probes >= 1 and power_iters >= 2")
    n = int(np.prod(shape))
    m = min(power_iters, n)
    rng = CounterRng(seed)
    best = 0.0
    for probe in range(probes):
        basis = np.zeros((m, n))
        hess = np.zeros((m, m))
        start = rng.split(probe).normal(shape).reshape(-1)
        basis[0] = start / np.linalg.norm(start)
        for j in range(m):
            w = apply_jacobian(basis[j].reshape(shape)).reshape(-1)
            w_norm = float(np.linalg.norm(w))
            for _ in range(2):  # classical Gram-Schmidt, applied twice
                coef = basis[: j + 1] @ w
                w = w - basis[: j + 1].T @ coef
                hess[: j + 1, j] += coef
            beta = float(np.linalg.norm(w))
            if j + 1 == m or beta <= 1e-12 * w_norm:
                break
            hess[j + 1, j] = beta
            basis[j + 1] = w / beta
        ritz = np.linalg.eigvals(hess[: j + 1, : j + 1])
        best = max(best, float(np.max(np.abs(ritz))))
    return best


def block_jacobian_apply(
    p: DoubleResidualParams, x: np.ndarray, h: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """v -> (dF/dh)^T v at the point (h, x), an exact VJP from one forward tape."""
    _, tape = block_forward_tape(p, h, x)
    return lambda v: block_vjp_from_tape(p, tape, v, want_params=False)[0]


def spectral_radius(
    p: DoubleResidualParams,
    x: np.ndarray,
    h: np.ndarray,
    probes: int = 4,
    power_iters: int = 60,
    seed: int = 0,
) -> float:
    """Spectral radius estimate of dF/dh at (h, x)."""
    if h.shape != x.shape:
        raise ValueError(f"h shape {h.shape} != x shape {x.shape}")
    return estimate_spectral_radius(
        block_jacobian_apply(p, x, h), h.shape, probes=probes, power_iters=power_iters, seed=seed
    )


def implicit_gap(
    p: DoubleResidualParams, x: np.ndarray, cfg: SolverConfig, unrolled: np.ndarray
) -> tuple[float, SolverResult]:
    """Max-abs difference between the solver equilibrium and an unroll endpoint
    of x's shape, and the result of the solve that found the equilibrium."""
    if np.shape(unrolled) != x.shape:
        raise ValueError(f"unrolled shape {np.shape(unrolled)} != x shape {x.shape}")
    rec = ifr_forward(p, x, cfg)
    return float(np.max(np.abs(rec.equilibrium - unrolled))), rec.forward_result

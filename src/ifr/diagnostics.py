"""Convergence analysis of the weight-tied refinement iteration.

Three probes: the long-unroll norm-difference trace, an Arnoldi (Krylov)
estimate of the spectral radius of dF/dh, and the gap between the solver
equilibrium and a long explicit unroll. The Arnoldi iteration runs on the
exact transposed Jacobian (dF/dh)^T, applied as a vector-Jacobian product
from one forward tape; no finite differences are taken, and the transpose
has the same spectral radius.
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
from .solver import SolverConfig, fixed_point_iterate

_GROWTH_GUARD = 1e6
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
    """Iterate h <- F(h; x) for `steps`, recording step-size norms.

    Optionally estimates the spectral radius of dF/dh at the iterates whose
    indices appear in probe_steps (_PROBES probe vectors, Krylov dimension
    _POWER_ITERS, seeded by the step index). The trace is truncated with an
    annotation if an iterate goes non-finite or the step size outgrows its
    start by a large factor.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    probe_set = set(int(s) for s in probe_steps)
    apply = block_apply_factory(p, x)
    h = np.zeros_like(x)
    trace: list[float] = []
    radius_estimates: list[float] = []
    diverged = False
    note = ""
    for i in range(steps):
        if i in probe_set:
            radius_estimates.append(
                spectral_radius(p, x, h, probes=_PROBES, power_iters=_POWER_ITERS, seed=i)
            )
        h_next = apply(h)
        if not np.isfinite(h_next.sum()):
            diverged = True
            note = f"non-finite iterate at step {i}"
            break
        diff = float(np.linalg.norm(h_next - h))
        trace.append(diff)
        h = h_next
        if trace[0] > 0 and diff > _GROWTH_GUARD * trace[0]:
            diverged = True
            note = f"step size grew {_GROWTH_GUARD:.0e}-fold by step {i}"
            break
    return ConvergenceReport(
        norm_diff_trace=trace,
        spectral_radius_estimates=radius_estimates,
        endpoint=h,
        diverged=diverged,
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
    p: DoubleResidualParams, x: np.ndarray, cfg: SolverConfig, steps: int
) -> float:
    """Max-abs difference between the solver equilibrium and a `steps` unroll."""
    rec = ifr_forward(p, x, cfg)
    h, _ = fixed_point_iterate(block_apply_factory(p, x), np.zeros_like(x), steps)
    return float(np.max(np.abs(rec.equilibrium - h)))

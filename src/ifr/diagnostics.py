"""Convergence analysis of the weight-tied refinement iteration.

Three probes: the long-unroll norm-difference trace, an Arnoldi (Krylov)
estimate of the spectral radius of dF/dh, and the gap between the solver
equilibrium and the endpoint of that same unroll. The Arnoldi iteration
runs on the exact transposed Jacobian (dF/dh)^T, applied to all its
probe vectors at once as a batched vector-Jacobian product from one forward
tape; no finite differences are taken, and the transpose has the same
spectral radius.
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
from .solver import RUNAWAY_FACTOR, DivergenceError, SolverConfig, SolveStats, fixed_point_steps

# the spectral-radius probes of unroll_convergence
_PROBES = 3
_POWER_ITERS = 60


@dataclass
class ConvergenceReport:
    norm_diff_trace: list[float]
    spectral_radius_estimates: list[float]
    # the last finite iterate: h after len(norm_diff_trace) applications of F
    endpoint: np.ndarray
    # why the trace ended early; empty when it ran every step
    note: str = ""

    @property
    def diverged(self) -> bool:
        return bool(self.note)


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
        note=note,
    )


def _check_krylov(probes: int, power_iters: int) -> None:
    if probes < 1 or power_iters < 2:
        raise ValueError("need probes >= 1 and power_iters >= 2")


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
    operator dimension), with every new vector re-orthogonalised against
    the basis, and takes the largest |eigenvalue| of the m x m Hessenberg
    projection. A complex-conjugate dominant pair appears as a conjugate
    pair of Ritz values, so its modulus is recovered. On breakdown (the
    basis spans an invariant subspace) a probe stops early and its Ritz
    values are exact; for m = n they are the eigenvalues. Returns the max
    over independent probe vectors.

    The probes advance in lockstep: apply_jacobian maps a (probes,) + shape
    stack, one row per probe, and each Krylov step makes one call. A probe
    that broke down is frozen: its row of the stack stays zero and its
    Hessenberg block is final, while the others run on.
    """
    _check_krylov(probes, power_iters)
    n = int(np.prod(shape))
    m = min(power_iters, n)
    rng = CounterRng(seed)
    basis = np.zeros((probes, m, n))
    hess = np.zeros((probes, m, m))
    for probe in range(probes):
        start = rng.split(probe).normal(shape).reshape(-1)
        basis[probe, 0] = start / np.linalg.norm(start)
    size = np.zeros(probes, dtype=int)  # the Krylov dimension each probe reached
    live = np.ones(probes, dtype=bool)
    for j in range(m):
        size += live
        # a copy: an operator may return (a view of) its argument, a row of the basis
        w = np.array(apply_jacobian(basis[:, j].reshape((probes, *shape)))).reshape(probes, n)
        w_norm = np.linalg.norm(w, axis=1)
        # classical Gram-Schmidt, applied twice, one probe at a time: its part of
        # the basis stays in cache across the four passes, the whole basis would
        # not. The order turns at every step, so the probe that ended a step, its
        # part still cached, starts the next.
        order = np.flatnonzero(live)
        for probe in order[::-1] if j % 2 else order:
            krylov, v = basis[probe, : j + 1], w[probe]
            for _ in range(2):
                coef = krylov @ v
                v -= krylov.T @ coef
                hess[probe, : j + 1, j] += coef
        beta = np.linalg.norm(w, axis=1)
        live &= ~(beta <= 1e-12 * w_norm)
        if j + 1 == m or not live.any():
            break
        # a stopped probe's basis row stays zero, and this entry of its
        # Hessenberg matrix lies outside the block its Ritz values come from
        hess[:, j + 1, j] = beta
        np.divide(w, beta[:, None], out=basis[:, j + 1], where=live[:, None])
    return max(float(np.max(np.abs(np.linalg.eigvals(hess[i, :k, :k]))))
               for i, k in enumerate(size))


def block_jacobian_apply(
    p: DoubleResidualParams, x: np.ndarray, h: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """v -> (dF/dh)^T v at the point (h, x), an exact VJP from one forward tape;
    a stack of points gives a map of stacks."""
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
    """Spectral radius estimate of dF/dh at (h, x). The point is taped once as a
    (probes,) + x.shape stack, so each Krylov step is one batched VJP."""
    if h.shape != x.shape:
        raise ValueError(f"h shape {h.shape} != x shape {x.shape}")
    _check_krylov(probes, power_iters)
    stack = (probes,) + x.shape
    apply = block_jacobian_apply(p, np.broadcast_to(x, stack), np.broadcast_to(h, stack))
    return estimate_spectral_radius(
        apply, h.shape, probes=probes, power_iters=power_iters, seed=seed
    )


def implicit_gap(
    p: DoubleResidualParams, x: np.ndarray, cfg: SolverConfig, unrolled: np.ndarray
) -> tuple[float, SolveStats]:
    """Max-abs difference between the solver equilibrium and an unroll endpoint
    of x's shape, and the stats of the solve that found the equilibrium."""
    if np.shape(unrolled) != x.shape:
        raise ValueError(f"unrolled shape {np.shape(unrolled)} != x shape {x.shape}")
    rec = ifr_forward(p, x, cfg)
    return float(np.max(np.abs(rec.equilibrium - unrolled))), rec.forward_result.problems[0]

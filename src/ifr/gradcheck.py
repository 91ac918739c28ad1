"""Validation harness for the implicit gradients.

Two independent oracles check ifr_backward on randomly drawn contractive
blocks: central finite differences through a tightly-converged forward
solve, and reverse accumulation through a long explicit unroll. Errors are
reported as guarded relative errors: |a - b| / max(|a|, |b|, floor), with
the floor tied to the overall gradient magnitude so leaves whose true
gradient is structurally zero (for example conv biases swallowed by the
following group norm) do not produce 0/0 noise. A NaN or Inf on either side
is an infinite error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    IMPLICIT,
    SHORTCUT_CONV,
    DoubleResidualParams,
    HeadConfig,
    init_double_residual,
    unrolled_shared_vjp,
)
from .implicit import ifr_backward, ifr_forward
from .ops import finite_difference_grad
from .rng import CounterRng
from .solver import SolverConfig

FD_TOLERANCE = 1e-4
UNROLL_TOLERANCE = 1e-3
# relative tolerance of the forward and adjoint solves under check
SOLVE_REL_TOL = 1e-10

# relative-error floor as a fraction of the largest gradient coordinate
_FLOOR_FRACTION = 1e-6
# central-difference step, and how many coordinates of each leaf it checks
_FD_EPS = 1e-5
_FD_COORDS_PER_LEAF = 3
# length of the reference unroll backpropagated through
_UNROLL_STEPS = 200


def guarded_max_rel_error(
    approx: dict[str, np.ndarray], reference: dict[str, np.ndarray]
) -> float:
    """Max over coordinates of |a - r| / max(|a|, |r|, floor); inf if any is non-finite."""
    scale = 0.0
    for name in reference:
        a, r = approx[name], reference[name]
        if not (np.isfinite(a).all() and np.isfinite(r).all()):
            return float("inf")
        scale = max(scale, float(np.abs(r).max(initial=0.0)), float(np.abs(a).max(initial=0.0)))
    floor = max(_FLOOR_FRACTION * scale, 1e-300)
    worst = 0.0
    for name in reference:
        a, r = approx[name], reference[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(r)), floor)
        worst = max(worst, float((np.abs(a - r) / denom).max(initial=0.0)))
    return worst


def contractive_block(seed: int, channels: int = 8) -> DoubleResidualParams:
    """A randomly initialized weight-normed block whose map h -> F(h; x) contracts.

    The final group-norm scale and the 1x1-conv shortcut gain are drawn
    small enough that the block Jacobian stays well inside the unit disc.
    """
    rng = CounterRng(seed)
    gn2_scale = 0.1 + 0.15 * rng.uniform()
    shortcut_gain = 0.2 + 0.2 * rng.uniform()
    cfg = HeadConfig(IMPLICIT, 1, channels=channels, shortcut_mode=SHORTCUT_CONV,
                     weight_norm=True, gn2_scale_init=gn2_scale, shortcut_gain_init=shortcut_gain)
    return init_double_residual(rng.split(1), cfg)


@dataclass
class GradCheckResult:
    fd_rel_error: float
    unroll_rel_error: float
    # how many adjoint solves behind the checked gradients (one per trial)
    # reached their tolerance within the budget
    adjoint_converged: int


def check_block_gradients(
    p: DoubleResidualParams,
    x: np.ndarray,
    upstream: np.ndarray,
    solver_cfg: SolverConfig,
    coord_seed: int = 0,
    break_vjp: bool = False,
) -> GradCheckResult:
    """Compare ifr_backward against both oracles for the loss <upstream, H*>.

    Finite differences are evaluated on a deterministic random subset of
    _FD_COORDS_PER_LEAF coordinates per leaf (full sweeps are quadratic in
    parameter count); the comparison with the _UNROLL_STEPS-step unroll
    covers every coordinate. break_vjp is a negative control that corrupts
    the implicit gradients before comparison. A non-finite loss raises
    NonFiniteError.
    """
    rec = ifr_forward(p, x, solver_cfg)
    back = ifr_backward(rec, upstream, solver_cfg)
    implicit_grads = {**back.d_params, "input": back.d_x}
    if break_vjp:
        implicit_grads = {k: v * 1.5 + 0.1 for k, v in implicit_grads.items()}

    tight = SolverConfig(max_iters=80, rel_tol=1e-13)
    coord_rng = CounterRng(coord_seed)
    leaves = dict(p.leaf_items())
    leaves["input"] = x
    fd_sub: dict[str, np.ndarray] = {}
    implicit_sub: dict[str, np.ndarray] = {}
    for name, arr in leaves.items():
        flat = arr.reshape(-1)
        n = min(_FD_COORDS_PER_LEAF, flat.size)
        # sorted(set()) rather than np.unique, which imports numpy.ma (about 1 MB)
        picks = np.array(sorted(set(coord_rng.integers(0, flat.size, (n,)).tolist())))
        original = flat[picks]

        def sampled_loss(values: np.ndarray) -> float:
            flat[picks] = values
            return float(np.sum(upstream * ifr_forward(p, x, tight).equilibrium))

        try:  # the oracle perturbs its argument in place, so it gets a copy
            fd_sub[name] = finite_difference_grad(sampled_loss, original.copy(), _FD_EPS)
        finally:
            flat[picks] = original
        implicit_sub[name] = implicit_grads[name].reshape(-1)[picks]
    fd_err = guarded_max_rel_error(implicit_sub, fd_sub)

    dx_unroll, grads_unroll = unrolled_shared_vjp(p, x, _UNROLL_STEPS, upstream)
    reference = {**grads_unroll, "input": dx_unroll}
    unroll_err = guarded_max_rel_error(implicit_grads, reference)
    return GradCheckResult(
        fd_rel_error=fd_err,
        unroll_rel_error=unroll_err,
        adjoint_converged=int(back.adjoint_result.converged),
    )


def run_grad_check(
    trials: int,
    channels: int = 8,
    spatial: int = 6,
    budget: int = 15,
    seed: int = 0,
    break_vjp: bool = False,
) -> GradCheckResult:
    """Worst-case errors over `trials` random contractive blocks, and the
    adjoint solves' convergence count over all of them."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    solver_cfg = SolverConfig(max_iters=budget, rel_tol=SOLVE_REL_TOL)
    worst_fd = worst_unroll = 0.0
    converged = 0
    for t in range(trials):
        block_seed = 1_000 * (seed + 1) + t
        p = contractive_block(block_seed, channels)
        data_rng = CounterRng(block_seed).split(2)
        x = data_rng.normal((channels, spatial, spatial))
        upstream = data_rng.normal((channels, spatial, spatial))
        result = check_block_gradients(
            p, x, upstream, solver_cfg, coord_seed=block_seed, break_vjp=break_vjp
        )
        worst_fd = max(worst_fd, result.fd_rel_error)
        worst_unroll = max(worst_unroll, result.unroll_rel_error)
        converged += result.adjoint_converged
    return GradCheckResult(worst_fd, worst_unroll, converged)

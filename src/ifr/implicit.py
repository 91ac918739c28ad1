"""Equilibrium feature refinement: root-finding forward, adjoint backward.

Forward: solve phi(h) = F(h; x) - h = 0 from h0 = 0 with the Broyden solver.
Backward: the gradient through the equilibrium never unrolls the solve.
With u the upstream cotangent at h*, the adjoint a solves

    a = u + (dF/dh)^T a,

equivalently a^T (I - J_F) = u^T, the inverse-Jacobian factor of the
implicit function theorem. The same Broyden machinery solves this linear
fixed point, after which single VJP calls at (h*, x) yield the parameter
and input gradients. Only (h*, x, params, upstream) are ever touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    DoubleResidualParams,
    block_apply_factory,
    block_forward_tape,
    block_vjp_from_tape,
)
from .ops import Grads
from .solver import SolverConfig, SolverResult, broyden_solve


@dataclass
class IfrForwardRecord:
    equilibrium: np.ndarray
    input: np.ndarray
    forward_result: SolverResult
    params_snapshot: DoubleResidualParams


@dataclass
class IfrBackwardResult:
    d_params: Grads
    d_x: np.ndarray
    adjoint_result: SolverResult


def ifr_forward(
    p: DoubleResidualParams, x: np.ndarray, cfg: SolverConfig
) -> IfrForwardRecord:
    """Solve the refinement equilibrium h = F(h; x) starting from zeros."""
    apply = block_apply_factory(p, x)

    def residual(h: np.ndarray) -> np.ndarray:
        return apply(h) - h

    result = broyden_solve(residual, np.zeros_like(x), cfg)
    return IfrForwardRecord(
        equilibrium=result.root, input=x, forward_result=result, params_snapshot=p
    )


def ifr_backward(
    rec: IfrForwardRecord, upstream: np.ndarray, cfg: SolverConfig
) -> IfrBackwardResult:
    """Implicit gradients at the solved equilibrium (best effort if unconverged)."""
    if upstream.shape != rec.equilibrium.shape:
        raise ValueError(
            f"upstream shape {upstream.shape} != equilibrium shape {rec.equilibrium.shape}"
        )
    p = rec.params_snapshot
    _, tape = block_forward_tape(p, rec.equilibrium, rec.input)

    def h_vjp(a: np.ndarray) -> np.ndarray:
        d_r, _ = block_vjp_from_tape(p, tape, a, want_params=False)
        return d_r

    def adjoint_residual(a: np.ndarray) -> np.ndarray:
        return upstream + h_vjp(a) - a

    adjoint = broyden_solve(adjoint_residual, np.zeros_like(upstream), cfg)
    d_r, grads = block_vjp_from_tape(p, tape, adjoint.root, want_params=True)
    return IfrBackwardResult(d_params=grads, d_x=d_r, adjoint_result=adjoint)

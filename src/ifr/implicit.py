"""Equilibrium feature refinement: root-finding forward, adjoint backward.

Forward: solve phi(h) = F(h; x) - h = 0 from h0 = 0 with the Broyden solver,
one (C, H, W) sample at a time, each as a stack of one problem.
Backward: the gradient through the equilibrium never unrolls the solve.
With u the upstream cotangent at h*, the adjoint a solves

    a = u + (dF/dh)^T a,

equivalently a^T (I - J_F) = u^T, the inverse-Jacobian factor of the
implicit function theorem. The same Broyden machinery solves this linear
fixed point from a = 0, where its residual is u with no J^T apply, after
which single VJP calls at (h*, x) yield the parameter and input gradients.
Only (h*, x, params, upstream) are ever touched, params being the snapshot
of the block that the forward solve ran on (blocks.prepare_block): the
backward tapes that same snapshot, at the batch's shape.

The backward works on a batch: `stack_records` joins the per-sample records
into one (N, C, H, W) record (a (C, H, W) record is the batch of one), and
ifr_backward runs one taped forward, one adjoint solve of the N stacked
problems (each of its F-evaluations is one batched input-only VJP) and one
with-params VJP whose GEMMs sum the parameter gradients over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    DoubleResidualParams,
    block_apply_factory,
    block_forward_tape,
    block_vjp_from_tape,
    prepare_block,
)
from .ops import Grads, as_batch
from .solver import SolverConfig, SolverResult, broyden_solve


@dataclass
class IfrForwardRecord:
    """A solved equilibrium: one (C, H, W) sample, or a stack_records batch.

    params is the snapshot of the block that the forward solve ran on
    (blocks.prepare_block), not the caller's live record. ifr_backward tapes
    the snapshot, so the caller may update its live record in place between
    ifr_forward and ifr_backward.
    """

    equilibrium: np.ndarray
    input: np.ndarray
    forward_result: SolverResult
    params: DoubleResidualParams


@dataclass
class IfrBackwardResult:
    """Gradients; for a batch, d_params is summed over it and d_x stacked."""

    d_params: Grads
    d_x: np.ndarray
    adjoint_result: SolverResult


def ifr_forward(
    p: DoubleResidualParams, x: np.ndarray, cfg: SolverConfig
) -> IfrForwardRecord:
    """Solve the refinement equilibrium h = F(h; x) starting from zeros.

    p may be a snapshot (blocks.prepare_block), which the solve then uses as
    it is: a caller that solves many samples prepares the block once, and
    ifr_backward tapes the same snapshot.
    """
    block = prepare_block(p)
    apply = block_apply_factory(block, x)
    # F(h) - h, written into the new array F(h)
    result = broyden_solve(lambda h: np.subtract(f := apply(h[0])[None], h, out=f),
                           np.zeros((1,) + x.shape), cfg)
    return IfrForwardRecord(result.root[0], x, result, block)


def stack_records(recs: list[IfrForwardRecord]) -> IfrForwardRecord:
    """Per-sample records of one block as one (N, C, H, W) batch record."""
    root = np.stack([rec.equilibrium for rec in recs])
    forward = SolverResult(root, [s for rec in recs for s in rec.forward_result.problems])
    return IfrForwardRecord(root, np.stack([rec.input for rec in recs]), forward, recs[0].params)


def ifr_backward(
    rec: IfrForwardRecord, upstream: np.ndarray, cfg: SolverConfig
) -> IfrBackwardResult:
    """Implicit gradients at the solved equilibrium (best effort if unconverged).

    A batch record (4-D equilibrium) takes the stacked (N, C, H, W)
    cotangents and solves its N adjoints as one stack, each sample to its
    own tolerance; adjoint_result.problems holds their stats.
    """
    if upstream.shape != rec.equilibrium.shape:
        raise ValueError(
            f"upstream shape {upstream.shape} != equilibrium shape {rec.equilibrium.shape}"
        )
    p, u = rec.params, as_batch(upstream)
    _, tape = block_forward_tape(p, as_batch(rec.equilibrium), as_batch(rec.input))

    def adjoint_residual(a: np.ndarray) -> np.ndarray:
        # affine in a, so it is u at a = 0: the zero start costs no J^T apply
        if not a.any():
            return u
        # (J^T a + u) - a, in the new array J^T a: addition commutes bit for bit
        jt_a = block_vjp_from_tape(p, tape, a, want_params=False)[0]
        return np.subtract(np.add(jt_a, u, out=jt_a), a, out=jt_a)

    adjoint = broyden_solve(adjoint_residual, np.zeros_like(u), cfg)
    d_r, grads = block_vjp_from_tape(p, tape, adjoint.root, want_params=True)
    return IfrBackwardResult(grads, d_r.reshape(upstream.shape), adjoint)

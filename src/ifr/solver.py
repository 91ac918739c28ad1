"""Black-box root finding for residual maps g(x) = 0.

The workhorse is a "good Broyden" iteration: the inverse Jacobian estimate
starts at -I and accumulates rank-one corrections, kept as (u, v) pair
history so no dense matrix is ever formed. The history holds one pair for
each step of the budget but the last, whose residual starts no further step,
so no pair is ever evicted. With the -I seed the first
step is x1 = x0 + g(x0), i.e. a plain fixed-point step when
g(h) = F(h) - h. Every solve is of N independent problems stacked on a
leading axis, each with its own history (one row of an (N, m, d) stack),
tolerance test, divergence guard, best iterate and SolveStatus, so one
batched call of the residual map serves them all; a single problem is a
stack of one. Each step applies the estimate B once and B^T once. Since a
step is the full Broyden step dx = -B g, B g is carried across the rank-one
update, and the update and the next B g are both multiples of B g+: no step
forms dx or B dg as vectors of their own. A plain fixed-point iterator is the
package's one untaped unroll loop, the long-horizon oracle the solver is
tested against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

_REL_EPS = 1e-9
DIVERGENCE_FACTOR = 1e3
RUNAWAY_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """An iteration produced a non-finite or runaway iterate."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass
class SolverConfig:
    max_iters: int = 15
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")


class SolveStatus(enum.Enum):
    """How one problem's solve ended."""

    CONVERGED = "converged"  # its relative residual fell below rel_tol
    BUDGET = "budget"  # max_iters steps ran out first
    DIVERGED = "diverged"  # |g| outgrew DIVERGENCE_FACTOR * |g(x0)|
    NON_FINITE = "non-finite"  # an iterate or its residual overflowed


@dataclass
class SolveStats:
    """One problem's solve; its root is its row of SolverResult.root."""

    residual_trace: list[float]
    status: SolveStatus
    best_iteration: int

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED

    @property
    def iterations_used(self) -> int:
        return len(self.residual_trace)


@dataclass
class SolverResult:
    """A solve of the problems stacked on root's leading axis: problems[i]
    is problem i's own stats.

    converged and iterations_used summarize the stack as one solve (all
    problems converged; the evaluations of residual_fn the slowest problem
    used), so a caller that counts solves reads any stack alike.
    """

    root: np.ndarray
    problems: list[SolveStats]

    @property
    def converged(self) -> bool:
        return all(p.converged for p in self.problems)

    @property
    def iterations_used(self) -> int:
        return max(p.iterations_used for p in self.problems)


def broyden_solve(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: SolverConfig,
) -> SolverResult:
    """Find g(x) = 0 with good Broyden updates.

    residual_trace[k] is the relative residual |g(x_k)| / (|x_k| + 1e-9) at
    iterate k; entry 0 is the starting point, so at most max_iters update
    steps append entries 1..max_iters. The returned root is the iterate with
    the smallest recorded relative residual among those whose absolute
    residual |g(x_k)| is no larger than |g(x0)|, so a solve never returns a
    point worse than its start. The solve stops as diverged when |g(x_k)|
    outgrows DIVERGENCE_FACTOR * |g(x0)|.

    x0 stacks N independent problems on its leading axis, and residual_fn
    maps such a stack to the stack of their residuals. Each problem keeps
    its own history, tolerance test, divergence guard and best iterate. A
    problem that stops is frozen: residual_fn still sees its last iterate
    while the others go on.
    """
    shape = x0.shape
    n = shape[0] if shape else 0
    if n < 1:
        raise ValueError(f"x0 must stack at least one problem, got shape {shape}")
    x = np.array(x0, dtype=np.float64).reshape(n, -1)
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")

    def g_rows(v: np.ndarray) -> np.ndarray:
        out = residual_fn(v.reshape(shape))
        if out.shape != shape:
            raise ValueError(f"residual_fn returned shape {out.shape}, expected {shape}")
        # a copy: the rows of stopped problems are overwritten below
        return np.array(out, dtype=np.float64).reshape(n, -1)

    # each problem's rank-one history, kept as rows of U and V:
    # B w = -w + U^T (V w). A step that updates any problem fills slot k of
    # every problem, with a zero pair for the problems that skip it. Steps
    # 1..max_iters-1 can update, and slot k is written before it is read.
    u_rows = np.empty((n, cfg.max_iters - 1, x.shape[1]))
    v_rows = np.empty_like(u_rows)
    k = 0

    def low_rank(left: np.ndarray, right: np.ndarray, w: np.ndarray) -> np.ndarray:
        """B w with (left, right) = (V, U), B^T w with (U, V)."""
        if k == 0:
            return -w
        return (np.vecdot(left[:, :k], w[:, None, :])[:, None, :] @ right[:, :k])[:, 0] - w

    g = g_rows(x)
    start_norm = np.sqrt(np.vecdot(g, g)).tolist()
    x_norm = np.sqrt(np.vecdot(x, x)).tolist()
    best_rel = [gn / (xn + _REL_EPS) for gn, xn in zip(start_norm, x_norm)]
    traces = [[r] for r in best_rel]
    best_iter = [0] * n
    best_x = x.copy()
    # DIVERGED and NON_FINITE are set where they happen; the others at the end
    status = [SolveStatus.BUDGET] * n
    # the relative residual at x0 = 0 is |g| / 1e-9, so divergence is
    # measured on the absolute residual
    runaway = [DIVERGENCE_FACTOR * gn for gn in start_norm]
    # B g is carried from step to step, so each step applies B and B^T once
    b_g = -g
    # a stopped problem is frozen: its rows of g and B g are held at zero, so
    # its step is zero and everything computed from its rows stays finite
    live = [i for i in range(n) if not best_rel[i] < cfg.rel_tol]
    frozen = [i for i in range(n) if i not in live]
    g[frozen] = b_g[frozen] = 0.0

    for step in range(1, cfg.max_iters + 1):
        if not live:
            break
        x_new = x - b_g
        g_new = g_rows(x_new)
        if frozen:
            g_new[frozen] = 0.0
        g_norm = [math.sqrt(s) for s in np.vecdot(g_new, g_new).tolist()]
        x_norm = [math.sqrt(s) for s in np.vecdot(x_new, x_new).tolist()]
        stopped = []
        for i in live:
            # a norm that overflows counts as non-finite too
            if not math.isfinite(g_norm[i] + x_norm[i]):
                status[i] = SolveStatus.NON_FINITE
                x_new[i], g_new[i] = x[i], 0.0
                stopped.append(i)
                continue
            rel = g_norm[i] / (x_norm[i] + _REL_EPS)
            traces[i].append(rel)
            if rel < best_rel[i] and g_norm[i] <= start_norm[i]:
                best_rel[i], best_iter[i] = rel, step
                best_x[i] = x_new[i]
            if g_norm[i] > runaway[i]:
                status[i] = SolveStatus.DIVERGED
                stopped.append(i)
            elif best_rel[i] < cfg.rel_tol:
                stopped.append(i)
        live = [i for i in live if i not in stopped]
        if not live or step == cfg.max_iters:
            # the last residual starts no further step, so it makes no update
            break
        delta_g = g_new - g
        x, g = x_new, g_new
        if stopped:
            g[stopped] = 0.0
            frozen = [i for i in range(n) if i not in live]
        # good Broyden's update B += (dx - B dg)(dx^T B) / (dx^T B dg), for the
        # full step dx = -B g: there dx - B dg = -B g+ and dx^T B g = -|dx|^2.
        # With w = B^T B g = -B^T dx the update is the pair (-B g+ / (w . dg), w),
        # and it maps g+ to B+ g+ = B g+ (1 - w . g+ / w . dg) = -B g+ |dx|^2 / (w . dg).
        # A delta_g at rounding-noise scale carries no secant information and
        # would put noise-amplified rank-one terms into B, so it skips the update.
        b_g_new = low_rank(v_rows, u_rows, g)
        w = low_rank(u_rows, v_rows, b_g)
        den = np.vecdot(w, delta_g).tolist()
        dg_norm = [math.sqrt(s) for s in np.vecdot(delta_g, delta_g).tolist()]
        dx_sq = np.vecdot(b_g, b_g).tolist()
        update = {
            i for i in live
            if dg_norm[i] > 1e-12 * (g_norm[i] + dg_norm[i]) and abs(den[i]) > 1e-30
        }
        if update:
            # per problem: the factor that makes u from B g+, and the one that makes B+ g+
            coef = np.array([(-1.0 / den[i], -dx_sq[i] / den[i]) if i in update else (0.0, 1.0)
                             for i in range(n)])
            np.multiply(b_g_new, coef[:, :1], out=u_rows[:, k])
            v_rows[:, k] = w
            if len(update) < n:
                skip = [i for i in range(n) if i not in update]
                u_rows[skip, k] = v_rows[skip, k] = 0.0
            k += 1
            b_g_new *= coef[:, 1:]
        if frozen:
            b_g_new[frozen] = 0.0
        b_g = b_g_new

    status = [SolveStatus.CONVERGED if r < cfg.rel_tol else s for r, s in zip(best_rel, status)]
    return SolverResult(best_x.reshape(shape), list(map(SolveStats, traces, status, best_iter)))


def fixed_point_steps(
    map_fn: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, n: int
) -> Iterator[tuple[np.ndarray, float, bool]]:
    """Yields (x_{k+1}, |x_{k+1} - x_k|, runaway) for the steps k < n from x0.

    A runaway step, longer than RUNAWAY_FACTOR times the first step (when
    that is > 0), is the last one yielded. A non-finite iterate or step norm
    raises DivergenceError with its step index. Each step runs when its item
    is asked for, so a caller can use an iterate before the next step.
    """
    x = np.asarray(x0, dtype=np.float64)
    for i in range(n):
        x_next = map_fn(x)
        # x is finite, so a non-finite x_next makes the norm non-finite too
        with np.errstate(over="ignore", invalid="ignore"):
            step = float(np.linalg.norm(x_next - x))
        if not math.isfinite(step):
            raise DivergenceError(f"fixed-point step non-finite at step {i}", step=i)
        first = step if i == 0 else first
        x = x_next
        runaway = first > 0 and step > RUNAWAY_FACTOR * first
        yield x, step, runaway
        if runaway:
            return


def fixed_point_iterate(
    map_fn: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, n: int
) -> tuple[np.ndarray, list[float]]:
    """The last iterate of fixed_point_steps(map_fn, x0, n) (x0 for n = 0) and
    the trace of step norms, shorter than n if a runaway step stopped it."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x, trace = np.array(x0, dtype=np.float64), []
    for x, step, _ in fixed_point_steps(map_fn, x, n):
        trace.append(step)
    return x, trace

"""Black-box root finding for residual maps g(x) = 0.

The workhorse is a limited-memory "good Broyden" iteration: the inverse
Jacobian estimate starts at -I and accumulates rank-one corrections, kept as
(u, v) pair history so no dense matrix is ever formed. With the -I seed the
first step is x1 = x0 + g(x0), i.e. a plain fixed-point step when
g(h) = F(h) - h. A plain fixed-point iterator is the package's untaped
unroll loop and the long-horizon oracle the solver is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_REL_EPS = 1e-9


class DivergenceError(RuntimeError):
    """An iteration produced a non-finite or runaway iterate."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass
class SolverConfig:
    max_iters: int = 15
    rel_tol: float = 1e-6
    damping: float = 1.0
    memory: int | None = None  # None: same as max_iters
    divergence_factor: float = 1e3

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.memory is not None and self.memory < 1:
            raise ValueError("memory must be >= 1")

    @property
    def history_size(self) -> int:
        return self.max_iters if self.memory is None else self.memory


@dataclass
class SolverResult:
    root: np.ndarray
    residual_trace: list[float]
    converged: bool
    iterations_used: int
    best_iteration: int
    note: str = ""


def _rel_residual(g: np.ndarray, x: np.ndarray) -> float:
    return float(np.sqrt(g @ g) / (np.sqrt(x @ x) + _REL_EPS))


def broyden_solve(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: SolverConfig,
) -> SolverResult:
    """Find g(x) = 0 with limited-memory good Broyden updates.

    residual_trace[k] is the relative residual |g(x_k)| / (|x_k| + 1e-9) at
    iterate k; entry 0 is the starting point, so at most max_iters update
    steps append entries 1..max_iters. The returned root is the iterate with
    the smallest recorded relative residual. The solve stops as diverged
    when the absolute residual |g(x_k)| outgrows divergence_factor * |g(x0)|.
    """
    shape = x0.shape
    x = np.asarray(x0, dtype=np.float64).reshape(-1).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")

    def g_flat(v: np.ndarray) -> np.ndarray:
        out = residual_fn(v.reshape(shape))
        if out.shape != shape:
            raise ValueError(f"residual_fn returned shape {out.shape}, expected {shape}")
        return np.asarray(out, dtype=np.float64).reshape(-1)

    # rank-one history kept as rows of U and V: B w = -w + U^T (V w)
    capacity = cfg.history_size
    u_rows = np.zeros((capacity, x.size))
    v_rows = np.zeros((capacity, x.size))
    n_pairs = 0

    def apply_b(w: np.ndarray) -> np.ndarray:
        if n_pairs == 0:
            return -w
        return u_rows[:n_pairs].T @ (v_rows[:n_pairs] @ w) - w

    def apply_bt(w: np.ndarray) -> np.ndarray:
        if n_pairs == 0:
            return -w
        return v_rows[:n_pairs].T @ (u_rows[:n_pairs] @ w) - w

    g = g_flat(x)
    trace = [_rel_residual(g, x)]
    best_iter = 0
    best_x = x.copy()
    note = ""
    # the relative residual at x0 = 0 is |g| / 1e-9, so divergence is
    # measured on the absolute residual
    runaway = cfg.divergence_factor * float(np.sqrt(g @ g))

    for _ in range(cfg.max_iters):
        if trace[best_iter] < cfg.rel_tol:
            break
        step = -cfg.damping * apply_b(g)
        x_new = x + step
        g_new = g_flat(x_new)
        if not np.all(np.isfinite(g_new)) or not np.all(np.isfinite(x_new)):
            note = f"non-finite iterate at step {len(trace)}"
            break
        rel = _rel_residual(g_new, x_new)
        trace.append(rel)
        if rel < trace[best_iter]:
            best_iter = len(trace) - 1
            best_x = x_new.copy()
        delta_x = x_new - x
        delta_g = g_new - g
        x, g = x_new, g_new
        g_norm = float(np.sqrt(g @ g))
        if g_norm > runaway:
            note = f"residual diverged at step {len(trace) - 1}"
            break
        # rank-one inverse-Jacobian correction: B += (dx - B dg) (dx^T B) / (dx^T B dg)
        # a delta_g at rounding-noise scale carries no secant information and
        # would put noise-amplified rank-one terms into B, so skip it
        g_scale = g_norm + float(np.sqrt(delta_g @ delta_g))
        if np.sqrt(delta_g @ delta_g) <= 1e-12 * g_scale:
            continue
        bdg = apply_b(delta_g)
        v = apply_bt(delta_x)
        denom = float(v @ delta_g)
        if abs(denom) > 1e-30:
            if n_pairs >= capacity:
                u_rows[:-1] = u_rows[1:]
                v_rows[:-1] = v_rows[1:]
                n_pairs = capacity - 1
            u_rows[n_pairs] = (delta_x - bdg) / denom
            v_rows[n_pairs] = v
            n_pairs += 1

    converged = trace[best_iter] < cfg.rel_tol
    return SolverResult(
        root=best_x.reshape(shape),
        residual_trace=trace,
        converged=converged,
        iterations_used=len(trace),
        best_iteration=best_iter,
        note=note,
    )


def fixed_point_iterate(
    map_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    n: int,
) -> tuple[np.ndarray, list[float]]:
    """n applications of map_fn with the successive-difference norm trace.

    Raises DivergenceError (with the step index) on a non-finite iterate or
    a step whose norm overflows.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x = np.asarray(x0, dtype=np.float64).copy()
    trace: list[float] = []
    for i in range(n):
        x_next = map_fn(x)
        if not np.all(np.isfinite(x_next)):
            raise DivergenceError(f"fixed-point iterate non-finite at step {i}", step=i)
        with np.errstate(over="ignore", invalid="ignore"):
            step = float(np.linalg.norm(x_next - x))
        if not np.isfinite(step):
            raise DivergenceError(f"fixed-point step norm non-finite at step {i}", step=i)
        trace.append(step)
        x = x_next
    return x, trace

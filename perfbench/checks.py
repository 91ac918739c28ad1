"""Correctness checks on the program's outputs.

Each check returns a list of failure messages; an empty list is a pass.
The oracles are the plain-numpy references in reference.py, or properties
the method must have whatever the implementation. The benchmark's own tests
(test_checks.py) feed every check a perturbed output and expect a failure.
"""

from __future__ import annotations

import math
import re

import numpy as np

import reference

# tolerances of `ifr grad-check`, as the program documents them
FD_TOLERANCE = 1e-4
UNROLL_TOLERANCE = 1e-3
# diagnose's Arnoldi radius against a dense eigen-decomposition
SPECTRAL_RADIUS_TOLERANCE = 1e-2
# solver root against a long unroll on a contractive block
IMPLICIT_GAP_TOLERANCE = 1e-6
# central differences of the reference loss against the program's gradient
GRADIENT_TOLERANCE = 1e-4
# the program's and the reference's float64 sums may differ in the last bits
AGREEMENT_TOLERANCE = 1e-9


def _close(a: float, b: float, tol: float = AGREEMENT_TOLERANCE) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def eval_matches_reference(
    mean_iou: float, mean_loss: float, logits: list[np.ndarray], masks: list[np.ndarray]
) -> list[str]:
    """The program's evaluation IoU and loss, recomputed from its own logits."""
    ref_iou = reference.mean_iou(logits, masks)
    ref_loss = float(np.mean([reference.bce(z, m) for z, m in zip(logits, masks)]))
    failures = []
    if not _close(mean_iou, ref_iou):
        failures.append(f"eval IoU {mean_iou!r} != reference IoU {ref_iou!r}")
    if not _close(mean_loss, ref_loss):
        failures.append(f"eval loss {mean_loss!r} != reference BCE {ref_loss!r}")
    return failures


def beats_constant_predictor(mean_iou: float, masks: list[np.ndarray]) -> list[str]:
    baseline = reference.constant_predictor_iou(masks)
    if mean_iou > baseline:
        return []
    return [f"eval IoU {mean_iou:.4f} does not beat the constant predictor's {baseline:.4f}"]


def loss_decreases(metric_rows: list[dict]) -> list[str]:
    """Mean loss of the last logging window below that of the first."""
    if len(metric_rows) < 2:
        return [f"need two logging windows, got {len(metric_rows)}"]
    first, last = metric_rows[0]["loss"], metric_rows[-1]["loss"]
    if last < first:
        return []
    return [f"last-window loss {last:.4f} is not below first-window loss {first:.4f}"]


def solve_is_sound(
    block_params, x: np.ndarray, root: np.ndarray, converged: bool, rel_tol: float
) -> list[str]:
    """A forward solve's root under the reference F.

    Reported converged: the relative residual |F(h) - h| / |h| is below
    rel_tol. Always: the returned (best) iterate's residual is no larger
    than the residual of the starting point h0 = 0.
    """
    apply = reference.block_map(block_params, x)
    residual = float(np.linalg.norm(apply(root) - root))
    start = float(np.linalg.norm(apply(np.zeros_like(x))))
    failures = []
    if converged:
        rel = residual / (float(np.linalg.norm(root)) + 1e-9)
        if not rel < rel_tol:
            failures.append(
                f"solve reported converged but the reference relative residual is "
                f"{rel:.3e} >= rel_tol {rel_tol:g}"
            )
    if residual > start:
        failures.append(
            f"returned iterate's residual {residual:.3e} exceeds the residual "
            f"{start:.3e} at h0 = 0"
        )
    return failures


def gradients_match_differences(
    loss_fn, leaves: dict[str, np.ndarray], grads: dict[str, np.ndarray],
    coords: list[tuple[str, int]], eps: float = 1e-6,
) -> list[str]:
    """Central differences of loss_fn() over in-place leaf perturbations.

    The error of each coordinate is guarded as in the program's grad-check:
    |a - r| / max(|a|, |r|, 1e-4 * the largest gradient entry), so entries
    whose true gradient is structurally zero do not divide by noise.
    """
    scale = max(float(np.abs(g).max(initial=0.0)) for g in grads.values())
    floor = max(1e-4 * scale, 1e-300)
    failures = []
    for name, index in coords:
        flat = leaves[name].reshape(-1)
        orig = flat[index]
        flat[index] = orig + eps
        up = loss_fn()
        flat[index] = orig - eps
        down = loss_fn()
        flat[index] = orig
        fd = (up - down) / (2.0 * eps)
        an = float(grads[name].reshape(-1)[index])
        err = abs(fd - an) / max(abs(fd), abs(an), floor)
        if not err <= GRADIENT_TOLERANCE:
            failures.append(
                f"gradient of {name}[{index}]: program {an:.6e}, central difference "
                f"{fd:.6e} (rel error {err:.2e})"
            )
    return failures


_GRAD_CHECK_LINE = re.compile(r"max rel error vs (finite differences|unroll backprop):\s+(\S+)")


def parse_grad_check(stdout: str) -> tuple[float, float]:
    """(finite-difference error, unroll error) from `ifr grad-check` output."""
    found = dict(_GRAD_CHECK_LINE.findall(stdout))
    try:
        return float(found["finite differences"]), float(found["unroll backprop"])
    except KeyError as exc:
        raise ValueError(f"grad-check output lacks the error lines: {stdout!r}") from exc


def grad_check_passes(exit_code: int, fd_error: float, unroll_error: float) -> list[str]:
    failures = []
    if exit_code != 0:
        failures.append(f"ifr grad-check exited {exit_code}")
    if not fd_error <= FD_TOLERANCE:
        failures.append(f"grad-check finite-difference error {fd_error:.3e} > {FD_TOLERANCE:g}")
    if not unroll_error <= UNROLL_TOLERANCE:
        failures.append(f"grad-check unroll error {unroll_error:.3e} > {UNROLL_TOLERANCE:g}")
    return failures


def grad_check_headroom(fd_error: float, unroll_error: float) -> float:
    """1 - the worst grad-check error as a share of its tolerance."""
    return 1.0 - max(fd_error / FD_TOLERANCE, unroll_error / UNROLL_TOLERANCE)


def spectral_radius_matches(estimate: float, jacobian: np.ndarray) -> list[str]:
    exact = float(np.max(np.abs(np.linalg.eigvals(jacobian))))
    if abs(estimate - exact) <= SPECTRAL_RADIUS_TOLERANCE:
        return []
    return [
        f"diagnose spectral_radius_at_end {estimate:.6f} is not within "
        f"{SPECTRAL_RADIUS_TOLERANCE:g} of the dense-Jacobian radius {exact:.6f}"
    ]


def implicit_gaps_small(gaps: list[float]) -> list[str]:
    if not gaps:
        return ["diagnose reported no implicit_gap"]
    bad = [g for g in gaps if not (math.isfinite(g) and g < IMPLICIT_GAP_TOLERANCE)]
    if not bad:
        return []
    return [f"implicit_gap {bad} not below {IMPLICIT_GAP_TOLERANCE:g} on a contractive block"]


def diagnose_rows(csv_text: str) -> list[tuple[int, str, int, float]]:
    """(input, metric, step, value) rows of a `# ifr-csv v1` diagnose file."""
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "input,metric,step,value":
        raise ValueError("diagnose CSV lacks its header")
    rows = []
    for line in lines[1:]:
        i, metric, step, value = line.split(",")
        rows.append((int(i), metric, int(step), float(value)))
    return rows

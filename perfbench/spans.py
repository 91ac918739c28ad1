"""Span tracing around the calls into each layer of the ifr package.

The wrappers live here, not in the program: installing them rebinds each
traced function on every module namespace that calls it. Callers import by
name (`from .implicit import ifr_forward` in training, diagnostics and
gradcheck; `from .solver import broyden_solve` in implicit; the blocks
kernels in implicit and diagnostics), so a wrapper placed only on the
defining module would miss those calls. Spans are kept in memory as
(name, parent, start_ns, end_ns, info) and written out at the end.

A span's self time is its duration minus the durations of its direct
children. Everything runs on one thread, so the self times of all spans
under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import statistics
import time
from pathlib import Path

# (defining module, function, span name, every module namespace it is called through)
_SIMPLE_SITES = [
    ("ops", "conv2d", "ops.conv2d", ["ops"]),
    ("ops", "conv2d_vjp", "ops.conv2d_vjp", ["ops"]),
    ("ops", "conv2d_input_vjp", "ops.conv2d_input_vjp", ["ops"]),
    ("ops", "group_norm_input_vjp", "ops.group_norm_input_vjp", ["ops"]),
    ("ops", "deconv2x2", "ops.deconv2x2", ["ops"]),
    ("ops", "deconv2x2_vjp", "ops.deconv2x2_vjp", ["ops"]),
    ("blocks", "block_forward_tape", "blocks.block_forward_tape", ["blocks", "implicit"]),
    ("blocks", "mask_predictor_forward", "blocks.mask_predictor_forward", ["blocks"]),
    ("blocks", "mask_predictor_vjp", "blocks.mask_predictor_vjp", ["blocks"]),
    ("implicit", "ifr_forward", "implicit.ifr_forward", ["training", "diagnostics", "gradcheck"]),
    ("implicit", "ifr_backward", "implicit.ifr_backward", ["training", "gradcheck"]),
    ("training", "train", "training.train", ["training", "cli"]),
    ("training", "evaluate", "training.evaluate", ["training"]),
    ("training", "sample_loss_and_grads", "training.sample_loss_and_grads", ["training"]),
    ("training", "bce_mask_loss", "training.bce_mask_loss", ["training"]),
    ("training", "clip_global_norm", "training.clip_global_norm", ["training"]),
    ("training", "sgd_step", "training.sgd_step", ["training"]),
    ("training", "apply_stability_caps", "training.apply_stability_caps", ["training"]),
    ("diagnostics", "unroll_convergence", "diagnostics.unroll_convergence", ["diagnostics", "cli"]),
    ("diagnostics", "spectral_radius", "diagnostics.spectral_radius", ["diagnostics", "cli"]),
    ("diagnostics", "implicit_gap", "diagnostics.implicit_gap", ["diagnostics", "cli"]),
    ("gradcheck", "run_grad_check", "gradcheck.run_grad_check", ["gradcheck", "cli"]),
    ("gradcheck", "check_block_gradients", "gradcheck.check_block_gradients", ["gradcheck"]),
    ("blocks", "unrolled_shared_vjp", "gradcheck.unrolled_shared_vjp", ["gradcheck"]),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", ["checkpoint", "cli"]),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", ["checkpoint", "cli"]),
    ("data", "generate", "data.generate", ["data", "cli"]),
]

# per-layer metrics, in the order they are printed: (name, unit)
PER_LAYER = [
    ("blocks.block_apply.calls", "count"),
    ("blocks.block_apply.us_p50", "us"),
    ("blocks.block_apply.gflop_per_s", "GFLOP/s"),
    ("blocks.block_vjp.input_only.calls", "count"),
    ("blocks.block_vjp.input_only.us_p50", "us"),
    ("blocks.block_forward_tape.calls", "count"),
    ("blocks.block_forward_tape.us_p50", "us"),
    ("blocks.block_vjp.with_params.us_p50", "us"),
    ("blocks.mask_predictor_forward.us_p50", "us"),
    ("blocks.mask_predictor_vjp.us_p50", "us"),
    ("ops.conv2d.us_p50", "us"),
    ("ops.conv2d_vjp.us_p50", "us"),
    ("ops.conv2d_input_vjp.us_p50", "us"),
    ("ops.group_norm_input_vjp.us_p50", "us"),
    ("ops.deconv2x2.us_p50", "us"),
    ("ops.deconv2x2_vjp.us_p50", "us"),
    ("solver.broyden_solve.calls", "count"),
    ("solver.broyden_solve.ms_p50", "ms"),
    ("solver.broyden_solve.self_ms_p50", "ms"),
    ("solver.forward.fevals_per_solve", "count"),
    ("solver.adjoint.fevals_per_solve", "count"),
    ("solver.forward.converged_frac", "frac"),
    ("solver.adjoint.converged_frac", "frac"),
    ("implicit.ifr_forward.calls", "count"),
    ("implicit.ifr_forward.ms_p50", "ms"),
    ("implicit.ifr_backward.ms_p50", "ms"),
    ("training.sample_loss_and_grads.calls", "count"),
    ("training.sample_loss_and_grads.ms_p50", "ms"),
    ("training.bce_mask_loss.us_p50", "us"),
    ("training.clip_global_norm.us_p50", "us"),
    ("training.train.self_s", "s"),
    ("training.sgd_step.us_p50", "us"),
    ("training.apply_stability_caps.us_p50", "us"),
    ("training.evaluate.ms", "ms"),
    ("diagnostics.unroll_convergence.ms", "ms"),
    ("diagnostics.spectral_radius.ms", "ms"),
    ("diagnostics.implicit_gap.ms", "ms"),
    ("diagnostics.jacobian_apply.calls", "count"),
    ("gradcheck.check_block_gradients.ms_p50", "ms"),
    ("gradcheck.forward_solves_per_trial", "count"),
    ("gradcheck.unrolled_shared_vjp.ms_p50", "ms"),
    ("checkpoint.save_checkpoint.ms", "ms"),
    ("checkpoint.load_checkpoint.ms", "ms"),
    ("data.generate.ms", "ms"),
    ("trace.round_untraced_s", "s"),
    ("trace.round_traced_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
    ("trace.overhead_est_pct", "%"),
    ("trace.train_untraced_s", "s"),
    ("trace.train_traced_s", "s"),
    ("trace.train_self_sum_s", "s"),
]


def block_apply_flops(p, shape) -> int:
    """Multiply-adds x 2 of the block's convolutions; elementwise work is left out."""
    c, h, w = shape
    mid = p.w1.direction.shape[0]
    flops = 2 * (mid * c * 9 + c * mid * 9) * h * w
    if p.residual_enabled and p.shortcut is not None:
        flops += 2 * c * c * h * w
    return flops


class Tracer:
    """Records nested spans while installed; restores every rebinding on uninstall."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def _record(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, None)
            if info is not None:
                spans[sid] = (name, parent, t0, t1, info(result, args, kwargs))
            return result

        return wrapper

    def _block_vjp(self, fn):
        input_only = self._record("blocks.block_vjp.input_only", fn)
        with_params = self._record("blocks.block_vjp.with_params", fn)

        @functools.wraps(fn)
        def wrapper(p, tape, cotangent, want_params=True):
            target = with_params if want_params else input_only
            return target(p, tape, cotangent, want_params=want_params)

        return wrapper

    def _block_apply_factory(self, fn):
        def wrapper(p, x):
            flops = block_apply_flops(p, x.shape)
            return self._record("blocks.block_apply", fn(p, x), info=lambda r, a, k: flops)

        return functools.wraps(fn)(wrapper)

    def _jacobian_apply_factory(self, fn):
        def wrapper(*args, **kwargs):
            return self._record("diagnostics.jacobian_apply", fn(*args, **kwargs))

        return functools.wraps(fn)(wrapper)

    def _solve_info(self, result, args, kwargs):
        return (result.iterations_used, bool(result.converged))

    # -- installation

    def _rebind(self, module_name: str, attr: str, wrapped) -> None:
        module = getattr(self.package, module_name)
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapped)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        for module_name, attr, span_name, sites in _SIMPLE_SITES:
            wrapped = self._record(span_name, getattr(getattr(pkg, module_name), attr))
            for site in sites:
                self._rebind(site, attr, wrapped)
        vjp = self._block_vjp(pkg.blocks.block_vjp_from_tape)
        for site in ("blocks", "implicit"):
            self._rebind(site, "block_vjp_from_tape", vjp)
        factory = self._block_apply_factory(pkg.blocks.block_apply_factory)
        for site in ("implicit", "diagnostics"):
            self._rebind(site, "block_apply_factory", factory)
        self._rebind(
            "diagnostics", "block_jacobian_apply",
            self._jacobian_apply_factory(pkg.diagnostics.block_jacobian_apply),
        )
        solve = self._record("solver.broyden_solve", pkg.solver.broyden_solve, self._solve_info)
        for site in ("implicit", "cli"):
            self._rebind(site, "broyden_solve", solve)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for sid, (name, parent, t0, t1, _) in enumerate(self.spans):
                out.write(f"{sid},{parent},{name},{t0},{t1}\n")


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def span_cost_ns(calls: int = 20_000) -> float:
    """Added nanoseconds per call of a span wrapper, on a function doing nothing."""

    def nothing():
        return None

    wrapped = Tracer(None)._record("calibration", nothing)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            nothing()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter_ns()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def self_times(spans) -> list[int]:
    """Span duration minus the durations of its direct children, in ns."""
    out = [t1 - t0 for (_, _, t0, t1, _) in spans]
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def under(spans, root_name: str) -> list[bool]:
    """Whether each span is a span named root_name or lies below one."""
    inside = [False] * len(spans)
    for sid, (name, parent, _, _, _) in enumerate(spans):
        inside[sid] = name == root_name or (parent >= 0 and inside[parent])
    return inside


def subtree_self_sum(spans, selfs, root_name: str) -> float:
    """Seconds of self time of every span under (and including) the named roots."""
    return sum(s for s, inside in zip(selfs, under(spans, root_name)) if inside) * 1e-9


# metric-name suffix -> (statistic over the calls of the span so named, scale from ns)
_SPAN_STATS = [
    (".calls", "count", 1.0),
    (".self_ms_p50", "self", 1e-6),
    (".self_s", "self", 1e-9),
    (".us_p50", "duration", 1e-3),
    (".ms_p50", "duration", 1e-6),
    (".ms", "duration", 1e-6),
]


def layer_metrics(setup_spans, round_spans, round_untraced_s: float, round_traced_s: float,
                  train_untraced_s: float, span_cost_ns: float) -> dict[str, float]:
    """Every PER_LAYER metric; a layer the workload never calls reads 0.

    A metric named <span name><suffix> is a statistic of that span's calls
    (_SPAN_STATS); medians are per call. Counts and timings cover the traced
    set-up and the traced round; the tracing overhead and the training
    self-time sum cover the round alone. The measured overhead compares two
    rounds and carries the host's noise; the estimate multiplies the round's
    span count by the calibrated cost of one span.
    """
    offset = len(setup_spans)
    spans = list(setup_spans) + [
        (name, parent + offset if parent >= 0 else -1, t0, t1, info)
        for name, parent, t0, t1, info in round_spans
    ]
    selfs = self_times(spans)
    by_stat: dict[str, dict[str, list[int]]] = {"duration": {}, "self": {}}
    for sid, (name, _, t0, t1, _) in enumerate(spans):
        by_stat["duration"].setdefault(name, []).append(t1 - t0)
        by_stat["self"].setdefault(name, []).append(selfs[sid])

    m: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        for suffix, stat, scale in _SPAN_STATS:
            if metric.endswith(suffix):
                values = by_stat["self" if stat == "self" else "duration"].get(
                    metric[: -len(suffix)], [])
                m[metric] = float(len(values)) if stat == "count" else _median(values, scale)
                break

    applies = [(t1 - t0, info) for (name, _, t0, t1, info) in spans if name == "blocks.block_apply"]
    busy_ns = sum(d for d, _ in applies)
    m["blocks.block_apply.gflop_per_s"] = sum(f for _, f in applies) / busy_ns if busy_ns else 0.0

    solves = {"implicit.ifr_forward": [], "implicit.ifr_backward": []}
    for name, parent, _, _, info in spans:
        if name == "solver.broyden_solve" and parent >= 0 and spans[parent][0] in solves:
            solves[spans[parent][0]].append(info)
    for side, parent_name in (("forward", "implicit.ifr_forward"),
                              ("adjoint", "implicit.ifr_backward")):
        infos = solves[parent_name]
        m[f"solver.{side}.fevals_per_solve"] = (
            sum(i for i, _ in infos) / len(infos) if infos else 0.0
        )
        m[f"solver.{side}.converged_frac"] = (
            sum(c for _, c in infos) / len(infos) if infos else 0.0
        )

    trials = len(by_stat["duration"].get("gradcheck.check_block_gradients", []))
    solves_in_trials = sum(
        1 for inside, span in zip(under(spans, "gradcheck.check_block_gradients"), spans)
        if inside and span[0] == "implicit.ifr_forward"
    )
    m["gradcheck.forward_solves_per_trial"] = solves_in_trials / trials if trials else 0.0

    m["trace.round_untraced_s"] = round_untraced_s
    m["trace.round_traced_s"] = round_traced_s
    m["trace.overhead_pct"] = 100.0 * (round_traced_s - round_untraced_s) / round_untraced_s
    m["trace.spans"] = float(len(round_spans))
    m["trace.span_cost_ns"] = span_cost_ns
    m["trace.overhead_est_pct"] = 100.0 * len(round_spans) * span_cost_ns * 1e-9 / round_traced_s
    m["trace.train_untraced_s"] = train_untraced_s
    m["trace.train_traced_s"] = sum(
        t1 - t0 for name, parent, t0, t1, _ in round_spans
        if name == "training.train" and parent == -1
    ) * 1e-9
    m["trace.train_self_sum_s"] = subtree_self_sum(
        round_spans, self_times(round_spans), "training.train"
    )
    return m

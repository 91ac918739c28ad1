"""The benchmark's workloads: their inputs, one round of operations, and checks.

A round is a fixed list of calls into the program's public entry points.
Rounds repeat unchanged until the run's time is spent, so the share of
failed operations is the same in every run. Short rounds interleave the
kinds of work over the whole run, which averages out the slow and fast
spells of a shared host better than one long block of each. Checks run outside the timed
calls and never change what a later round computes.

Every workload reports the same end-to-end metrics (see README.md):
fwd_bwd_per_s and fwd_only_per_s are the rates of the workload's
forward-and-backward and forward-only work, and quality is what a faster
version must not give up. The host clock (hostspeed.py) times each call
and probes the host's speed around and during it, to scale its seconds to
the nominal host speed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import warnings
from pathlib import Path

import numpy as np

import checks
import hostspeed
import reference

# one schedule for every train-* workload: three logging windows of 50 iterations
TRAIN_ITERS = 150
LOG_EVERY = 50
BATCH = 8
# the training set is the desk preset's, the same in every run; the workload
# seed makes the evaluation set, drawn from the stream seed + EVAL_SEED_OFFSET
# so that it never repeats the training samples
TRAIN_DATA_SEED = 1
TRAIN_COUNT = 320
EVAL_COUNT = 1536
EVAL_SEED_OFFSET = 1 << 32
# evaluate runs once on each of this many equal, disjoint parts of the set
EVAL_PARTS = 3
SAMPLED_SOLVES = 8

# grad-check draws its blocks from its own --seed; a fixed one keeps its
# accuracy, the analyze workload's quality, comparable between runs
GRAD_CHECK_SEED = 0
GRAD_CHECK_TRIALS = 1
DIAGNOSE_STEPS = 1000
DIAGNOSE_INPUTS = 1


@dataclasses.dataclass
class Round:
    """What one round measured: item counts and seconds per kind of work.

    *_s are wall seconds; *_host_s are the same seconds at the nominal host speed.
    """

    fwd_bwd_items: int = 0
    fwd_bwd_s: float = 0.0
    fwd_bwd_host_s: float = 0.0
    fwd_only_items: int = 0
    fwd_only_s: float = 0.0
    fwd_only_host_s: float = 0.0
    train_s: float = 0.0
    quality: float = float("nan")
    attempted: int = 0
    failed: int = 0
    # why operations failed, and which checks on their outputs failed
    causes: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)


class _Operation:
    """Counts one attempted program call; an exception marks it failed."""

    def __init__(self, rnd: Round, what: str):
        self.rnd, self.what = rnd, what

    def __enter__(self):
        self.rnd.attempted += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None or not issubclass(exc_type, Exception):
            return False
        self.rnd.failed += 1
        self.rnd.causes.append(f"{self.what}: {exc_type.__name__}: {exc}")
        return True


@contextlib.contextmanager
def _capture(module, name: str, record: list, limit: int | None = None):
    """Rebinds module.name to record (args, result) of its first calls."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        if limit is None or len(record) < limit:
            record.append((args, result))
        return result

    setattr(module, name, wrapper)
    try:
        yield record
    finally:
        setattr(module, name, original)


# ---------------------------------------------------------------------------
# training workloads


class TrainWorkload:
    """Trains each cell on the fixed schedule, then evaluates it on a held-apart set."""

    def __init__(self, ifr, name: str, why: str, cells, head_overrides=None,
                 data_overrides=None, round_trip_checkpoint: bool = False):
        self.ifr, self.name, self.why = ifr, name, why
        self.cells = cells
        self.head_overrides = head_overrides or {}
        self.data_overrides = data_overrides or {}
        self.round_trip_checkpoint = round_trip_checkpoint
        self.solver_cfg = ifr.solver.SolverConfig(max_iters=15, rel_tol=1e-6)
        self.train_cfg = ifr.training.TrainConfig(
            base_lr=0.01, momentum=0.9, total_iters=TRAIN_ITERS, decay_points=(),
            warmup_iters=50, batch_size=BATCH, seed=0,
        )
        self.first = None  # (head, state, rows, metrics per eval part) per cell of round one
        self.clock = hostspeed.HostClock()

    def head(self, strategy: str, depth: int):
        base = dict(
            strategy=strategy, depth_or_budget=depth, channels=8, predictor_classes=1,
            shortcut_mode="conv1x1", weight_norm=True, double_residual=True,
            gn2_scale_init=0.1, shortcut_gain_init=0.2,
        )
        base.update(self.head_overrides)
        return self.ifr.blocks.HeadConfig(**base)

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        spec = self.ifr.data.DatasetSpec
        self.train_set = self.ifr.data.generate(
            spec(seed=TRAIN_DATA_SEED, count=TRAIN_COUNT, channels=8, **self.data_overrides))
        eval_set = self.ifr.data.generate(
            spec(seed=seed + EVAL_SEED_OFFSET, count=EVAL_COUNT, channels=8,
                 **self.data_overrides))
        size = EVAL_COUNT // EVAL_PARTS
        self.eval_parts = [eval_set[i * size:(i + 1) * size] for i in range(EVAL_PARTS)]

    def run_round(self) -> Round:
        training = self.ifr.training
        rnd = Round()
        results, ious = [], []
        for strategy, depth in self.cells:
            head = self.head(strategy, depth)
            state = None
            with _Operation(rnd, f"train {strategy}:{depth}"):
                with warnings.catch_warnings():
                    # an implicit head that stops short of its equilibrium warns;
                    # the traced converged fractions carry that information
                    warnings.simplefilter("ignore", training.OffEquilibriumWarning)
                    (state, rows), dt, host_dt = self.clock.call(
                        training.train, head, self.train_cfg, self.train_set,
                        solver_cfg=self.solver_cfg, log_every=LOG_EVERY)
                rnd.train_s += dt
                rnd.fwd_bwd_s += dt
                rnd.fwd_bwd_host_s += host_dt
                rnd.fwd_bwd_items += TRAIN_ITERS * BATCH
            if state is None:
                continue
            parts = []
            for part in self.eval_parts:
                with _Operation(rnd, f"evaluate {strategy}:{depth}"):
                    metrics, dt, host_dt = self.clock.call(training.evaluate, state, part)
                    rnd.fwd_only_s += dt
                    rnd.fwd_only_host_s += host_dt
                    rnd.fwd_only_items += len(part)
                    parts.append(metrics)
            if len(parts) < len(self.eval_parts):
                continue
            if self.round_trip_checkpoint:
                with _Operation(rnd, "checkpoint round-trip"):
                    self.checkpoint_round_trip(head, state)
            results.append((head, state, rows, parts))
            # equal parts: the mean over parts is the mean IoU of the whole set
            ious.append(float(np.mean([m.mean_iou for m in parts])))
        rnd.quality = float(np.mean(ious)) if ious else float("nan")
        if self.first is None:
            self.first = results
        else:
            for (_, _, _, m0), (_, _, _, m) in zip(self.first, results):
                if m != m0:
                    rnd.failures.append(f"evaluation differs between rounds: {m} != {m0}")
        return rnd

    def checkpoint_round_trip(self, head, state) -> None:
        """save_checkpoint then load_checkpoint must give back the head unchanged."""
        path = self.workdir / f"{self.name}.ifr"
        self.ifr.checkpoint.save_checkpoint(path, head, state.params)
        cfg, params = self.ifr.checkpoint.load_checkpoint(path)
        if cfg != head:
            diff = {f.name: (getattr(head, f.name), getattr(cfg, f.name))
                    for f in dataclasses.fields(head)
                    if getattr(head, f.name) != getattr(cfg, f.name)}
            raise ValueError(f"reloaded HeadConfig differs (saved, loaded): {diff}")
        saved = dict(state.params.leaf_items())
        loaded = dict(params.leaf_items())
        if saved.keys() != loaded.keys():
            raise ValueError("reloaded head has other parameter leaves")
        for leaf, arr in saved.items():
            if not np.array_equal(arr, loaded[leaf]):
                raise ValueError(f"reloaded parameter leaf {leaf} differs")

    def check(self) -> list[str]:
        """Checks on the first round's trained cells, outside every timed call.

        The references are recomputed on the first part of the evaluation set.
        """
        failures = []
        training = self.ifr.training
        for head, state, rows, parts in self.first or []:
            cell = f"{head.strategy}:{head.depth_or_budget}"
            metrics = parts[0]
            losses, solves = [], []
            with _capture(training, "bce_mask_loss", losses), \
                    _capture(training, "ifr_forward", solves, SAMPLED_SOLVES):
                again = training.evaluate(state, self.eval_parts[0])
            if again != metrics:
                failures.append(f"{cell}: a repeated evaluation differs")
            logits = [args[0] for args, _ in losses]
            masks = [args[1] for args, _ in losses]
            found = checks.eval_matches_reference(metrics.mean_iou, metrics.mean_loss,
                                                  logits, masks)
            found += checks.beats_constant_predictor(metrics.mean_iou, masks)
            found += checks.loss_decreases(rows)
            for (p, x, cfg), rec in solves:
                found += checks.solve_is_sound(p, x, rec.equilibrium,
                                               rec.forward_result.converged, cfg.rel_tol)
            if head.strategy != "implicit-broyden":
                found += self.check_gradients(head, state)
            failures += [f"{cell}: {f}" for f in found]
        return failures

    def check_gradients(self, head, state) -> list[str]:
        """Central differences of the reference loss against sample_loss_and_grads."""
        sample = self.train_set[0]
        _, grads, _, _ = self.ifr.training.sample_loss_and_grads(
            state.params, head, state.solver_cfg, sample)
        leaves = dict(state.params.leaf_items())
        grad_leaves = dict(grads.leaf_items())

        def loss() -> float:
            logits = reference.finite_head_logits(
                state.params, head.strategy, head.depth_or_budget, sample.feature)
            return reference.bce(logits, sample.mask)

        # one coordinate of every parameter leaf, drawn from the workload seed
        rng = np.random.default_rng(self.seed % (1 << 32))
        coords = [(name, int(rng.integers(leaves[name].size))) for name in sorted(leaves)]
        return checks.gradients_match_differences(loss, leaves, grad_leaves, coords)


# ---------------------------------------------------------------------------
# analysis commands


class AnalyzeWorkload:
    """`ifr grad-check` and `ifr diagnose` on the desk-preset implicit head at init."""

    name = "analyze"
    why = ("ifr grad-check and ifr diagnose on a contractive head: the only workload "
           "that runs the diagnostics, gradcheck and checkpoint layers")

    def __init__(self, ifr):
        self.ifr = ifr
        self.first = None
        self.clock = hostspeed.HostClock()

    def head(self):
        return self.ifr.blocks.HeadConfig(
            strategy="implicit-broyden", depth_or_budget=15, channels=8, predictor_classes=1,
            shortcut_mode="conv1x1", weight_norm=True, gn2_scale_init=0.1,
            shortcut_gain_init=0.2)

    def setup(self, seed: int, workdir: Path) -> None:
        """Writes the checkpoint of an untrained head (train with zero iterations)."""
        self.seed, self.workdir = seed, workdir
        ifr = self.ifr
        tiny = ifr.data.generate(ifr.data.DatasetSpec(seed=seed, count=8, channels=8))
        cfg = ifr.training.TrainConfig(total_iters=0, decay_points=(), warmup_iters=0,
                                       batch_size=BATCH, seed=seed)
        state, _ = ifr.training.train(self.head(), cfg, tiny)
        self.checkpoint = workdir / "init.ifr"
        ifr.checkpoint.save_checkpoint(self.checkpoint, self.head(), state.params)

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.ifr.cli.main(argv)
        return code, out.getvalue()

    def run_round(self) -> Round:
        rnd = Round()
        with _Operation(rnd, "ifr grad-check"):
            (code, text), dt, host_dt = self.clock.call(self._cli, [
                "grad-check", "--trials", str(GRAD_CHECK_TRIALS), "--seed", str(GRAD_CHECK_SEED)])
            rnd.fwd_bwd_s += dt
            rnd.fwd_bwd_host_s += host_dt
            rnd.fwd_bwd_items += GRAD_CHECK_TRIALS
            errors = checks.parse_grad_check(text)
            rnd.failures += checks.grad_check_passes(code, *errors)
            rnd.quality = checks.grad_check_headroom(*errors)
        with _Operation(rnd, "ifr diagnose"):
            (code, _), dt, host_dt = self.clock.call(self._cli, [
                "--output-dir", str(self.workdir), "diagnose", "--checkpoint", "init.ifr",
                "--steps", str(DIAGNOSE_STEPS), "--inputs", str(DIAGNOSE_INPUTS),
                "--seed", str(self.seed), "--out", "diagnose.csv"])
            rnd.fwd_only_s += dt
            rnd.fwd_only_host_s += host_dt
            rnd.fwd_only_items += DIAGNOSE_INPUTS
            if code != 0:
                raise RuntimeError(f"ifr diagnose exited {code}")
            rows = checks.diagnose_rows((self.workdir / "diagnose.csv").read_text())
            rnd.failures += checks.implicit_gaps_small(
                [v for _, metric, _, v in rows if metric == "implicit_gap"])
            if self.first is None:
                self.first = rows
            elif rows != self.first:
                rnd.failures.append("diagnose output differs between rounds")
        return rnd

    def check(self) -> list[str]:
        """diagnose's end radius on input 0 against a dense reference Jacobian."""
        if self.first is None:
            return []
        ends = [v for i, metric, _, v in self.first
                if i == 0 and metric == "spectral_radius_at_end"]
        if not ends:
            return ["diagnose reported no spectral_radius_at_end for input 0"]
        _, params = self.ifr.checkpoint.load_checkpoint(self.checkpoint)
        # the first input diagnose draws for --seed
        x = self.ifr.rng.CounterRng(self.seed).split(0).normal((8, 14, 14))
        apply = reference.block_map(params.stages[0], x)
        h = np.zeros_like(x)
        for _ in range(DIAGNOSE_STEPS):
            h = apply(h)
        return checks.spectral_radius_matches(ends[0], reference.dense_jacobian(apply, h))


def build(ifr) -> dict:
    budget = TrainWorkload(
        ifr, "train-implicit-budget",
        "implicit head, null caps: solves stop at their 16-evaluation budget, so it "
        "prices one F-evaluation",
        [("implicit-broyden", 15)])
    converged = TrainWorkload(
        ifr, "train-implicit-converged",
        "implicit head with the README caps and data: most solves converge early, so "
        "fewer solver evaluations show",
        [("implicit-broyden", 15)],
        head_overrides=dict(gn2_scale_cap=0.1, shortcut_gain_cap=0.25),
        data_overrides=dict(noise_sigma=0.15, blur_passes=4),
        round_trip_checkpoint=True)
    finite = TrainWorkload(
        ifr, "train-finite",
        "explicit and unrolled depth-4 heads: no solve runs, so a solver change must not "
        "move it",
        [("explicit-independent", 4), ("unrolled-shared", 4)])
    return {w.name: w for w in (budget, converged, finite, AnalyzeWorkload(ifr))}

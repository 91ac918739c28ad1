"""Run one benchmark workload of the ifr package and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree that holds src/ifr. The package is
imported from that tree, BLAS is pinned to one thread and IFR_THREADS is
left unset. Whole rounds of the workload's operations fill --seconds: another
round starts only while one more round as long as the last still fits, and
there is always at least one. Each rate is the work of all rounds over their
time at the host's nominal speed, and setup_s is scaled the same way
(hostspeed.py); the wall-clock rates go to standard error. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 one untraced round and one
traced round run, the spans are written under .perfbench_out/, and the
per-layer metrics are printed instead of the end-to-end ones.
"""

from __future__ import annotations

import os
import time

_T_START = time.perf_counter()

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("IFR_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3
IMPORT_PROBES = 5
OUT_DIR = Path(".perfbench_out")


def _import_program():
    """Imports ifr from ./src, never from anywhere else on the path."""
    src = Path.cwd() / "src"
    if not (src / "ifr" / "__init__.py").is_file():
        raise SystemExit(f"error: no ifr sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import ifr
    import ifr.checkpoint
    import ifr.cli
    import ifr.gradcheck

    if Path(ifr.__file__).resolve().parent != (src / "ifr").resolve():
        raise SystemExit(f"error: imported ifr from {ifr.__file__}, not from {src}")
    return ifr


def _setup(workload, seed: int, workdir: Path) -> tuple[float, float]:
    """Median seconds of SETUP_REPEATS set-ups, in wall time and at the nominal
    host speed; the last set-up stays in place."""
    times, host_times = [], []
    for _ in range(SETUP_REPEATS):
        _, dt, host_dt = workload.clock.call(workload.setup, seed, workdir)
        times.append(dt)
        host_times.append(host_dt)
    return statistics.median(times), statistics.median(host_times)


def _run_rounds(workload, seconds: float) -> list:
    """Whole rounds; another one starts only if a round as long as the last still fits."""
    rounds = []
    t0 = last = time.perf_counter()
    while True:
        rounds.append(workload.run_round())
        now = time.perf_counter()
        if now - t0 + (now - last) > seconds:
            return rounds
        last = now


def _result(rounds, check_failures: list[str], metrics: dict) -> dict:
    """The final JSON object; failed operations and failed checks go to stderr."""
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for cause in sorted({c for r in rounds for c in r.causes}):
        print(f"FAILED OPERATION ({failed} of {attempted} over {len(rounds)} rounds): {cause}",
              file=sys.stderr)
    failures = sorted({f for r in rounds for f in r.failures} | set(check_failures))
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _untraced(workload, args, import_s: float, workdir: Path) -> dict:
    import hostspeed

    # the imports ran before any probe could: scale them by probes taken now
    speed = statistics.fmean(hostspeed.probe() for _ in range(IMPORT_PROBES))
    import_host_s = import_s * hostspeed.NOMINAL_PROBE_S / speed
    setup_wall_s, setup_host_s = _setup(workload, args.seed, workdir)
    rounds = _run_rounds(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_failures = workload.check()

    def rate(items: str, seconds: str) -> float:
        return sum(getattr(r, items) for r in rounds) / sum(getattr(r, seconds) for r in rounds)

    metrics = {
        "setup_s": (import_host_s + setup_host_s, "s"),
        "fwd_bwd_per_s": (rate("fwd_bwd_items", "fwd_bwd_host_s"), "items/s"),
        "fwd_only_per_s": (rate("fwd_only_items", "fwd_only_host_s"), "items/s"),
        "quality": (statistics.median(r.quality for r in rounds), "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = {
        "setup_s": import_s + setup_wall_s,
        "fwd_bwd_per_s": rate("fwd_bwd_items", "fwd_bwd_s"),
        "fwd_only_per_s": rate("fwd_only_items", "fwd_only_s"),
    }
    print(f"{workload.name}: seed {args.seed}, {len(rounds)} rounds "
          f"(at nominal host speed; wall clock without the probes in brackets)",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        extra = f"  ({wall[name]:.4f})" if name in wall else ""
        print(f"  {name:16s} {value:12.4f} {unit}{extra}", file=sys.stderr)
    return _result(rounds, check_failures,
                   {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()})


def _traced(ifr, spans, workload, args, workdir: Path) -> dict:
    import hostspeed

    # no probes interrupt the traced calls; the per-layer metrics use wall time
    workload.clock = hostspeed.HostClock(probing=False)
    setup_tracer = spans.Tracer(ifr)
    setup_tracer.install()
    try:
        _setup(workload, args.seed, workdir)
    finally:
        setup_tracer.uninstall()
    span_cost_ns = spans.span_cost_ns()
    untraced = workload.run_round()
    round_tracer = spans.Tracer(ifr)
    round_tracer.install()
    try:
        traced = workload.run_round()
    finally:
        round_tracer.uninstall()
    check_failures = workload.check()
    metrics = spans.layer_metrics(
        setup_tracer.spans, round_tracer.spans,
        round_untraced_s=untraced.fwd_bwd_s + untraced.fwd_only_s,
        round_traced_s=traced.fwd_bwd_s + traced.fwd_only_s,
        train_untraced_s=untraced.train_s, span_cost_ns=span_cost_ns)
    self_sum, traced_train = metrics["trace.train_self_sum_s"], metrics["trace.train_traced_s"]
    if abs(self_sum - traced_train) > 1e-6 * traced_train + 1e-6:
        check_failures.append(f"training self times sum to {self_sum:.6f} s, not to the "
                              f"traced training time {traced_train:.6f} s")
    out = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.csv"
    round_tracer.write(out)
    for name, unit in spans.PER_LAYER:
        print(f"  {name:42s} {metrics[name]:14.4f} {unit}", file=sys.stderr)
    print(f"spans written to {out}", file=sys.stderr)
    return _result([untraced, traced], check_failures,
                   {name: {"value": metrics[name], "unit": unit} for name, unit in spans.PER_LAYER})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    ifr = _import_program()
    import spans
    import workloads

    import_s = time.perf_counter() - _T_START
    table = workloads.build(ifr)
    if args.workload not in table:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(table)}")
    workload = table[args.workload]
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = _traced(ifr, spans, workload, args, workdir)
        else:
            result = _untraced(workload, args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

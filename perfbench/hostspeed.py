"""The speed of a shared host, probed during every timed program call.

A shared host runs the same code at speeds up to 1.4x apart, in spells of
seconds to minutes, and CPU time slows with wall time. So while the
benchmark times a call into the program, it also times a fixed plain-numpy
kernel, a *probe*: once right before the call, every PROBE_EVERY_S seconds
during it (from a SIGALRM handler, which Python runs between two bytecodes
of the main thread), and once right after it. The probes' own time is taken
out of the call's seconds, and what remains is scaled to the host's nominal
speed:

    host_s = (seconds - probe time inside) * NOMINAL_PROBE_S / mean(probes)

The kernel iterates a reference block F (reference.py) with parameters of
its own, drawn once from a fixed seed. It uses nothing from ifr, so a change
to the program never changes it; a faster program shows in full.
"""

from __future__ import annotations

import signal
import statistics
import time
import types

import numpy as np

import reference

PROBE_APPLIES = 50
# seconds one probe takes at the host's nominal speed: the scale of every rate
NOMINAL_PROBE_S = 0.02
PROBE_EVERY_S = 0.5


def _kernel():
    """h -> F(h; x) of a fixed 8-channel reference block on 14 x 14 inputs."""
    rng = np.random.default_rng(20240)

    def conv(out_c, in_c, k):
        return types.SimpleNamespace(
            direction=rng.normal(size=(out_c, in_c, k, k)), gain=np.full(out_c, 0.5),
            bias=np.zeros(out_c), weight_norm_enabled=True)

    def gn(scale):
        return types.SimpleNamespace(num_groups=4, epsilon=1e-5,
                                     scale=np.full(8, scale), shift=np.zeros(8))

    block = types.SimpleNamespace(w1=conv(8, 8, 3), w2=conv(8, 8, 3), shortcut=conv(8, 8, 1),
                                  gn1=gn(1.0), gn2=gn(0.1), residual_enabled=True)
    return reference.block_map(block, rng.normal(size=(8, 14, 14)))


_APPLY = _kernel()


def probe() -> float:
    """Seconds of PROBE_APPLIES applications of the fixed kernel."""
    h = np.zeros((8, 14, 14))
    t0 = time.perf_counter()
    for _ in range(PROBE_APPLIES):
        h = 0.5 * _APPLY(h)
    return time.perf_counter() - t0


class HostClock:
    """Times program calls and probes the host's speed around and during them.

    With probing off (the traced run), a call is only timed.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing

    def call(self, fn, *args, **kwargs):
        """(fn's result, its seconds, its seconds at the nominal host speed)."""
        if not self.probing:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
            return out, seconds, seconds
        inside: list[float] = []
        before = probe()
        previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(probe()))
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            out = fn(*args, **kwargs)
        finally:
            # every probe that ran inside now lies between t0 and this line
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            seconds = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        seconds -= sum(inside)
        speed = statistics.fmean([before, *inside, probe()]) / NOMINAL_PROBE_S
        return out, seconds, seconds / speed

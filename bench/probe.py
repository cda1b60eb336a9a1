"""Host-speed probes, and job times scaled to a reference host speed.

On a shared host the speed of a core changes by up to about 1.8x within
seconds and drifts over minutes, with no steal time to show for it, so a raw
timing moves with the host as much as with the program.  `HostClock` cuts a
pass's job time into segments of about PROBE_EVERY_S, runs the fixed
`probe()` between them, and scales each segment by PROBE_REF_S over the
mean of the probe times just before and after it: a job reports the
seconds it would take at the speed at which a probe takes PROBE_REF_S.

The probe does what sinesolve's inner loops do at a small size: sine-basis
synthesis and projection by dense products, a pointwise cubic power and an
integral, now and then a cube over as many points as a 32^3 grid, plus
interpreted Python for the loop and bookkeeping.  It never imports
sinesolve, so no change to the program changes what it measures.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# the fastest probes on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31 on one thread) took this long; normalized times are
# seconds at that speed
PROBE_REF_S = 0.0042
# job time between probes, where checkpoints allow: the host's speed
# decorrelates within about 0.2 s
PROBE_EVERY_S = 0.06
_MODES, _POINTS, _STEPS = 24, 64, 240

_x = (np.arange(_POINTS) + 0.5) / _POINTS
_BASIS = np.sqrt(2.0) * np.sin(np.pi * np.outer(np.arange(1, _MODES + 1), _x))
_GRID = np.linspace(0.0, 1.0, 32**3)


def probe() -> float:
    """Wall seconds of one fixed unit of sine-basis work."""
    t0 = time.perf_counter()
    c = 1.0 / np.arange(1, _MODES + 1)
    history = []
    for step in range(_STEPS):
        u = c @ _BASIS  # synthesize
        g = _BASIS @ (u * u * u) / _POINTS  # project the cubic term
        energy = float(np.sum(u * u)) / _POINTS
        c = 0.9 * c + 0.1 * g / (1.0 + float(np.max(np.abs(g))))
        if step % 24 == 0:  # a pointwise cube on a 3-D grid's worth of points
            v = _GRID * energy
            energy += float(np.sum(v * v * v))
        history.append((step, energy))
        if len(history) > 8:
            history = history[-4:]
    return time.perf_counter() - t0


class HostClock:
    """Times jobs raw and at the reference speed, leaving out the probes.

    A job record gets `wall_s` and `cpu_s` (raw) and `norm_wall_s` and
    `norm_cpu_s` (scaled).  Between `start(record)` and `stop()` the job may
    call `checkpoint()` (through `hook`) as often as it likes; a probe runs
    only once PROBE_EVERY_S of job time has gone by since the last one.
    """

    def __init__(self):
        probe()  # warm-up
        self._before = probe()
        self._job: dict | None = None
        self._pending: list[tuple[dict, float, float]] = []  # segments since the last probe
        self._pending_s = 0.0
        self._mark()

    def _mark(self) -> None:
        self._t0, self._c0 = time.perf_counter(), time.process_time()

    def start(self, record: dict) -> None:
        record.update(wall_s=0.0, cpu_s=0.0, norm_wall_s=0.0, norm_cpu_s=0.0)
        self._job = record
        self._mark()

    def checkpoint(self, force: bool = False) -> None:
        wall, cpu = time.perf_counter() - self._t0, time.process_time() - self._c0
        job = self._job
        job["wall_s"] += wall
        job["cpu_s"] += cpu
        self._pending.append((job, wall, cpu))
        self._pending_s += wall
        if force or self._pending_s >= PROBE_EVERY_S:
            after = probe()
            scale = PROBE_REF_S / ((self._before + after) / 2)
            for rec, w, c in self._pending:
                rec["norm_wall_s"] += w * scale
                rec["norm_cpu_s"] += c * scale
            self._before, self._pending, self._pending_s = after, [], 0.0
        self._mark()

    def stop(self, force: bool = False) -> None:
        """End the job; `force` probes now, as the pass's last job must."""
        self.checkpoint(force)
        self._job = None

    def hook(self, name: str, fn):
        """`fn` with a checkpoint after every call (a `tracer.wrap_all` wrapper)."""

        @functools.wraps(fn)
        def checkpointed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.checkpoint()

        return checkpointed

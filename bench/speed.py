"""Host-speed reference for the timing metrics.

The benchmark is meant for a small shared host whose cores change speed with
the work of other machines, within a second and for minutes at a time: the
same request, repeated back to back, took 62-180 ms.  Medians over a run do
not remove a shift that lasts longer than the run, so unscaled runs of the
same code disagreed by more than any useful bound.

Every timed request is therefore paired with a fixed pure-Python kernel, run
just before it and again just after it.  The kernel does the kind of work
the program does (complex arithmetic, tuples and small function calls in the
interpreter), so a slower host slows both alike.  A request's scaled latency
is its wall time times ``REFERENCE_MS`` over the kernel's time next to it:
the time the request takes on a host where the kernel takes
``REFERENCE_MS``.  ``REFERENCE_MS`` is a fixed constant close to the
kernel's time on the 2-vCPU host the baseline was taken on (1.2-1.9 ms
there); only ratios between runs matter.  ``run.py`` prints the wall-time
figures and the kernel's median beside the scaled ones.

The kernel and ``REFERENCE_MS`` are part of the benchmark's definition:
changing either changes every scaled metric.
"""

from __future__ import annotations

import time

REFERENCE_MS = 1.8
REFERENCE_STEPS = 400


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _rhs(x: complex, u: complex, up: complex):
    return up, (2.0 / x - 1.0) * u


def reference_kernel(steps: int = REFERENCE_STEPS) -> float:
    """RK4 steps of u'' = (2/x - 1) u in complex arithmetic, with a
    compensated running sum of |u|."""
    u, up = 1.0 + 0.0j, 0.5j
    x, h = 1.0 + 0.5j, 0.01 + 0.001j
    hi, lo = 0.0, 0.0
    for _ in range(steps):
        k1 = _rhs(x, u, up)
        k2 = _rhs(x + h / 2, u + h / 2 * k1[0], up + h / 2 * k1[1])
        k3 = _rhs(x + h / 2, u + h / 2 * k2[0], up + h / 2 * k2[1])
        k4 = _rhs(x + h, u + h * k3[0], up + h * k3[1])
        u += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        up += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        x += h
        hi, err = _two_sum(hi, abs(u))
        lo += err
    return hi + lo


def reference_s() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scale_requests(latencies: list, refs: list) -> list:
    """Scaled latency of each request.  ``refs[i]`` was measured just before
    request i and ``refs[i + 1]`` just after it; the request takes their
    mean.  The host's speed moves within a second, so the nearest kernel
    times track it best: on a repeated single request, the median of the
    six nearest left 9.7% spread, of the twenty nearest 13%, unscaled 25%,
    and the two nearest 8.5%."""
    return [t * 2e-3 * REFERENCE_MS / (refs[i] + refs[i + 1])
            for i, t in enumerate(latencies)]

"""Correctness gate and accuracy metrics.

Every output point is checked for finiteness and for the Wronskian
F'G - FG' = 1.  On complex rays |F| ~ |G| ~ e^{|Im rho|}, so the identity is
checked relative to the size of its terms, as the acceptance suite does:
|F'G - FG' - 1| / (|F'G| + |FG'| + 1).  Where those terms are of order one
this is the plain |F'G - FG' - 1|.

On top of that each workload has one oracle, run on a seeded subsample
outside the timed region:

* exact workloads: F and G against ``mpmath.coulombf`` / ``coulombg``, with
  the error taken relative to max(|X|, |X'|) so that it stays meaningful at
  zeros of F and G, gated at ``EXACT_TOL`` (see ``workloads.py``);
* ``wkb_sweep``: the ``compare_quads`` errors of WKB against the exact
  backend, gated per grid on their median;
* ``contour_loop``: the closed-loop return mismatch of F, G, F', G'.

Each oracle yields per-point errors (deterministic per seed) and a count of
failed points.
"""

from __future__ import annotations

import math
import random
import statistics

import coulwkb.cli as cli
import coulwkb.exactref as exactref
from coulwkb.wkbcore import CoulombQuad
from workloads import EXACT_TOL

ORACLE_POINTS = 16          # mpmath points per exact run
WKB_GRIDS = 8               # grids of the pool compared against exact
WKB_POINTS = 15             # points per compared grid
WKB_MEDIAN_TOL = 0.15       # per-grid median error; the loosest figure gate
LOOP_TOL = 1e-8             # closed-loop return, acceptance criterion 10
DIGITS_CAP = 17.0           # errors below 1e-17 count as 17 digits

_FUNCS = ("f", "g", "fp", "gp")


def wronskian_error(q) -> float:
    """Scaled Wronskian error of a quad; inf for a failed or non-finite one."""
    if not (isinstance(q, CoulombQuad)
            and all(math.isfinite(abs(getattr(q, n))) for n in _FUNCS)):
        return math.inf
    a, b = q.fp * q.g, q.f * q.gp
    return abs(a - b - 1.0) / (abs(a) + abs(b) + 1.0)


def mean_digits(errors: list) -> float:
    """Mean of -log10(error) clipped to [0, 17]: the correct digits of the
    geometric-mean error.  Averaging logs keeps it steady from seed to seed
    while a loss of accuracy on any share of the points still lowers it."""
    return statistics.fmean(
        DIGITS_CAP if e == 0.0 else
        min(DIGITS_CAP, max(0.0, -math.log10(e))) if e > 0.0 else 0.0
        for e in errors)


def _mp_error(mp, ell, eta, rho, q: CoulombQuad) -> float:
    args = [mp.mpc(v.real, v.imag) for v in (complex(ell), complex(eta), rho)]
    mf = complex(mp.coulombf(*args))
    mg = complex(mp.coulombg(*args))
    return max(abs(q.f - mf) / max(abs(mf), abs(q.fp)),
               abs(q.g - mg) / max(abs(mg), abs(q.gp)))


def mpmath_errors(points: list, quads: list) -> list:
    """Error of each exact quad at its (l, eta, rho) point; inf if it failed."""
    import mpmath as mp
    mp.mp.dps = 30
    return [_mp_error(mp, ell, eta, rho, q) if wronskian_error(q) < math.inf
            else math.inf for (ell, eta, rho), q in zip(points, quads)]


def wkb_against_exact(wl, pool: list, outputs: list, rng: random.Random):
    """(per-point errors, failed count) of WKB against the exact backend."""
    errs, failed = [], 0
    for item, quads in list(zip(pool, outputs))[:WKB_GRIDS]:
        grid = wl.spec(item).grid()
        idx = sorted(rng.sample(range(len(grid)), WKB_POINTS))
        pts = [grid[i] for i in idx]
        exact = exactref.exact_quad_grid(item[0], item[1], pts)
        rows, _ = cli.compare_quads(pts, [quads[i] for i in idx], exact)
        grid_errs = [row[f"err_{n}"] for row in rows for n in _FUNCS
                     if not row[f"flag_{n}"]]
        if len(rows) < len(pts) or not grid_errs or \
                statistics.median(grid_errs) > WKB_MEDIAN_TOL:
            failed += len(pts)
        errs.extend(grid_errs)
    return errs or [math.inf], failed


def loop_mismatch(quads: list) -> float:
    q0, q1 = quads[0], quads[-1]
    if not (isinstance(q0, CoulombQuad) and isinstance(q1, CoulombQuad)):
        return math.inf
    return max(abs(getattr(q1, n) - getattr(q0, n)) / abs(getattr(q0, n))
               for n in _FUNCS)


def oracle(wl, pool: list, outputs: list, seed: int):
    """(metric name, metric value, per-point errors, failed points) of the
    workload's oracle; the value is the printed median or maximum."""
    rng = random.Random(f"{wl.name}:oracle:{seed}")
    if wl.name == "wkb_sweep":
        errs, failed = wkb_against_exact(wl, pool, outputs, rng)
        return "wkb_err_median", statistics.median(errs), errs, failed
    if wl.name == "contour_loop":
        errs = [loop_mismatch(quads) for quads in outputs]
        failed = sum(not e <= LOOP_TOL for e in errs)
        return "loop_mismatch_max", max(errs), errs, failed
    if wl.name == "exact_sweep":
        points, quads = [], []
        for j in range(ORACLE_POINTS):
            item = pool[j % len(pool)]
            i = rng.randrange(len(outputs[j % len(pool)]))
            points.append((item[0], item[1], wl.spec(item).grid()[i]))
            quads.append(outputs[j % len(pool)][i])
    else:
        picks = rng.sample(range(len(pool)), min(ORACLE_POINTS, len(pool)))
        points = [pool[j] for j in picks]
        quads = [outputs[j][0] for j in picks]
    errs = mpmath_errors(points, quads)
    failed = sum(not e <= EXACT_TOL for e in errs)
    return "exact_err_max", max(errs), errs, failed

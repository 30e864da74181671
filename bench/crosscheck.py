"""Time the three configurations of the ROADMAP baseline table.

    python3 bench/crosscheck.py

Prints the median of seven timings of each configuration next to the table's
single-run figure and flags a disagreement beyond the table's +-20%.
"""

import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from coulwkb import (ComplexParams, ContourPath, continue_quad,  # noqa: E402
                     exact_quad_grid, wkb_quad)
from coulwkb.cli import SweepSpec  # noqa: E402

REPEATS = 7
FIG1 = SweepSpec(ell=2, eta=10, rho_min=1, rho_max=60, rho_points=120)
LOOP = ContourPath(points=[15 + 1j, 40 + 1j, 40 + 14j, 15 + 14j, 15 + 1j])

CASES = (
    ("WKB fig1, 120 pts", 85.0,
     lambda: [wkb_quad(ComplexParams(2, 10, rho)) for rho in FIG1.grid()]),
    ("exact_quad_grid fig1", 231.0, lambda: exact_quad_grid(2, 10, FIG1.grid())),
    ("contour closed loop", 195.0, lambda: continue_quad(2, 10, LOOP)),
)


def main() -> int:
    for label, table_ms, fn in CASES:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(1e3 * (time.perf_counter() - t0))
        ms = statistics.median(times)
        verdict = "agrees" if abs(ms / table_ms - 1.0) <= 0.2 else "DISAGREES"
        print(f"{label:<24} {ms:8.1f} ms  table {table_ms:6.1f} ms  "
              f"ratio {ms / table_ms:5.2f}  {verdict} (+-20%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

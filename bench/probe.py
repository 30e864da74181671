"""Set-up probe: a fresh interpreter imports coulwkb and coulwkb.cli, then
serves the first request of a workload's pool.

    python3 bench/probe.py WORKLOAD SEED OUT_DIR

``run.py`` times this whole process from the outside to get ``setup_s``.
A numerical failure of the request is the program's answer, not a probe
error, so it exits 0 either way.
"""

import pathlib
import sys

import coulwkb  # noqa: F401
import coulwkb.cli  # noqa: F401
from coulwkb.errors import CoulwkbError

from workloads import WORKLOADS


def main(argv) -> int:
    wl = WORKLOADS[argv[1]]
    wl.out_path = pathlib.Path(argv[3]) / f"probe-{wl.name}.csv"
    try:
        wl.call(wl.pool(int(argv[2]))[0])
    except CoulwkbError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

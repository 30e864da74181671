"""coulwkb benchmark: one closed-loop client timing the library's entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout holding ``src/coulwkb``.  A single thread sends its next
request when the previous one returns (closed loop, one client); there are no
queues or locks, so no layer has a wait time.  The seed fixes a pool of
inputs (see ``workloads.py``); the loop cycles through it until the requests
have taken ``--seconds`` and the pool has been served at least once.  Every
output point is checked (``checks.py``); a point fails on an exception, a nan
row or a failed check.  Request latencies are scaled to a reference speed
of the host by a kernel timed before and after each request (``speed.py``);
``setup_s`` is wall time.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass over the same requests as an untraced pass
(``tracing.py``).  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every point passed, 1 when any failed,
and 2 when the program cannot be found.

The JSON metrics are the ones a later change may be held to, so each is
never zero and steady from seed to seed.  ``fail_frac`` is normally 0, so
the JSON carries ``ok_frac`` = 1 - ``fail_frac``.  The worst-case errors
(``wronskian_err_max``, ``exact_err_max``, ``loop_mismatch_max``) and
``wkb_err_median`` are printed above the JSON line; the JSON carries
``wronskian_digits`` and ``accuracy_digits``, the mean correct digits
(-log10 of the error) over the first pass's points and over the oracle's
points, which averages out which hard inputs a seed happens to draw.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:            # pin BLAS/OpenMP before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from speed import REFERENCE_MS, reference_s, scale_requests  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def import_program():
    """Import coulwkb from ./src of this checkout, or exit 2."""
    if not (SRC / "coulwkb" / "__init__.py").is_file():
        sys.stderr.write(f"error: no coulwkb sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import coulwkb
    if pathlib.Path(coulwkb.__file__).resolve().parent != SRC / "coulwkb":
        sys.stderr.write(f"error: imported coulwkb from {coulwkb.__file__}\n")
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

class LoopResult:
    """Latencies and point accounting of one pass of the closed loop."""

    def __init__(self, pool_size: int):
        self.latencies: list = []
        self.refs: list = []      # reference-kernel times around the requests
        self.pool_size = pool_size
        self.item_points: list = [0] * pool_size  # successful points per item
        self.attempted = 0
        self.failed = 0
        self.first: list = [None] * pool_size     # outputs of each pool item
        self.errors: list = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def scaled(self) -> list:
        """Request latencies scaled to the reference speed (``speed.py``)."""
        return scale_requests(self.latencies, self.refs)

    def points_per_s(self, latencies: list) -> float:
        """Successful points of one pool pass over the pass time at each
        item's median latency; the medians keep a burst of load on the
        machine during one request out of the figure."""
        per_item = [latencies[i::self.pool_size] for i in range(self.pool_size)]
        pass_s = sum(statistics.median(lat) for lat in per_item)
        return sum(self.item_points) / pass_s


def closed_loop(wl, pool: list, seconds: float, tracer=None,
                n_requests: int | None = None) -> LoopResult:
    """Serve pool items back to back.

    Stops once the requests have taken ``seconds`` and every pool item has
    been served, or after exactly ``n_requests`` when that is given.  Only
    the call is timed; collecting and checking its output is not.  The
    reference kernel runs before each request and after the last one.
    """
    from checks import wronskian_error

    res = LoopResult(len(pool))
    i = 0
    while (i < n_requests if n_requests is not None
           else i < len(pool) or res.busy_s < seconds):
        item = pool[i % len(pool)]
        if tracer is not None:
            tracer.request = i
        res.refs.append(reference_s())
        t0 = time.perf_counter()
        try:
            raw, err = wl.call(item), None
        except Exception as exc:           # a failure of the program, counted
            raw, err = None, exc
        res.latencies.append(time.perf_counter() - t0)
        if err is None:
            quads = wl.collect(item, raw)
        else:
            quads = [None] * wl.expected_points
            if len(res.errors) < 3:
                res.errors.append(f"{type(err).__name__}: {err}")
        ok = sum(wronskian_error(q) <= wl.wronskian_tol for q in quads)
        res.attempted += len(quads)
        res.failed += len(quads) - ok
        if res.first[i % len(pool)] is None:
            res.first[i % len(pool)] = quads
            res.item_points[i % len(pool)] = ok
        i += 1
    res.refs.append(reference_s())
    return res


def setup_seconds(wl, seed: int, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing coulwkb and
    coulwkb.cli and serving the first request; one unmeasured run first
    fills the bytecode cache."""
    cmd = [sys.executable, str(BENCH / "probe.py"), wl.name, str(seed), str(OUT)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for k in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(latencies: list):
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(summary: dict, traced: LoopResult, untraced: LoopResult) -> dict:
    """Per-layer metrics from the traced pass; counts are per request."""
    n = len(traced.latencies)
    busy = traced.busy_s
    zero = {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0, "size": 0.0}

    def s(name):
        return summary.get(name, zero)

    def per_req(name):
        return s(name)["calls"] / n

    def per_call(name, key="total_s", scale=1e6):
        c = s(name)["calls"]
        return scale * s(name)[key] / c if c else 0.0

    def ok_frac(name):
        c = s(name)["calls"]
        return s(name)["ok"] / c if c else 0.0

    ode = s("exactref.ode_propagate")
    contour_self = sum(v["self_s"] for k, v in summary.items()
                       if k.startswith("contour."))
    steps = s("contour.step")["calls"]
    walked = traced.attempted - n if s("contour.continue_quad")["calls"] else 0
    return {
        "airy.series.calls": (per_req("airy.series"), "calls/req"),
        "airy.series.us_per_call": (per_call("airy.series"), "us"),
        "airy.series.share": (s("airy.series")["self_s"] / busy, "fraction"),
        "airy.asymptotic.calls": (per_req("airy.asymptotic"), "calls/req"),
        "airy.asymptotic.us_per_call": (per_call("airy.asymptotic"), "us"),
        "wkbcore.phi_jet.calls": (per_req("wkbcore.phi_jet"), "calls/req"),
        "wkbcore.phi_jet.us_per_call": (per_call("wkbcore.phi_jet"), "us"),
        "wkbcore.assemble.us_per_call": (per_call("wkbcore.assemble", "self_s"), "us"),
        "wkbcore.wkb_quad.calls": (per_req("wkbcore.wkb_quad"), "calls/req"),
        "exactref.ode_propagate.calls": (per_req("exactref.ode_propagate"), "calls/req"),
        "exactref.ode_propagate.ms_per_call":
            (per_call("exactref.ode_propagate", scale=1e3), "ms"),
        "exactref.ode_propagate.ms_per_unit_length":
            (1e3 * ode["total_s"] / ode["size"] if ode["size"] else 0.0, "ms"),
        "exactref.ode_propagate.share": (ode["self_s"] / busy, "fraction"),
        "exactref.f_series.calls": (per_req("exactref.f_series"), "calls/req"),
        "exactref.f_series.ok_frac": (ok_frac("exactref.f_series"), "fraction"),
        "exactref.h_asymptotic.calls": (per_req("exactref.h_asymptotic"), "calls/req"),
        "exactref.h_asymptotic.ok_frac": (ok_frac("exactref.h_asymptotic"), "fraction"),
        "exactref.exact_quad.calls": (per_req("exactref.exact_quad"), "calls/req"),
        "complexops.log_gamma.calls": (per_req("complexops.log_gamma"), "calls/req"),
        "complexops.log_gamma.us_per_call": (per_call("complexops.log_gamma"), "us"),
        "contour.step.calls": (per_req("contour.step"), "calls/req"),
        "contour.step.per_point": (steps / walked if walked else 0.0, "ratio"),
        "contour.match_sheets.calls": (per_req("contour.match_sheets"), "calls/req"),
        "contour.self_ms": (1e3 * contour_self / n, "ms"),
        "cli.sweep.self_ms": (1e3 * s("cli.sweep")["self_s"] / n, "ms"),
        "trace.overhead_s": (busy - untraced.busy_s, "s"),
        "trace.overhead_frac": ((busy - untraced.busy_s) / untraced.busy_s, "fraction"),
    }


def environment() -> list:
    import mpmath
    import numpy
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return [f"python {platform.python_version()}  numpy {numpy.__version__}  "
            f"mpmath {mpmath.__version__}  nproc {os.cpu_count()}  "
            f"affinity {len(os.sched_getaffinity(0))}",
            f"threads: {threads}"]


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  pool_limit: int | None = None,
                  setup_repeats: int = SETUP_REPEATS):
    """(human-readable lines, result dict) for one run."""
    import checks
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    wl.out_path = OUT / f"{name}.csv"
    pool = wl.pool(seed)[:pool_limit]
    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
             f"pool {len(pool)}",
             "loop: closed, 1 client, 1 thread; no queues or locks, so no "
             "layer has a wait time"]
    metrics = {}
    if trace:
        main = closed_loop(wl, pool, seconds / 2)
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(wl, pool, 0.0, tracer, len(main.latencies))
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"trace-{name}.jsonl")
        summary = tracer.summarize()
        metrics = layer_metrics(summary, traced, main)
        loops = (main, traced)
        lines.append(f"traced {len(traced.latencies)} requests, "
                     f"{len(tracer.spans)} spans -> {OUT / f'trace-{name}.jsonl'}")
        ranked = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
        for span, v in ranked[:6]:
            lines.append(f"  self {100 * v['self_s'] / traced.busy_s:5.1f}%  "
                         f"{span}  ({v['calls']} calls)")
    else:
        setup = setup_seconds(wl, seed, setup_repeats)
        wl.call(pool[0])                      # warm-up, untimed
        main = closed_loop(wl, pool, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loops = (main,)
    oracle_name, oracle_value, oracle_errs, oracle_failed = checks.oracle(
        wl, pool, main.first, seed)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops) + oracle_failed
    # outputs are deterministic, so the first pass holds every distinct one
    w_errs = [checks.wronskian_error(q) for quads in main.first for q in quads]
    if not trace:
        lat = main.scaled()
        tail_v, tail_p = tail(lat)
        wall_tail, _ = tail(main.latencies)
        n = len(lat)
        metrics = {
            "points_per_s": (main.points_per_s(lat), "points/s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_tail_ms": (1e3 * tail_v, "ms"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_frac": (1.0 - failed / attempted, "fraction"),
            "wronskian_digits": (checks.mean_digits(w_errs), "digits"),
            "accuracy_digits": (checks.mean_digits(oracle_errs), "digits"),
        }
        lines += [
            f"times at the reference speed ({REFERENCE_MS:g} ms kernel; measured "
            f"median {1e3 * statistics.median(main.refs):.4g} ms), wall time in brackets",
            f"points_per_s       {metrics['points_per_s'][0]:.6g} points/s  "
            f"({main.points_per_s(main.latencies):.6g})",
            f"latency_p50_ms     {metrics['latency_p50_ms'][0]:.6g} ms  "
            f"({1e3 * statistics.median(main.latencies):.6g}; {n} requests)",
            f"latency_tail_ms    {1e3 * tail_v:.6g} ms  ({1e3 * wall_tail:.6g}; "
            f"p{tail_p:.1f}, {n} requests, {min(TAIL_BEYOND, n - 1)} beyond)",
            f"setup_s            {setup:.6g} s  (wall time, not scaled; median of "
            f"{setup_repeats})",
            f"fail_frac          {failed / attempted:.6g}  ({failed} of {attempted} points)",
            f"peak_rss_mb        {rss_mb:.6g} MB",
        ]
    lines += [f"wronskian_err_max  {max(w_errs):.3e}  (scaled, gate {wl.wronskian_tol:g})",
              f"{oracle_name:<18} {oracle_value:.3e}"]
    lines += [f"error: {e}" for lp in loops for e in lp.errors]
    lines += environment()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return lines, result


def main(argv=None) -> int:
    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lines, result = run_benchmark(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: grid sweeps, backend comparison, self checks.

Subcommands:

* ``sweep``     -- evaluate F, F', G, G' on a radial grid with the WKB
  backend, the exact backend, or both, and write one CSV row per point per
  backend (all rows of one backend form a contiguous block in grid order).
* ``compare``   -- run both backends on the same grid and report per-point
  relative errors with median / 90th-percentile / within-tolerance summaries
  for each of F, G, F', G'.
* ``selfcheck`` -- run the built-in invariant suite and report pass/fail.

CSV output is deterministic: 17 significant digits, fixed column order,
no locale dependence.  Failed grid points become rows with ``nan`` fields
rather than aborting the file.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 selfcheck
failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import airy as _airy
from . import exactref as _exactref
from .contour import ContourPath, continue_quad
from .errors import CoulwkbError
from .wkbcore import ComplexParams, CoulombQuad, phi_jet, wkb_quad

_NAN = float("nan")

CSV_HEADER = ("rho_re,rho_im,f_re,f_im,fp_re,fp_im,g_re,g_im,gp_re,gp_im,"
              "backend,wronskian_error")
COMPARE_HEADER = ("rho_re,rho_im,err_f,err_g,err_fp,err_gp,"
                  "flag_f,flag_g,flag_fp,flag_gp")

# relative-error denominators are clamped at this fraction of the largest
# |exact| value on the grid; smaller exact values are flagged as too close
# to a zero for a meaningful relative error
REL_FLOOR_FRACTION = 1e-12


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification: |rho| uniform on [rho_min, rho_max] along one ray."""

    ell: complex
    eta: complex
    rho_min: float
    rho_max: float
    rho_points: int
    rho_arg: float = 0.0
    backend: str = "both"
    out: str = "-"

    def __post_init__(self):
        for name, value in (("ell", self.ell), ("eta", self.eta),
                            ("rho-min", self.rho_min), ("rho-max", self.rho_max)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.rho_min > 0.0:
            raise ValueError("rho-min must be > 0")
        if self.rho_max < self.rho_min:
            raise ValueError("rho-max must be >= rho-min")
        if self.rho_points < 2:
            raise ValueError("rho-points must be >= 2")
        if not (-math.pi < self.rho_arg < math.pi):
            raise ValueError("rho-arg must lie in (-pi, pi)")
        if self.backend not in ("wkb", "exact", "both"):
            raise ValueError(f"unknown backend {self.backend!r}")

    def grid(self) -> list:
        ray = cmath.exp(1j * self.rho_arg)
        n = self.rho_points
        step = (self.rho_max - self.rho_min) / (n - 1)
        return [(self.rho_min + k * step) * ray for k in range(n)]

    def backends(self) -> tuple:
        return ("wkb", "exact") if self.backend == "both" else (self.backend,)


@dataclass(frozen=True)
class EvaluationRecord:
    """One CSV row: point, quad components, backend tag, Wronskian error."""

    rho_re: float
    rho_im: float
    f_re: float
    f_im: float
    fp_re: float
    fp_im: float
    g_re: float
    g_im: float
    gp_re: float
    gp_im: float
    backend: str
    wronskian_error: float

    @classmethod
    def from_quad(cls, rho: complex, quad: CoulombQuad, backend: str):
        return cls(rho.real, rho.imag,
                   quad.f.real, quad.f.imag, quad.fp.real, quad.fp.imag,
                   quad.g.real, quad.g.imag, quad.gp.real, quad.gp.imag,
                   backend, quad.wronskian_error())

    @classmethod
    def failure(cls, rho: complex, backend: str):
        return cls(rho.real, rho.imag, _NAN, _NAN, _NAN, _NAN,
                   _NAN, _NAN, _NAN, _NAN, backend, _NAN)

    def csv_row(self) -> str:
        nums = (self.rho_re, self.rho_im, self.f_re, self.f_im,
                self.fp_re, self.fp_im, self.g_re, self.g_im,
                self.gp_re, self.gp_im)
        return ",".join(f"{v:.17g}" for v in nums) + \
            f",{self.backend},{self.wronskian_error:.17g}"


def _evaluate_backend(spec: SweepSpec, backend: str) -> list:
    """Quad-or-error per grid point for one backend."""
    grid = spec.grid()
    if backend == "exact":
        return _exactref.exact_quad_grid(spec.ell, spec.eta, grid)
    out = []
    for rho in grid:
        try:
            out.append(wkb_quad(ComplexParams(spec.ell, spec.eta, rho)))
        except CoulwkbError as exc:
            out.append(exc)
    return out


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def cmd_sweep(spec: SweepSpec) -> int:
    """Write the sweep CSV; returns the number of failed rows."""
    grid = spec.grid()
    lines = [CSV_HEADER]
    failures = 0
    total = 0
    for backend in spec.backends():
        results = _evaluate_backend(spec, backend)
        for rho, res in zip(grid, results):
            total += 1
            if isinstance(res, CoulombQuad):
                lines.append(EvaluationRecord.from_quad(rho, res, backend).csv_row())
            else:
                failures += 1
                lines.append(EvaluationRecord.failure(rho, backend).csv_row())
    if failures == total:
        raise CoulwkbError("sweep failed at every grid point")
    _write_text(spec.out, "\n".join(lines) + "\n")
    return failures


_FUNCS = ("f", "g", "fp", "gp")


def compare_quads(grid: list, wkb_list: list, exact_list: list):
    """Per-point relative errors of one quad list against another.

    Returns (rows, summary): ``rows`` holds one dict per comparable point
    with errors and near-zero flags per function; ``summary`` maps each of
    f, g, fp, gp to median / p90 / within-tolerance fractions over the
    unflagged points.  Points where either backend failed are skipped and
    counted.
    """
    comps = {name: [] for name in _FUNCS}
    rows = []
    skipped = 0
    for rho, qw, qe in zip(grid, wkb_list, exact_list):
        if not (isinstance(qw, CoulombQuad) and isinstance(qe, CoulombQuad)):
            skipped += 1
            continue
        rows.append({"rho": rho, "qw": qw, "qe": qe})
        for name in _FUNCS:
            comps[name].append(abs(getattr(qe, name)))
    summary = {"points": len(rows), "skipped": skipped}
    for name in _FUNCS:
        mags = comps[name]
        floor = REL_FLOOR_FRACTION * max(mags) if mags else 0.0
        errs = []
        flagged = 0
        for row in rows:
            ew = getattr(row["qw"], name)
            ee = getattr(row["qe"], name)
            flag = abs(ee) < floor
            err = abs(ew - ee) / max(abs(ee), floor) if floor > 0.0 else 0.0
            row[f"err_{name}"] = err
            row[f"flag_{name}"] = flag
            if flag:
                flagged += 1
            else:
                errs.append(err)
        arr = np.asarray(errs if errs else [0.0])
        summary[name] = {
            "median": float(np.median(arr)),
            "p90": float(np.percentile(arr, 90.0)),
            "within_1pct": float(np.mean(arr <= 0.01)),
            "within_2pct": float(np.mean(arr <= 0.02)),
            "within_5pct": float(np.mean(arr <= 0.05)),
            "flagged": flagged,
        }
    return rows, summary


def format_compare_summary(summary: dict) -> str:
    lines = [f"points compared: {summary['points']}"
             + (f" (skipped {summary['skipped']})" if summary["skipped"] else "")]
    for name in _FUNCS:
        s = summary[name]
        lines.append(
            f"{name:>2}: median {s['median']:.3e}  p90 {s['p90']:.3e}  "
            f"within 1/2/5%: {s['within_1pct']:.2f}/{s['within_2pct']:.2f}/"
            f"{s['within_5pct']:.2f}  flagged {s['flagged']}")
    return "\n".join(lines) + "\n"


def cmd_compare(spec: SweepSpec):
    """Compare the WKB backend against the exact backend on the grid.

    Writes the per-point error CSV to ``spec.out`` and prints the summary;
    returns the summary dict.
    """
    grid = spec.grid()
    wkb_list = _evaluate_backend(spec, "wkb")
    exact_list = _evaluate_backend(spec, "exact")
    n_exact_ok = sum(isinstance(q, CoulombQuad) for q in exact_list)
    if n_exact_ok < len(grid) / 2:
        raise CoulwkbError(
            f"exact backend covers only {n_exact_ok}/{len(grid)} grid points; "
            f"no usable oracle")
    rows, summary = compare_quads(grid, wkb_list, exact_list)
    lines = [COMPARE_HEADER]
    for row in rows:
        nums = [row["rho"].real, row["rho"].imag] + \
               [row[f"err_{n}"] for n in _FUNCS]
        flags = [str(int(row[f"flag_{n}"])) for n in _FUNCS]
        lines.append(",".join(f"{v:.17g}" for v in nums) + "," + ",".join(flags))
    _write_text(spec.out, "\n".join(lines) + "\n")
    sys.stdout.write(format_compare_summary(summary))
    return summary


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def _rng(seed: int) -> np.random.RandomState:
    return np.random.RandomState(seed)


def _check_airy_wronskian():
    rng = _rng(7118)
    worst = 0.0
    kept = 0
    while kept < 60:
        z = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
        if abs(z) > 15 or abs(z) < 0.05:
            continue
        q = _airy.airy_quad(z)
        if (abs(q.ai * q.bip) + abs(q.aip * q.bi)) * math.pi > 1e4:
            continue          # identity not representable in doubles there
        kept += 1
        worst = max(worst, abs(q.ai * q.bip - q.aip * q.bi - 1.0 / math.pi))
    return worst <= 1e-11, f"max |Ai Bi' - Ai' Bi - 1/pi| = {worst:.2e}"


def _check_airy_seam():
    worst = 0.0
    for deg in range(0, 360, 15):
        z = _airy.SWITCH_RADIUS * cmath.exp(1j * math.radians(deg))
        qs = _airy.series_quad(z)
        qa = _airy.asymptotic_quad(z)
        for name in ("ai", "aip", "bi", "bip"):
            a, b = getattr(qs, name), getattr(qa, name)
            worst = max(worst, abs(a - b) / abs(b))
    return worst <= 1e-9, f"series/asymptotic seam disagreement = {worst:.2e}"


def _check_wkb_wronskian():
    rng = _rng(4059)
    worst = 0.0
    for _ in range(40):
        rho = rng.uniform(1.0, 60.0)
        q = wkb_quad(ComplexParams(2.0, 10.0, rho))
        worst = max(worst, q.wronskian_error())
    for _ in range(40):
        rho = rng.uniform(2.0, 8.0) * cmath.exp(0.25j * math.pi)
        q = wkb_quad(ComplexParams(complex(2, 1), complex(10, 1), rho))
        worst = max(worst, q.wronskian_error())
    return worst <= 1e-10, f"max |F'G - FG' - 1| = {worst:.2e}"


def _check_free_field():
    worst = 0.0
    for rho in np.linspace(0.1, 50.0, 25):
        q = _exactref.exact_quad(ComplexParams(0.0, 0.0, rho))
        worst = max(worst,
                    abs(q.f - math.sin(rho)), abs(q.fp - math.cos(rho)),
                    abs(q.g - math.cos(rho)), abs(q.gp + math.sin(rho)))
    return worst <= 1e-10, f"max |exact - sin/cos| = {worst:.2e}"


def _check_phase_map():
    worst = 0.0
    for a in (0.0, 0.05, 0.3):
        for x in np.concatenate([np.linspace(-0.95, -0.01, 40),
                                 np.linspace(0.01, 20.0, 60)]):
            jet = phi_jet(complex(x), complex(a))
            r = x / (x + 1.0) + a * x / (x + 1.0) ** 2
            worst = max(worst, abs(jet.dphi ** 2 * jet.phi - r) / abs(r))
    return worst <= 1e-9, f"max phase-map equation residual = {worst:.2e}"


def _check_a0_reduction():
    worst = 0.0
    for x in np.concatenate([np.linspace(-0.9, -0.01, 25),
                             np.linspace(0.01, 10.0, 25)]):
        j0 = phi_jet(complex(x), 0.0)
        j1 = phi_jet(complex(x), 1e-8)
        worst = max(worst, abs(j0.phi - j1.phi) / abs(j0.phi))
    return worst <= 1e-6, f"max |phi(a=0) - phi(a->0)| rel = {worst:.2e}"


def _check_region_seam():
    from .wkbcore import (_phi_jet_left, _phi_jet_right, _phi_jet_series,
                          series_threshold)
    worst = 0.0
    for a in (0.0, 0.05, 0.3):
        t = series_threshold(complex(a))
        for x, closed in ((complex(t), _phi_jet_right),
                          (complex(-t), _phi_jet_left)):
            js = _phi_jet_series(x, complex(a))
            jc = closed(x, complex(a), 0, 0, 0, 0)[0]
            worst = max(worst, abs(js.phi - jc.phi) / abs(jc.phi),
                        abs(js.dphi - jc.dphi) / abs(jc.dphi))
    return worst <= 1e-7, f"series/closed-form seam disagreement = {worst:.2e}"


def _check_dual_route():
    worst = 0.0
    # regular solution, real set: series against Im of the inward H chain
    for rho in (25.0, 32.0):
        f1, _, _ = _exactref.f_series(ComplexParams(2.0, 10.0, rho))
        h, _ = _exactref._h_inward(2.0, 10.0, complex(rho), 1)
        worst = max(worst, abs(f1 - h.imag) / abs(f1))
    # regular solution, complex set: series against outward propagation of
    # series values anchored lower on the ray
    ray = cmath.exp(0.25j * math.pi)
    ell, eta = complex(2, 1), complex(10, 1)
    f1, _, _ = _exactref.f_series(ComplexParams(ell, eta, 20.0 * ray))
    fa, fpa, _ = _exactref.f_series(ComplexParams(ell, eta, 12.0 * ray))
    prop = _exactref.ode_propagate(ell, eta, 12.0 * ray,
                                   CoulombQuad(fa, fpa, 0.0, 0.0), 20.0 * ray)
    worst = max(worst, abs(f1 - prop.f) / abs(f1))
    # outgoing/incoming solutions: direct asymptotics against the inward
    # chain from a higher anchor, in the region where both are valid
    for ell, eta, rho in [(2.0, 10.0, 55.0), (complex(2, 1), complex(10, 1),
                                              55.0 * ray)]:
        rho = complex(rho)
        om = _exactref._omega_star(rho)
        h1, _, _ = _exactref.h_asymptotic(ComplexParams(ell, eta, rho, om))
        anchor = rho * 70.0 / abs(rho)
        h0, hp0, _ = _exactref.h_asymptotic(ComplexParams(ell, eta, anchor, om))
        prop = _exactref.ode_propagate(ell, eta, anchor,
                                       CoulombQuad(h0, hp0, 0.0, 0.0), rho)
        worst = max(worst, abs(h1 - prop.f) / abs(h1))
    return worst <= 1e-7, f"worst dual-route disagreement = {worst:.2e}"


def _check_contour_loop():
    loop = ContourPath(points=[complex(15, 1), complex(40, 1),
                               complex(40, 14), complex(15, 14),
                               complex(15, 1)])
    quads = continue_quad(2.0, 10.0, loop)
    q0, q1 = quads[0], quads[-1]
    worst = max(abs(q1.f - q0.f) / abs(q0.f), abs(q1.g - q0.g) / abs(q0.g))
    return worst <= 1e-8, f"closed-contour return mismatch = {worst:.2e}"


_CHECKS = (
    ("airy_wronskian", _check_airy_wronskian),
    ("airy_seam", _check_airy_seam),
    ("coulomb_wronskian", _check_wkb_wronskian),
    ("free_field_reduction", _check_free_field),
    ("phase_map_equation", _check_phase_map),
    ("a0_reduction", _check_a0_reduction),
    ("region_seam", _check_region_seam),
    ("exact_dual_route", _check_dual_route),
    ("contour_closed_loop", _check_contour_loop),
)


def cmd_selfcheck(stream=None) -> bool:
    """Run every built-in invariant check; returns overall pass/fail."""
    stream = stream if stream is not None else sys.stdout
    all_ok = True
    for name, fn in _CHECKS:
        try:
            ok, detail = fn()
            ok = bool(ok)
        except Exception as exc:             # a crash is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        stream.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
    stream.write(("selfcheck OK\n" if all_ok else "selfcheck FAILED\n"))
    return all_ok


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell-re", type=float, default=0.0)
    p.add_argument("--ell-im", type=float, default=0.0)
    p.add_argument("--eta-re", type=float, default=0.0)
    p.add_argument("--eta-im", type=float, default=0.0)
    p.add_argument("--rho-min", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--rho-points", type=int, required=True)
    p.add_argument("--rho-arg", type=float, default=0.0,
                   help="ray angle in radians, in (-pi, pi)")
    p.add_argument("--backend", choices=("wkb", "exact", "both"),
                   default="both")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")


def _spec_from_args(args) -> SweepSpec:
    return SweepSpec(ell=complex(args.ell_re, args.ell_im),
                     eta=complex(args.eta_re, args.eta_im),
                     rho_min=args.rho_min, rho_max=args.rho_max,
                     rho_points=args.rho_points, rho_arg=args.rho_arg,
                     backend=args.backend, out=args.out)


def main(argv=None) -> int:
    parser = _Parser(prog="coulwkb",
                     description="Coulomb wave functions: uniform WKB and "
                                 "exact backends")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_grid_args(sub.add_parser("sweep", help="evaluate on a radial grid"))
    _add_grid_args(sub.add_parser("compare", help="WKB vs exact error report"))
    sub.add_parser("selfcheck", help="run the invariant suite")

    args = parser.parse_args(argv)
    try:
        if args.command == "selfcheck":
            return 0 if cmd_selfcheck() else 3
        try:
            spec = _spec_from_args(args)
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        try:
            if args.command == "sweep":
                cmd_sweep(spec)
            else:
                cmd_compare(spec)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write output: {exc}\n")
            return 1
        return 0
    except CoulwkbError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Exact Coulomb-function backend: series, asymptotics and ODE integration.

This module is the oracle the WKB evaluation is validated against, built
from three independent routes:

* ``f_series``      -- the regular solution from its power series.  The
  Kummer exponential is folded into the series, giving coefficients with
  the three-term recurrence (k+1)(k+2l+2) A_{k+1} = 2 eta A_k - A_{k-1}
  (A&S 14.1 style).  The folded form is far better conditioned than the
  raw 1F1 sum and is manifestly independent of the omega sign.
* ``h_asymptotic``  -- H(+/-) from the large-rho expansion
  e^{+/- i theta} 2F0(-l + i w eta, 1 + l + i w eta;; -i/(2 w rho)),
  truncated at its smallest term.
* ``ode_propagate`` -- direct integration of u'' = (l(l+1)/rho^2 +
  2 eta/rho - 1) u along straight complex paths by high-order Taylor
  steps, whose coefficients follow a five-term recurrence.

One route planner combines them point by point.  F comes from the series
(guard-checked; it has no cancellation at and below the turning point) or
from H(+/-) at the point, whichever is the more accurate, else by outward
propagation of series values.  G comes from H(+/-) at the point where that
expansion converges; otherwise the inward-GROWING member H^w (w = sign Im
rho) is carried in by the ODE as a chain (rho, H^w, H^w') and G is rebuilt
as H^w - i w F, which keeps the integration self-correcting both through
the barrier and along complex rays.  ``exact_quad`` is the planner at one
point with no chain; ``exact_quad_grid`` runs it over a grid, handing the
chain from point to point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .complexops import log_gamma
from .errors import (
    AsymptoticFailureError,
    ConvergenceError,
    CoulwkbError,
    NoStrategyError,
    OverflowSignal,
    PathError,
    SeriesCancellationError,
)
from .wkbcore import ComplexParams, CoulombQuad

_LOG2 = math.log(2.0)

SERIES_RADIUS = 50.0        # beyond this the power series is not attempted
SERIES_MAX_TERMS = 10000
SERIES_TOL = 1e-15
CANCELLATION_LIMIT = 1e8    # max term magnitude over result magnitude
ASYM_TOL = 1e-10
ANCHOR_TOL = 1e-11          # H^w ratio that may start an inward chain


@dataclass(frozen=True)
class NormalizationConstants:
    """Gamow factor C_l(eta) and Coulomb phase shift sigma_l(eta)."""

    c_l: complex
    sigma_l: complex


@dataclass(frozen=True)
class SeriesDiagnostics:
    terms_used: int
    last_term_ratio: float
    converged: bool


def _norm_logs(ell: complex, eta: complex):
    """(log C_l, sigma_l); everything stays in log space to dodge overflow."""
    lgp = log_gamma(1.0 + ell + 1j * eta)
    lgm = log_gamma(1.0 + ell - 1j * eta)
    lg2 = log_gamma(2.0 * ell + 2.0)
    sigma = (lgp - lgm) / 2j
    log_c = ell * _LOG2 - 0.5 * math.pi * eta - lg2 + 0.5 * (lgp + lgm)
    return log_c, sigma


def norm_constants(ell: complex, eta: complex) -> NormalizationConstants:
    """C_l(eta) and sigma_l(eta) evaluated through log-gamma.

    For real l >= 0 and real eta the conjugation symmetry of log-gamma makes
    both outputs exactly real.
    """
    log_c, sigma = _norm_logs(complex(ell), complex(eta))
    return NormalizationConstants(c_l=cmath.exp(log_c), sigma_l=sigma)


# ---------------------------------------------------------------------------
# power series for the regular solution
# ---------------------------------------------------------------------------

def f_series(params: ComplexParams, *, max_terms: int = SERIES_MAX_TERMS,
             tol: float = SERIES_TOL, radius: float = SERIES_RADIUS):
    """(F, F', diagnostics) from the regular power series.

    Raises ConvergenceError outside the trust radius or when the term ratio
    never reaches ``tol``; raises SeriesCancellationError when the largest
    summed term exceeds the result by more than 1e8 (more than ~8 digits
    lost).  The result does not depend on params.omega.
    """
    f, fp, diag, _ = _f_series_core(params, max_terms=max_terms, tol=tol,
                                    radius=radius)
    return f, fp, diag


def _f_series_core(params: ComplexParams, *, max_terms: int = SERIES_MAX_TERMS,
                   tol: float = SERIES_TOL, radius: float = SERIES_RADIUS):
    """f_series plus the cancellation ratio, for route selection."""
    ell, eta, rho = params.ell, params.eta, params.rho
    if abs(rho) > radius:
        raise ConvergenceError(
            f"|rho| = {abs(rho):.3g} outside the series radius {radius:g}")
    log_c, _ = _norm_logs(ell, eta)

    a_prev = complex(0.0)
    a_cur = complex(1.0)
    s = complex(0.0)
    sd = complex(0.0)      # sum of k A_k rho^k
    rk = complex(1.0)
    max_mag = 0.0
    ratio = math.inf
    converged = False
    k = 0
    while k < max_terms:
        t = a_cur * rk
        s += t
        if k:
            sd += k * t
        mag = abs(t)
        max_mag = max(max_mag, mag)
        prev_ratio = ratio
        ratio = mag / max(abs(s), 1e-300)
        # two consecutive small terms: every other coefficient can vanish
        # (free field), so one small term is not evidence of convergence
        if k > 8 and ratio <= tol and prev_ratio <= tol:
            converged = True
            break
        a_prev, a_cur = a_cur, (2.0 * eta * a_cur - a_prev) / ((k + 1) * (k + 2.0 * ell + 2.0))
        rk *= rho
        k += 1

    diag = SeriesDiagnostics(terms_used=k + 1, last_term_ratio=ratio,
                             converged=converged)
    if not converged:
        raise ConvergenceError(
            f"series did not reach tol={tol:g} in {max_terms} terms")
    cancel = max_mag / max(abs(s), 1e-300)
    if cancel > CANCELLATION_LIMIT:
        raise SeriesCancellationError(
            f"series cancellation {cancel:.2e} exceeds {CANCELLATION_LIMIT:.0e}")
    pref = cmath.exp(log_c + (ell + 1.0) * cmath.log(rho))
    f = pref * s
    fp = pref * (sd / rho + (ell + 1.0) / rho * s)
    return f, fp, diag, cancel


# ---------------------------------------------------------------------------
# asymptotic expansion for H(+/-)
# ---------------------------------------------------------------------------

def h_asymptotic(params: ComplexParams, *, tol: float = ASYM_TOL,
                 max_terms: int = 400):
    """(H, H', diagnostics) from the divergent large-rho expansion.

    The sum is truncated at its globally smallest term; early terms may grow
    while k < ~2(|eta| + |l|), so growth is tolerated during that burn-in.
    Raises AsymptoticFailureError when the smallest term is above ``tol``.
    """
    ell, eta, rho, omega = params.ell, params.eta, params.rho, params.omega
    _, sigma = _norm_logs(ell, eta)
    theta = rho - eta * cmath.log(2.0 * rho) - ell * (math.pi / 2.0) + sigma
    pa = -ell + 1j * omega * eta
    pb = 1.0 + ell + 1j * omega * eta
    z = -1j * omega / (2.0 * rho)

    s = complex(1.0)
    sd = complex(0.0)          # sum of k t_k
    term = complex(1.0)
    best_mag = 1.0
    best_s, best_sd, best_k = s, sd, 0
    burn_in = 4 + int(2.0 * (abs(eta) + abs(ell)))
    k = 0
    while k < max_terms:
        term = term * (pa + k) * (pb + k) / (k + 1.0) * z
        k += 1
        mag = abs(term)
        if mag >= best_mag and k > burn_in:
            break
        s += term
        sd += k * term
        if mag < best_mag:
            best_mag, best_s, best_sd, best_k = mag, s, sd, k
        if mag < 1e-18:
            break

    ratio = best_mag / max(abs(best_s), 1e-300)
    converged = ratio <= tol
    diag = SeriesDiagnostics(terms_used=best_k, last_term_ratio=ratio,
                             converged=converged)
    if not converged:
        raise AsymptoticFailureError(
            f"smallest asymptotic term ratio {ratio:.2e} above tol={tol:g} "
            f"(rho too small)")
    phase = cmath.exp(1j * omega * theta)
    h = phase * best_s
    hp = 1j * omega * (1.0 - eta / rho) * h - phase * best_sd / rho
    return h, hp, diag


# ---------------------------------------------------------------------------
# Taylor-series propagation along complex paths
# ---------------------------------------------------------------------------

TAYLOR_TOL = 1e-17          # term size that ends a step's sums
TAYLOR_MAX_TERMS = 400      # ends non-finite sums; a finite step needs < ~80
STEP_PHASE = 2.0            # |h| sqrt|V| per step: growth or cancellation <= e^2
MAX_STEPS = 20_000          # ~|end - start|/2 far out: anchors at eta^2/5, |eta| <~ 300


def _segment_hits_cut(start: complex, end: complex) -> bool:
    """True if the straight segment meets the closed negative real axis."""
    for p in (start, end):
        if p.imag == 0.0 and p.real <= 0.0:
            return True
    si, ei = start.imag, end.imag
    if si == 0.0 and ei == 0.0:
        return min(start.real, end.real) <= 0.0
    if si * ei < 0.0 or (si == 0.0 or ei == 0.0):
        if si == ei:
            return False
        t = si / (si - ei)
        if 0.0 <= t <= 1.0 and (start + t * (end - start)).real <= 0.0:
            return True
    return False


def _taylor_transfer(ll1: complex, eta: complex, rho0: complex, h: complex):
    """(ua, ub, pa, pb): u(rho0 + h) = ua u + ub u', u'(rho0 + h) = pa u + pb u'.

    About rho0 the scaled coefficients d_k = c_k h^k of rho^2 u'' =
    (l(l+1) + 2 eta rho - rho^2) u obey, with Q = l(l+1) + 2 eta rho0 - rho0^2,

        rho0^2 (k+2)(k+1) d_{k+2} = -2 rho0 h (k+1) k d_{k+1}
            + (Q - k(k-1)) h^2 d_k + (2 eta - 2 rho0) h^3 d_{k-1} - h^4 d_{k-2}.

    The sums of d_k and k d_k for (d_0, d_1) = (1, 0) and (0, 1) map
    (u, h u') across the step.
    """
    r = h / rho0
    r2 = r * r
    c_lin = -2.0 * r
    c_q = (ll1 + (2.0 * eta - rho0) * rho0) * r2
    c_1 = 2.0 * (eta - rho0) * h * r2
    c_2 = -(h * r) ** 2
    am2 = am1 = bm2 = bm1 = 0j
    a0, a1, b0, b1 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    ua, pa, ub, pb = 1.0 + 0j, 0j, 1.0 + 0j, 1.0 + 0j   # sums through k = 1
    prev = math.inf
    for k in range(TAYLOR_MAX_TERMS):
        lin = c_lin * ((k + 1) * k)
        diag = c_q - (k * (k - 1)) * r2
        inv = 1.0 / ((k + 2) * (k + 1))
        an = (lin * a1 + diag * a0 + c_1 * am1 + c_2 * am2) * inv
        bn = (lin * b1 + diag * b0 + c_1 * bm1 + c_2 * bm2) * inv
        ua += an
        ub += bn
        pa += (k + 2) * an
        pb += (k + 2) * bn
        # two consecutive small terms, as one basis starts with d_2 = 0; the
        # sums form a matrix of unit determinant, so the largest is >= 1/sqrt 2
        size = (k + 2) * (abs(an) + abs(bn))
        if size <= TAYLOR_TOL and prev <= TAYLOR_TOL:
            return ua, ub * h, pa / h, pb
        prev = size
        am2, am1, a0, a1 = am1, a0, a1, an
        bm2, bm1, b0, b1 = bm1, b0, b1, bn
    raise ConvergenceError(
        f"Taylor series about {rho0!r} did not converge in "
        f"{TAYLOR_MAX_TERMS} terms")


def ode_propagate(ell: complex, eta: complex, start: complex,
                  quad_start: CoulombQuad, end: complex) -> CoulombQuad:
    """Propagate (F, F', G, G') from ``start`` to ``end`` along the straight
    segment between them.

    Both solutions satisfy u'' = (l(l+1)/rho^2 + 2 eta/rho - 1) u, whose
    polynomial coefficients give every Taylor coefficient about a point by
    a recurrence (Jorba & Zou, Exp. Math. 14, 2005).  Each step sums the
    series of two basis solutions to a transfer matrix and applies it to
    both pairs, so errors in one pair never leak into the other.  A step
    is at most |rho0|/2, inside the radius of convergence |rho0|, and at
    most STEP_PHASE/sqrt|V(rho0)|.  Raises ConvergenceError after
    MAX_STEPS steps and OverflowSignal when the state stops being finite.
    """
    ell = complex(ell)
    eta = complex(eta)
    start = complex(start)
    end = complex(end)
    if _segment_hits_cut(start, end):
        raise PathError(
            f"segment {start!r} -> {end!r} meets the origin or the negative "
            f"real axis")

    ll1 = ell * (ell + 1.0)
    f, fp, g, gp = quad_start.f, quad_start.fp, quad_start.g, quad_start.gp
    rho = start
    for _ in range(MAX_STEPS + 1):
        if rho == end:
            return CoulombQuad(f=f, fp=fp, g=g, gp=gp)
        rest = end - rho
        v = (ll1 / rho + 2.0 * eta) / rho - 1.0
        step = min(0.5 * abs(rho), STEP_PHASE / math.sqrt(max(1.0, abs(v))))
        last = abs(rest) <= step
        h = rest if last else step * rest / abs(rest)
        ua, ub, pa, pb = _taylor_transfer(ll1, eta, rho, h)
        f, fp = ua * f + ub * fp, pa * f + pb * fp
        g, gp = ua * g + ub * gp, pa * g + pb * gp
        if not all(map(cmath.isfinite, (f, fp, g, gp))):
            raise OverflowSignal(
                f"propagated solution left the double range near {rho!r}")
        rho = end if last else rho + h
    raise ConvergenceError(
        f"ODE step budget of {MAX_STEPS} exhausted along {start!r} -> {end!r}")


# ---------------------------------------------------------------------------
# combining backend
# ---------------------------------------------------------------------------

def _omega_star(rho: complex) -> int:
    """Sign whose H grows toward the origin: |H^w| ~ exp(-w Im rho)."""
    return 1 if rho.imag >= 0.0 else -1


def _h_anchor(ell: complex, eta: complex, rho: complex, omega: int):
    """(anchor_rho, H, H') out along the ray of rho where the expansion
    converges to ANCHOR_TOL; raises AsymptoticFailureError if none found."""
    unit = rho / abs(rho)
    r = max(50.0, abs(eta) ** 2 / 5.0, 1.05 * abs(rho))
    last_exc = None
    for _ in range(9):
        anchor = r * unit
        try:
            h, hp, _ = h_asymptotic(ComplexParams(ell, eta, anchor, omega),
                                    tol=ANCHOR_TOL)
            return anchor, h, hp
        except AsymptoticFailureError as exc:
            last_exc = exc
            r *= 1.3
    raise last_exc


def _h_inward(ell: complex, eta: complex, rho: complex, omega: int):
    """H^omega pair at rho by inward propagation from an asymptotic anchor.

    Only the omega of :func:`_omega_star` is propagated this way: that H
    grows toward the origin (through the barrier for real rho, through
    exp(|Im rho|) for complex rho), which is the direction in which the
    integration is self-correcting.
    """
    anchor, h, hp = _h_anchor(ell, eta, rho, omega)
    prop = ode_propagate(ell, eta, anchor, CoulombQuad(h, hp, 0.0, 0.0), rho)
    return prop.f, prop.fp


def _h_chain(ell: complex, eta: complex, rho: complex, omega: int, chain):
    """H^omega pair at rho, carried in from ``chain`` when it can reach rho
    with the same omega, else anchored afresh by :func:`_h_inward`."""
    if chain is not None and _omega_star(chain[0]) == omega:
        try:
            prop = ode_propagate(ell, eta, chain[0],
                                 CoulombQuad(chain[1], chain[2], 0.0, 0.0), rho)
            return prop.f, prop.fp
        except (PathError, ConvergenceError):
            pass
    return _h_inward(ell, eta, rho, omega)


def _series_anchor(params: ComplexParams):
    """Largest radius at or below |rho| where the series passes its guards."""
    ell, eta, rho = params.ell, params.eta, params.rho
    unit = rho / abs(rho)
    r = min(abs(rho), SERIES_RADIUS * 0.98)
    last_exc = None
    for _ in range(24):
        anchor = r * unit
        try:
            f, fp, _ = f_series(ComplexParams(ell, eta, anchor, params.omega))
            return anchor, f, fp
        except ConvergenceError as exc:
            last_exc = exc
            r *= 0.82
            if r < 0.3:
                break
    raise last_exc


# rough per-route accuracy estimates used to pick between valid routes
_SERIES_EPS = 5e-15           # times the cancellation ratio
_CHAIN_EST = 1e-11            # inward-propagated H, relative


def _series_route(params: ComplexParams, notes: dict):
    """(F, F', est) by series, or None."""
    try:
        f, fp, _, cancel = _f_series_core(params)
        notes["series"] = "ok"
        return f, fp, max(cancel, 1.0) * _SERIES_EPS
    except ConvergenceError as exc:
        notes["series"] = str(exc)
        return None


def _asym_route(params: ComplexParams, notes: dict):
    """(quad, estF, seed) from H(+/-) at the point itself, or None.

    estF combines the smallest-term ratios with the cancellation incurred
    when |F| is far below |H| (e.g. the regular solution at small rho for
    integer l, eta = 0, where the expansion terminates).  ``seed`` is the
    chain (rho, H^w, H^w') when the inward-growing member also passes
    ANCHOR_TOL, else None.
    """
    ell, eta, rho = params.ell, params.eta, params.rho
    try:
        hp_, hpd, d1 = h_asymptotic(ComplexParams(ell, eta, rho, 1))
        hm_, hmd, d2 = h_asymptotic(ComplexParams(ell, eta, rho, -1))
    except AsymptoticFailureError as exc:
        notes["asymptotic"] = str(exc)
        return None
    notes["asymptotic"] = "ok"
    quad = CoulombQuad(f=(hp_ - hm_) / 2j, fp=(hpd - hmd) / 2j,
                       g=(hp_ + hm_) / 2.0, gp=(hpd + hmd) / 2.0)
    est_f = (d1.last_term_ratio + d2.last_term_ratio
             + 1e-16 * (abs(hp_) + abs(hm_)) / max(abs(quad.f), 1e-300))
    h, hp, diag = (hp_, hpd, d1) if _omega_star(rho) == 1 else (hm_, hmd, d2)
    seed = (rho, h, hp) if diag.last_term_ratio <= ANCHOR_TOL else None
    return quad, est_f, seed


def _plan(params: ComplexParams, chain):
    """(quad, chain) at one point by the most accurate available route.

    ``chain`` is the (rho, H^w, H^w') carried in from a larger |rho| on the
    same ray, or None; the returned chain is the one to carry further in.
    Raises NoStrategyError with per-route diagnostics when every route
    fails; other CoulwkbErrors (a gamma pole, say) propagate.
    """
    ell, eta, rho = params.ell, params.eta, params.rho
    notes: dict[str, str] = {}

    ser = _series_route(params, notes)
    asym = _asym_route(params, notes)

    f = fp = None
    if ser is not None:
        f, fp, est_f = ser
    if asym is not None:
        quad, est_af, seed = asym
        if f is None or est_af < est_f:
            f, fp = quad.f, quad.fp
        return CoulombQuad(f=f, fp=fp, g=quad.g, gp=quad.gp), seed or chain

    om = _omega_star(rho)
    h = hp = None
    try:
        h, hp = _h_chain(ell, eta, rho, om, chain)
        notes["h_ode_inward"] = "ok"
    except (PathError, ConvergenceError) as exc:
        notes["h_ode_inward"] = str(exc)

    if h is not None and ell.imag == 0.0 and eta.imag == 0.0 and rho.imag == 0.0:
        # real parameters: H^- = conj(H^+), so F is Im(H^+)
        if f is None or est_f > _CHAIN_EST:
            f = complex(h.imag * om, 0.0)
            fp = complex(hp.imag * om, 0.0)
            notes["f_from_h"] = "ok"

    if f is None:
        try:
            anchor, fa, fpa = _series_anchor(params)
            prop = ode_propagate(ell, eta, anchor,
                                 CoulombQuad(fa, fpa, 0.0, 0.0), rho)
            f, fp = prop.f, prop.fp
            notes["f_ode_outward"] = "ok"
        except (ConvergenceError, PathError) as exc:
            notes["f_ode_outward"] = str(exc)

    if f is None or h is None:
        raise NoStrategyError(
            f"no exact route covers rho = {rho!r}", diagnostics=notes)
    jw = 1j * om
    return CoulombQuad(f=f, fp=fp, g=h - jw * f, gp=hp - jw * fp), (rho, h, hp)


def exact_quad(params: ComplexParams) -> CoulombQuad:
    """F, F', G, G' at one point: the route planner with nothing carried in.

    Raises NoStrategyError with per-route diagnostics when every route
    fails; see the module docstring for the routes.
    """
    return _plan(params, None)[0]


def exact_quad_grid(ell: complex, eta: complex, rhos) -> list:
    """F, F', G, G' on a grid of rho values, normally along one ray.

    The points are planned in descending |rho|, each handed the H^w chain of
    the last, so a sweep along a ray integrates each stretch of it once.  A
    point whose own H^w expansion passes ANCHOR_TOL re-seeds the chain
    there; a point the chain cannot reach (a path or step failure, or a
    different w) is anchored afresh as ``exact_quad`` would.  Returns one
    CoulombQuad or one CoulwkbError per input point, in input order.
    """
    pts = [complex(r) for r in rhos]
    out: list = [None] * len(pts)
    chain = None
    for i in sorted(range(len(pts)), key=lambda i: -abs(pts[i])):
        try:
            out[i], chain = _plan(ComplexParams(ell, eta, pts[i]), chain)
        except CoulwkbError as exc:
            out[i] = exc
    return out

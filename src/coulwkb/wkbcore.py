"""Uniform Airy-type WKB evaluation of Coulomb wave functions.

The radial Coulomb problem has a classical turning point at
``rho_t = eta + sqrt(eta^2 + l(l+1))``.  In the scaled offset
``x = (rho - rho_t)/rho_t`` the pair F, G is written on the ansatz

    F = sqrt(pi) rho_t^{1/6} phi'(x)^{-1/2} Ai(-rho_t^{2/3} phi(x))
    G = sqrt(pi) rho_t^{1/6} phi'(x)^{-1/2} Bi(-rho_t^{2/3} phi(x))

where the phase map phi carries the problem onto the Airy equation.  For
large turning-point radius phi satisfies

    phi'(x)^2 phi(x) = x/(x+1) + a x/(x+1)^2,      a = 1 - 2 eta / rho_t,

with phi(0) = 0 and phi' > 0 on the real axis, and this first-order problem
integrates in closed form through elementary functions (one expression for
Re x >= 0, one for Re x < 0).  The expressions below were verified by
differentiation and against adaptive quadrature of the defining integral.

phi is evaluated on principal branches; the optional winding integers used
by the contour module select other sheets of each branched term.  Everything
here is pure and thread-safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import airy as _airy
from .complexops import (
    branch_arccos,
    branch_arctan,
    branch_arctanh,
    branch_log,
)
from .errors import (
    BranchAmbiguityError,
    BranchCutError,
    ConditioningError,
    DomainError,
)

_SQRT_PI = math.sqrt(math.pi)

# Below this |x| the closed forms lose too many digits to cancellation and
# the second-order Maclaurin jet of phi is used instead.  4e-4 keeps the
# jet truncation error below ~7e-8 (phi' is the worst case) while the
# closed forms still only lose ~3 digits to cancellation at the seam.
SERIES_X_FACTOR = 4e-4


@dataclass(frozen=True)
class ComplexParams:
    """Evaluation point (l, eta, rho) plus the sign omega selecting H+/H-.

    l, eta and rho must be finite; rho must avoid the origin and the negative
    real axis (the cut ray of the Coulomb functions); omega is +1 or -1.
    """

    ell: complex
    eta: complex
    rho: complex
    omega: int = 1

    def __post_init__(self):
        object.__setattr__(self, "ell", complex(self.ell))
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "rho", complex(self.rho))
        for name in ("ell", "eta", "rho"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.rho == 0:
            raise DomainError("rho = 0 is excluded")
        if self.rho.imag == 0.0 and self.rho.real < 0.0:
            raise DomainError("rho on the negative real axis (cut ray) is excluded")
        if self.omega not in (1, -1):
            raise DomainError(f"omega must be +1 or -1, got {self.omega!r}")


@dataclass(frozen=True)
class TurningGeometry:
    """Turning point rho_t, shape parameter a and scaled offset x."""

    rho_t: complex
    a: complex
    x: complex


@dataclass(frozen=True)
class PhiJet:
    """phi, phi', phi'' of the phase map at one point x."""

    phi: complex
    dphi: complex
    d2phi: complex


@dataclass(frozen=True)
class CoulombQuad:
    """F, F', G, G' at one point; derivatives are with respect to rho."""

    f: complex
    fp: complex
    g: complex
    gp: complex

    def wronskian_error(self) -> float:
        """|F'G - FG' - 1|; identically 0 for exact Coulomb pairs."""
        return abs(self.fp * self.g - self.f * self.gp - 1.0)


def turning_geometry(params: ComplexParams) -> TurningGeometry:
    """Turning-point geometry (rho_t, a, x) for an evaluation point.

    The square root of eta^2 + l(l+1) takes its principal branch
    (Re >= 0), which selects the outer turning point for real parameters.
    """
    ell, eta = params.ell, params.eta
    disc = eta * eta + ell * (ell + 1.0)
    if disc.imag == 0.0 and disc.real <= 0.0:
        raise BranchAmbiguityError(
            "eta^2 + l(l+1) lies on the square-root cut; the turning point "
            "sheet is ambiguous")
    rho_t = eta + cmath.sqrt(disc)
    if rho_t == 0:
        raise DomainError("turning point at the origin")
    a = 1.0 - 2.0 * eta / rho_t
    x = (params.rho - rho_t) / rho_t
    return TurningGeometry(rho_t=rho_t, a=a, x=x)


def _check_sqrt_arg(z: complex, what: str) -> complex:
    if z.imag == 0.0 and z.real < 0.0:
        raise BranchCutError(f"{what} lies on the sqrt cut; use the contour module")
    return z


def _check_log_arg(z: complex, what: str) -> complex:
    if z.imag == 0.0 and z.real < 0.0:
        raise BranchCutError(f"{what} lies on the log cut; use the contour module")
    if z == 0:
        raise BranchCutError(f"{what} hit the log branch point")
    return z


def series_threshold(a: complex) -> float:
    """|x| below which the Maclaurin jet replaces the closed forms."""
    return SERIES_X_FACTOR * min(1.0, abs(1.0 + a))


def _phi_jet_series(x: complex, a: complex) -> PhiJet:
    """Second-order jet phi = (1+a)^{1/3} (x + c2 x^2) near the turning point.

    c2 = -(1+2a)/(5(1+a)) follows from matching powers of x in
    phi'^2 phi = x/(x+1) + a x/(x+1)^2.
    """
    one_a = _check_log_arg(1.0 + a, "1 + a")
    b = cmath.exp(cmath.log(one_a) / 3.0)
    c2 = -(1.0 + 2.0 * a) / (5.0 * one_a)
    phi = b * x * (1.0 + c2 * x)
    dphi = b * (1.0 + 2.0 * c2 * x)
    d2phi = 2.0 * c2 * b
    return PhiJet(phi=phi, dphi=dphi, d2phi=d2phi)


def _jet_from_action(s: complex, root_prod: complex, x: complex, a: complex,
                     sign: int, k_outer: int, k_dphi: int) -> PhiJet:
    """Assemble (phi, phi', phi'') from the accumulated action integral.

    ``s`` is (2/3) (sign*phi)^{3/2} and ``root_prod`` the square-root product
    sqrt(+-x (1+a+x)) appearing in ds/dx = +- root_prod/(1+x).  Writing
    L = log(3s/2), both phi = sign * exp(2L/3) and the half power
    (sign*phi)^{1/2} = exp(L/3) are taken from the same logarithm, which
    fixes the phi' root by continuity with the real axis, where phi' > 0.
    """
    ell_log = branch_log(_check_log_arg(1.5 * s, "3/2 * action"), k_outer)
    phi = sign * cmath.exp((2.0 / 3.0) * ell_log)
    half = cmath.exp(ell_log / 3.0)
    dphi = root_prod / ((1.0 + x) * half)
    if k_dphi % 2:
        dphi = -dphi
    rp = 1.0 / (1.0 + x) ** 2 + a * (1.0 - x) / (1.0 + x) ** 3
    d2phi = (rp - dphi ** 3) / (2.0 * phi * dphi)
    return PhiJet(phi=phi, dphi=dphi, d2phi=d2phi)


def _phi_jet_right(x: complex, a: complex, k_log: int, k_atan: int,
                   k_outer: int, k_dphi: int):
    """Closed form for the Re(x) >= 0 region; returns (jet, term args)."""
    u = cmath.sqrt(_check_sqrt_arg(x, "x"))
    v = cmath.sqrt(_check_sqrt_arg(1.0 + a + x, "1 + a + x"))
    if a == 0:
        w = _check_log_arg(u + v, "sqrt(x) + sqrt(1+x)")
        s = u * v - branch_log(w, k_log)
        args = {"log": w}
    else:
        sa = cmath.sqrt(_check_sqrt_arg(a, "a"))
        w = _check_log_arg((u + v) / cmath.sqrt(_check_sqrt_arg(1.0 + a, "1 + a")),
                           "log argument")
        t = sa * u / v
        s = (-(1.0 - a) * branch_log(w, k_log)
             + u * v
             - 2.0 * sa * branch_arctan(t, k_atan))
        args = {"log": w, "atan": t}
    args["outer"] = 1.5 * s
    return _jet_from_action(s, u * v, x, a, +1, k_outer, k_dphi), args


def _phi_jet_left(x: complex, a: complex, k_atan: int, k_acos: int,
                  k_outer: int, k_dphi: int):
    """Closed form for the Re(x) < 0 region; returns (jet, term args)."""
    p = cmath.sqrt(_check_sqrt_arg(-x, "-x"))
    q = cmath.sqrt(_check_sqrt_arg(1.0 + a + x, "1 + a + x"))
    one_a = _check_log_arg(1.0 + a, "1 + a")
    arg = 1.0 + 2.0 * x / one_a
    if arg.imag == 0.0 and abs(arg.real) >= 1.0:
        raise BranchCutError("arccos argument lies on its cut; use the contour module")
    s = -p * q + 0.5 * (1.0 - a) * branch_arccos(arg, k_acos)
    args = {"acos": arg}
    if a != 0:
        sa = cmath.sqrt(_check_sqrt_arg(a, "a"))
        t = sa * p / q
        if t.imag == 0.0 and abs(t.real) >= 1.0:
            raise BranchCutError("arctanh argument lies on its cut; use the contour module")
        s += 2.0 * sa * branch_arctanh(t, k_atan)
        args["atanh"] = t
    args["outer"] = 1.5 * s
    return _jet_from_action(s, p * q, x, a, -1, k_outer, k_dphi), args


def phi_jet_terms(x: complex, a: complex, k_log: int = 0, k_atan: int = 0,
                  k_acos: int = 0, k_outer: int = 0, k_dphi: int = 0):
    """(PhiJet, branched-term arguments) with explicit sheet indices.

    The winding integers shift: the region-1 log term by 2*pi*i*k, the
    arctan/arctanh term by its period, the arccos term across its sheets,
    the outer 2/3 power inversion by full turns of its logarithm, and the
    phi' root by a sign.  The returned dict holds the complex argument fed
    to each branched elementary term, which is what the contour module
    watches for principal-cut crossings; the series region has no branched
    terms and returns an empty dict.
    """
    x = complex(x)
    a = complex(a)
    if x == -1:
        raise DomainError("x = -1 (rho = 0) is a coordinate singularity")
    if abs(x) < series_threshold(a):
        jet = _phi_jet_series(x, a)
        if k_dphi % 2:
            jet = PhiJet(jet.phi, -jet.dphi, jet.d2phi)
        return jet, {}
    if x.real >= 0.0:
        return _phi_jet_right(x, a, k_log, k_atan, k_outer, k_dphi)
    return _phi_jet_left(x, a, k_atan, k_acos, k_outer, k_dphi)


def phi_jet(x: complex, a: complex) -> PhiJet:
    """Principal-branch phase map phi and its first two derivatives.

    Region selection follows the sign of Re(x); inside |x| < ~5e-4 the
    closed forms are replaced by the Maclaurin jet, whose leading behaviour
    is phi ~ (1+a)^{1/3} x.  For a = 0 the sqrt(a) terms are dropped
    identically, recovering the s-wave expressions.
    """
    return phi_jet_terms(x, a)[0]


def phi_residual(x: complex, a: complex, rho_t: complex) -> complex:
    """Residual of the full third-order phase-map equation.

    Evaluates phi'^2 phi + phi'''/(2 rho_t^2 phi') - 3 (phi''/phi')^2 /
    (4 rho_t^2) - x/(x+1) - a x/(x+1)^2 with phi''' from a five-point
    finite-difference of phi''.  The closed-form phi drops exactly the
    rho_t^{-2} terms, so this measures the size of the neglected terms;
    it is a diagnostic, not part of the evaluation path.
    """
    x = complex(x)
    a = complex(a)
    rho_t = complex(rho_t)
    h = 1e-3 * max(1.0, abs(x))
    if abs(x) <= 2.5 * h:
        raise ConditioningError("finite-difference stencil spans the turning point")
    if abs(1.0 + x) <= 2.5 * h:
        raise ConditioningError("finite-difference stencil spans x = -1")
    d2 = [phi_jet(x + k * h, a).d2phi for k in (-2, -1, 1, 2)]
    d3 = (d2[0] - 8.0 * d2[1] + 8.0 * d2[2] - d2[3]) / (12.0 * h)
    jet = phi_jet(x, a)
    r = x / (x + 1.0) + a * x / (x + 1.0) ** 2
    rt2 = rho_t * rho_t
    return (jet.dphi ** 2 * jet.phi
            + d3 / (2.0 * rt2 * jet.dphi)
            - 0.75 * (jet.d2phi / jet.dphi) ** 2 / rt2
            - r)


def _assemble_quad(rho_t: complex, jet: PhiJet) -> CoulombQuad:
    """F, F', G, G' from the turning geometry and a phi jet.

    Keeps both derivative terms: the phi'' piece is not negligible next to
    the Airy-derivative piece.  phi'^{1/2} and its reciprocal come from one
    square root so the Wronskian identity survives in floating point.
    """
    lr = cmath.log(rho_t)
    rt16 = cmath.exp(lr / 6.0)
    rt23 = cmath.exp((2.0 / 3.0) * lr)
    u = -rt23 * jet.phi
    aq = _airy.airy_quad(u)
    sd = cmath.sqrt(jet.dphi)
    inv = 1.0 / sd
    c = _SQRT_PI * rt16
    f = c * inv * aq.ai
    g = c * inv * aq.bi
    com = -0.5 * jet.d2phi * inv / jet.dphi
    fp = (c / rho_t) * (com * aq.ai - rt23 * sd * aq.aip)
    gp = (c / rho_t) * (com * aq.bi - rt23 * sd * aq.bip)
    return CoulombQuad(f=f, fp=fp, g=g, gp=gp)


def wkb_quad(params: ComplexParams) -> CoulombQuad:
    """Uniform WKB approximation of F, F', G, G' at one point.

    Exact in the free-field limit of the ansatz up to the phase-map
    approximation; relative accuracy against the exact backend is ~1% for
    the regimes with sizeable eta (the neglected terms scale as
    rho_t^{-2}).  The Wronskian F'G - FG' = 1 holds to machine precision
    independent of the phi approximation.
    """
    geom = turning_geometry(params)
    jet = phi_jet(geom.x, geom.a)
    return _assemble_quad(geom.rho_t, jet)


def h_from_quad(quad: CoulombQuad, omega: int):
    """(H, H') with H = G + i*omega*F, the outgoing/incoming combination."""
    if omega not in (1, -1):
        raise DomainError(f"omega must be +1 or -1, got {omega!r}")
    j = 1j * omega
    return quad.g + j * quad.f, quad.gp + j * quad.fp

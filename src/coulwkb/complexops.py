"""Branch-aware complex elementary functions and principal-branch log-gamma.

All functions here are pure and follow the standard principal-branch
conventions (cuts as in cmath / DLMF ch. 4):

* ``log``      cut on the negative real axis, Im(log) in (-pi, pi]
* ``arctan``   cuts on the imaginary axis, |Im z| >= 1
* ``arctanh``  cuts on the real axis, |Re z| >= 1
* ``arccos``   cuts on the real axis, |Re z| >= 1

The ``winding`` argument selects another sheet explicitly; nothing in this
module detects cut crossings (that bookkeeping lives in the contour module,
which keeps these functions pure and independently testable).
"""

from __future__ import annotations

import cmath
import math

from .errors import BranchPointError, PoleError

_TWO_PI_I = 2j * math.pi

# Asymptotic log-gamma coefficients B_{2n} / (2n (2n-1)).
_STIRLING = (
    8.3333333333333333e-02,     # 1/12
    -2.7777777777777778e-03,    # -1/360
    7.9365079365079365e-04,     # 1/1260
    -5.9523809523809524e-04,    # -1/1680
    8.4175084175084175e-04,     # 1/1188
    -1.9175269175269175e-03,    # -691/360360
    6.4102564102564103e-03,     # 1/156
    -2.9550653594771242e-02,    # -3617/122400
    1.7964437236883057e-01,     # 43867/244188
    -1.3924322169059011e+00,    # -174611/125400
)
_HALF_LOG_TWO_PI = 0.9189385332046727417803297
_STIRLING_RADIUS = 12.0


def branch_log(z: complex, winding: int = 0) -> complex:
    """log on sheet ``winding``: principal value plus 2*pi*i*winding."""
    if z == 0:
        raise BranchPointError("log branch point at z = 0")
    return cmath.log(z) + winding * _TWO_PI_I


def branch_arctan(z: complex, winding: int = 0) -> complex:
    """arctan on sheet ``winding``: principal value plus pi*winding."""
    if z == 1j or z == -1j:
        raise BranchPointError("arctan branch point at z = +/-i")
    return cmath.atan(z) + winding * math.pi


def branch_arctanh(z: complex, winding: int = 0) -> complex:
    """arctanh on sheet ``winding``: principal value plus i*pi*winding."""
    if z == 1 or z == -1:
        raise BranchPointError("arctanh branch point at z = +/-1")
    return cmath.atanh(z) + winding * 1j * math.pi


def branch_arccos(z: complex, winding: int = 0) -> complex:
    """arccos on sheet ``winding``.

    The sheets of arccos are {+w + 2*pi*n} and {-w + 2*pi*n} with
    w the principal value.  Even windings 2n map to ``w + 2*pi*n``;
    odd windings 2n+1 map to ``-w + 2*pi*(n+1)`` (so winding -1 is ``-w``,
    the sign flip picked up when crossing the cut right of z = 1).
    """
    if z == 1 or z == -1:
        raise BranchPointError("arccos branch point at z = +/-1")
    w = cmath.acos(z)
    if winding % 2 == 0:
        return w + math.pi * winding
    return -w + math.pi * (winding + 1)


def _log_gamma_right(z: complex) -> complex:
    """Principal log-gamma for Re(z) >= 0.5 via recurrence plus Stirling.

    Both the recurrence logs and the Stirling log stay in the right
    half-plane, so the principal branch is preserved exactly.
    """
    shift = 0j
    w = z
    while abs(w) < _STIRLING_RADIUS:
        shift -= cmath.log(w)
        w += 1.0
    rec = 1.0 / (w * w)
    s = _STIRLING[-1]
    for c in reversed(_STIRLING[:-1]):
        s = c + s * rec
    return (w - 0.5) * cmath.log(w) - w + _HALF_LOG_TWO_PI + s / w + shift


def _log_sin_pi_upper(z: complex) -> complex:
    """Analytic continuation of log(sin(pi z)) through Im(z) >= 0.

    Uses sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}); for Im(z) >= 0
    the last factor stays in the disk |w - 1| <= 1, where the principal log
    is continuous, so the whole expression is analytic in the upper
    half-plane and matches log(sin(pi z)) on (0, 1).
    """
    return (math.log(0.5) + 0.5j * math.pi - 1j * math.pi * z
            + cmath.log(1.0 - cmath.exp(2j * math.pi * z)))


def log_gamma(z: complex) -> complex:
    """Principal-branch log-gamma(z) for complex z.

    Continuous for Re(z) > 0; continued to Re(z) <= 0 by the reflection
    identity log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z) with
    the log-sin branch chosen so the result is the analytic continuation
    off the negative real axis.  Relative accuracy is ~1e-14 for |z| <= 100.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"log_gamma pole at z = {z.real:g}")
    if z.real >= 0.5:
        return _log_gamma_right(z)
    if z.imag >= 0.0:
        return (math.log(math.pi) - _log_sin_pi_upper(z)
                - _log_gamma_right(1.0 - z))
    # Schwarz reflection: log-gamma is real on the positive axis.
    return log_gamma(z.conjugate()).conjugate()

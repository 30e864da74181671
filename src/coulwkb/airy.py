"""Airy functions Ai, Bi and first derivatives for complex argument.

Two regimes, switched on |z|:

* ``|z| <= 8``  -- Maclaurin series.  The two entire solutions f, g grow like
  exp(2/3 |z|^{3/2}) while Ai = c1 f - c2 g can be exponentially small (plain
  doubles lose ~9 digits at |z| = 8), so the series is summed in fixed
  point: z, the terms and the sums are Python integers over a power of two
  of at least 2^128, the cancellation in c1 f -/+ c2 g happens exactly in
  integers, and each result is rounded to double once.  The error of each
  of Ai, Ai', Bi, Bi' stays below 1e-15 of max(|X|, |X'|) (X = Ai or Bi)
  throughout the disk.
* ``|z| > 8``  -- Poincare asymptotic expansions, truncated at the smallest
  term.  Direct evaluation is restricted to |arg z| <= 2pi/3; everything else
  is assembled from the rotation identities

      Ai(z) = -e^{+2pi i/3} Ai(z e^{+2pi i/3}) - e^{-2pi i/3} Ai(z e^{-2pi i/3})
      Bi(z) =  e^{+i pi/6}  Ai(z e^{+2pi i/3}) + e^{-i pi/6}  Ai(z e^{-2pi i/3})
      Bi(z) = +/- i Ai(z) + 2 e^{-/+ i pi/6} Ai(z e^{-/+ 2pi i/3})

  (DLMF 9.2.10-9.2.12), which only ever need Ai in good sectors.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, OverflowSignal, SeriesCancellationError

SWITCH_RADIUS = 8.0

_C1_HI = 0.3550280538878172        # Ai(0) = 3^(-2/3)/Gamma(2/3)
_C1_LO = 2.05233632436212e-17
_C2_HI = 0.2588194037928068        # -Ai'(0) = 3^(-1/3)/Gamma(1/3)
_C2_LO = -2.522243111610832e-17
_SQRT3_HI = 1.7320508075688772
_SQRT3_LO = 1.0035084221806903e-16

_TWO_PI_3 = 2.0 * math.pi / 3.0
_ROT_P = complex(-0.5, +0.8660254037844386467637232)   # e^{+2pi i/3}
_ROT_M = complex(-0.5, -0.8660254037844386467637232)   # e^{-2pi i/3}
_EIP6 = cmath.exp(1j * math.pi / 6)
_EXP_LIMIT = 700.0

_HALF_SQRT_PI = 0.5 / math.sqrt(math.pi)


@dataclass(frozen=True)
class AiryQuad:
    """Ai, Ai', Bi, Bi' at one complex point."""

    ai: complex
    aip: complex
    bi: complex
    bip: complex

    def wronskian_error(self) -> float:
        """Relative deviation of Ai*Bi' - Ai'*Bi from its exact value 1/pi."""
        return abs((self.ai * self.bip - self.aip * self.bi) * math.pi - 1.0)


# ---------------------------------------------------------------------------
# Maclaurin regime
# ---------------------------------------------------------------------------

def _fixed(x: float, bits: int) -> int:
    """floor(x * 2^bits); exact once 2^bits covers the binary fraction of x."""
    num, den = x.as_integer_ratio()
    return (num << bits) // den


# c1, c2 and sqrt(3) as 128-bit fixed-point integers; every _HI/_LO part has
# a binary fraction of at most 108 bits, so each constant is the exact sum
_CONST_BITS = 128
_C1 = _fixed(_C1_HI, _CONST_BITS) + _fixed(_C1_LO, _CONST_BITS)
_C2 = _fixed(_C2_HI, _CONST_BITS) + _fixed(_C2_LO, _CONST_BITS)
_SQRT3 = _fixed(_SQRT3_HI, _CONST_BITS) + _fixed(_SQRT3_LO, _CONST_BITS)

_SERIES_BITS = 128     # fraction bits of the sums below min(1, |z|)
_TAIL_BITS = 120       # stop once both next terms are below 2^-120 of the peak
# c2 is good to 2^-107, so c1 f -/+ c2 g may cancel at most this many bits
# and still leave 1e-15 of max(|X|, |X'|)
_CANCEL_BITS = 54


def _to_complex(re: int, im: int, bits: int) -> complex:
    """(re + i im) / 2^bits, each part correctly rounded to double."""
    den = 1 << bits
    return complex(re / den, im / den)


def series_quad(z: complex, max_terms: int = 250) -> AiryQuad:
    """Maclaurin evaluation in fixed-point integers, intended for |z| <= ~9.

    Ai = c1 f - c2 g and Bi = sqrt(3) (c1 f + c2 g), where f and g are the
    standard even/odd-type entire solutions of w'' = z w with f(0) = g'(0) = 1.
    z enters exactly as a pair of integers over 2^p, with 2^-p at least 128
    bits below min(1, |z|), and z^3 is formed once.  Each term step
    t_{k+1} = t_k z^3 / ((3k+2)(3k+3)) (and (3k+3)(3k+4) for g) is an
    integer multiply and a floor divide, and f, g, z f', z g' are summed
    exactly until the next terms fall below 2^-120 of the largest one.
    Combined with c1, c2 and sqrt(3) as 128-bit integers, each output is
    rounded to double once; the derivatives are then divided by z in double.

    Raises DomainError for a non-finite z, OverflowSignal when the series
    does not converge within ``max_terms`` terms or a result exceeds the
    double range, and SeriesCancellationError when, outside |z| <= 8, the
    largest term or sum exceeds max(|X|, |X'|) by more than 2^54, where the
    ~107-bit constants can no longer meet 1e-15 of it (from |z| ~ 9 on the
    positive real axis).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Airy series requires a finite argument, got {z!r}")
    if z == 0:
        ai = complex(_C1_HI + _C1_LO)
        aimp = complex(-(_C2_HI + _C2_LO))
        sq3 = _SQRT3_HI + _SQRT3_LO
        return AiryQuad(ai, aimp, sq3 * ai, -sq3 * aimp)

    if abs(z) >= (3 * max_terms) ** (2 / 3):
        # every term ratio |z|^3 / ((3k+2)(3k+3)) up to k = max_terms is >= 1
        raise OverflowSignal(
            f"Airy Maclaurin series cannot converge in {max_terms} terms at z = {z!r}")

    e = -math.frexp(abs(z))[1]               # 2^e |z| lies in [1/2, 1)
    (nr, dr), (ni, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    p = max(_SERIES_BITS + max(e, 0), dr.bit_length() - 1, di.bit_length() - 1)
    zr, zi = (nr << p) // dr, (ni << p) // di
    zr2, zi2 = zr * zr - zi * zi, 2 * zr * zi
    cr = (zr2 * zr - zi2 * zi) >> (2 * p)            # z^3 over 2^p
    ci = (zr2 * zi + zi2 * zr) >> (2 * p)

    tfr, tfi = 1 << p, 0
    tgr, tgi = zr, zi
    fr = fi = gr = gi = 0
    sfr = sfi = sgr = sgi = 0    # sums of the partial sums before the last
    scale = max(tfr, abs(tgr) + abs(tgi))
    tol = scale >> _TAIL_BITS
    for k in range(max_terms):
        sfr += fr
        sfi += fi
        sgr += gr
        sgi += gi
        fr += tfr
        fi += tfi
        gr += tgr
        gi += tgi
        k3 = 3 * k
        m = (k3 + 2) * (k3 + 3)
        tfr, tfi = ((tfr * cr - tfi * ci) >> p) // m, ((tfr * ci + tfi * cr) >> p) // m
        m = (k3 + 3) * (k3 + 4)
        tgr, tgi = ((tgr * cr - tgi * ci) >> p) // m, ((tgr * ci + tgi * cr) >> p) // m
        mf = abs(tfr) + abs(tfi)
        mg = abs(tgr) + abs(tgi)
        if mf < tol and mg < tol:
            break
        if mf > scale:
            scale = mf
            tol = scale >> _TAIL_BITS
        if mg > scale:
            scale = mg
            tol = scale >> _TAIL_BITS
    else:
        raise OverflowSignal(
            f"Airy Maclaurin series not converged in {max_terms} terms at z = {z!r}")

    # z f' = sum 3k tf_k and z g' = sum (3k+1) tg_k, from the partial sums
    # S_j through sum_{j<=k} j t_j = k S_k - sum_{j<k} S_j
    fdr, fdi = 3 * (k * fr - sfr), 3 * (k * fi - sfi)
    gdr, gdi = 3 * (k * gr - sgr) + gr, 3 * (k * gi - sgi) + gi
    # both are divided by z after scaling by 2^e, which leaves the double
    # quotient unchanged but keeps tiny |z| from underflowing
    zs = complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
    q = p + _CONST_BITS
    try:
        ai = _to_complex(_C1 * fr - _C2 * gr, _C1 * fi - _C2 * gi, q)
        aip = _to_complex(_C1 * fdr - _C2 * gdr, _C1 * fdi - _C2 * gdi, q - e) / zs
        q += _CONST_BITS
        bi = _to_complex(_SQRT3 * (_C1 * fr + _C2 * gr),
                         _SQRT3 * (_C1 * fi + _C2 * gi), q)
        bip = _to_complex(_SQRT3 * (_C1 * fdr + _C2 * gdr),
                          _SQRT3 * (_C1 * fdi + _C2 * gdi), q - e) / zs
    except OverflowError:
        raise OverflowSignal(f"Airy Maclaurin result overflows at z = {z!r}") from None
    # inside the disk the loss below stays under 2^45 (measured), so only
    # direct calls beyond it pay for the check
    if abs(z) > SWITCH_RADIUS:
        # log2 of the largest term or sum (f, g over 2^p; z f', z g' times
        # 2^e ~ 1/|z|) over the smaller of max(|Ai|, |Ai'|), max(|Bi|, |Bi'|)
        top = max(scale.bit_length(),
                  max(abs(fr), abs(fi), abs(gr), abs(gi)).bit_length(),
                  max(abs(fdr), abs(fdi), abs(gdr), abs(gdi)).bit_length() + e) - p
        keep = min(max(abs(ai), abs(aip)), max(abs(bi), abs(bip)))
        if keep == 0.0 or top - math.frexp(keep)[1] > _CANCEL_BITS:
            raise SeriesCancellationError(
                f"Airy Maclaurin series cancels more than {_CANCEL_BITS} bits "
                f"at z = {z!r}, more than its constants allow")
    return AiryQuad(ai, aip, bi, bip)


# ---------------------------------------------------------------------------
# asymptotic regime
# ---------------------------------------------------------------------------

def _ai_poincare(z: complex):
    """(Ai, Ai') from the large-|z| expansion; caller keeps |arg z| <= 2pi/3.

    Truncated at the smallest term (superasymptotic), which leaves a relative
    error ~ exp(-4/3 |z|^{3/2}); below 1e-11 for |z| >= 7.
    """
    sz = cmath.sqrt(z)
    zeta = (2.0 / 3.0) * z * sz
    if -zeta.real > _EXP_LIMIT:
        raise OverflowSignal(f"Airy asymptotics overflow at z = {z!r}")
    x = -1.0 / zeta
    su = complex(1.0)
    sv = complex(1.0)
    u = 1.0
    xk = complex(1.0)
    t_prev = 1.0
    k = 1
    while k < 200:
        u *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        xk *= x
        tu = u * xk
        if abs(tu) >= t_prev:
            break
        su += tu
        sv += tu * (6 * k + 1) / (1 - 6 * k)
        t_prev = abs(tu)
        k += 1
    z14 = cmath.exp(0.25 * cmath.log(z))
    pref = _HALF_SQRT_PI * cmath.exp(-zeta)
    return pref / z14 * su, -pref * z14 * sv


def asymptotic_quad(z: complex) -> AiryQuad:
    """Large-|z| evaluation with sector-dependent connection formulas."""
    z = complex(z)
    th = cmath.phase(z)
    if abs(th) <= _TWO_PI_3:
        ai, aip = _ai_poincare(z)
        if th >= 0.0:
            rot, pre, sgn = _ROT_M, 2.0 * _EIP6.conjugate(), 1j
        else:
            rot, pre, sgn = _ROT_P, 2.0 * _EIP6, -1j
        ar, arp = _ai_poincare(z * rot)
        bi = sgn * ai + pre * ar
        bip = sgn * aip + pre * rot * arp
    else:
        a1, a1p = _ai_poincare(z * _ROT_P)
        a2, a2p = _ai_poincare(z * _ROT_M)
        ai = -_ROT_P * a1 - _ROT_M * a2
        aip = -_ROT_P * _ROT_P * a1p - _ROT_M * _ROT_M * a2p
        bi = _EIP6 * a1 + _EIP6.conjugate() * a2
        bip = _EIP6 * _ROT_P * a1p + _EIP6.conjugate() * _ROT_M * a2p
    return AiryQuad(ai, aip, bi, bip)


def airy_quad(z: complex) -> AiryQuad:
    """Ai, Ai', Bi, Bi' at a complex point.

    Relative accuracy is ~1e-13 for |z| <= 20 in every sector.  Raises
    DomainError for a non-finite z, and OverflowSignal once the dominant
    solution exceeds the double range (2/3 Re z^{3/2} beyond ~700).
    """
    z = complex(z)
    if not (cmath.isfinite(z)):
        raise DomainError(f"airy_quad requires a finite argument, got {z!r}")
    if abs(z) <= SWITCH_RADIUS:
        return series_quad(z)
    return asymptotic_quad(z)

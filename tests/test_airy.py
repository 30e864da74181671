"""Tests for the complex Airy engine."""

import cmath
import math
import random

import mpmath
import pytest
import scipy.special

from coulwkb.airy import (
    SWITCH_RADIUS,
    airy_quad,
    asymptotic_quad,
    series_quad,
)
from coulwkb.errors import (
    CoulwkbError,
    DomainError,
    OverflowSignal,
    SeriesCancellationError,
)

# Ai(0) and the 40-term Maclaurin oracle at z = 1, both evaluated at 60
# digits before freezing
AI_ZERO = 0.3550280538878172392600631860
AI_ONE = 0.1352924163128814155241474235
AIP_ONE = -0.1591474412967932127875002525
BI_ONE = 1.2074235949528712594363788170
BIP_ONE = 0.9324359333927756329594514537


def _relerr(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestSpotValues:
    def test_ai_origin(self):
        assert _relerr(airy_quad(0).ai, AI_ZERO) < 1e-15

    def test_series_oracle_at_one(self):
        q = airy_quad(1.0)
        assert _relerr(q.ai, AI_ONE) < 1e-14
        assert _relerr(q.aip, AIP_ONE) < 1e-14
        assert _relerr(q.bi, BI_ONE) < 1e-14
        assert _relerr(q.bip, BIP_ONE) < 1e-14

    def test_wronskian_spot(self):
        q = airy_quad(1.7 + 0.3j)
        assert q.wronskian_error() < 1e-13


class TestSeriesAgainstMpmath:
    """The Maclaurin series against mpmath's Airy functions at 40 digits."""

    @staticmethod
    def _points():
        rng = random.Random(11)
        pts = [cmath.rect(SWITCH_RADIUS * math.sqrt(rng.random()),
                          rng.uniform(-math.pi, math.pi)) for _ in range(120)]
        pts += [complex(rng.uniform(-SWITCH_RADIUS, SWITCH_RADIUS), 0.0)
                for _ in range(25)]
        pts += [complex(0.0, rng.uniform(-SWITCH_RADIUS, SWITCH_RADIUS))
                for _ in range(25)]
        pts += [cmath.rect(10.0 ** rng.uniform(-12, -3),
                           rng.uniform(-math.pi, math.pi)) for _ in range(25)]
        pts += [complex(1e-200, -1e-200), 1e-310, -5e-324j]   # z f' below the double range
        pts += [SWITCH_RADIUS * cmath.exp(1j * math.radians(d))
                for d in range(0, 360, 10)]
        return pts

    def test_disk(self):
        with mpmath.workdps(40):
            for z in self._points():
                q = series_quad(z)
                w = mpmath.mpc(z.real, z.imag)
                for (x, xp), fn in (((q.ai, q.aip), mpmath.airyai),
                                    ((q.bi, q.bip), mpmath.airybi)):
                    ref, refp = fn(w), fn(w, 1)
                    scale = max(abs(ref), abs(refp))
                    assert abs(x - ref) <= 1e-15 * scale, z
                    assert abs(xp - refp) <= 1e-15 * scale, z

    def test_beyond_disk_accurate_or_typed_error(self):
        # past SWITCH_RADIUS the cancellation in c1 f -/+ c2 g outgrows the
        # constants: every value returned must still meet the oracle, and
        # every refusal must be a typed error
        rng = random.Random(23)
        pts = [cmath.rect(rng.uniform(SWITCH_RADIUS, 30.0),
                          rng.uniform(-math.pi, math.pi)) for _ in range(60)]
        pts += [complex(r, 0.0) for r in (8.5, 9.0, 9.5, 10.0, 11.0, 12.0,
                                          14.0, 20.0, 30.0)]
        pts += [complex(-r, 0.0) for r in (9.0, 12.0, 20.0, 30.0)]
        returned = 0
        with mpmath.workdps(40):
            for z in pts:
                try:
                    q = series_quad(z)
                except CoulwkbError:
                    continue
                returned += 1
                w = mpmath.mpc(z.real, z.imag)
                for (x, xp), fn in (((q.ai, q.aip), mpmath.airyai),
                                    ((q.bi, q.bip), mpmath.airybi)):
                    ref, refp = fn(w), fn(w, 1)
                    scale = max(abs(ref), abs(refp))
                    assert abs(x - ref) <= 1e-15 * scale, z
                    assert abs(xp - refp) <= 1e-15 * scale, z
        assert 0 < returned < len(pts)

    @pytest.mark.parametrize("z", [30.0, 14.0, -25.0, complex(12.5, 21.65)])
    def test_cancellation_refused(self, z):
        with pytest.raises(SeriesCancellationError):
            series_quad(z)


class TestAgainstScipy:
    """scipy's Airy (Amos) is an independent implementation."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_disk_20(self, seed):
        rng = random.Random(seed)
        for _ in range(120):
            z = cmath.rect(rng.uniform(0.05, 20.0),
                           rng.uniform(-math.pi, math.pi))
            q = airy_quad(z)
            ra, rap, rb, rbp = scipy.special.airy(z)
            assert _relerr(q.ai, ra) < 1e-10
            assert _relerr(q.aip, rap) < 1e-10
            assert _relerr(q.bi, rb) < 1e-10
            assert _relerr(q.bip, rbp) < 1e-10


class TestInvariants:
    def test_wronskian_100_points(self):
        # the identity is checked where the bilinear form is representable:
        # in growing sectors |Ai*Bi'| ~ exp(2|Re zeta|) and no double-
        # precision quad can cancel that to 1/pi below eps*|Ai*Bi'|
        rng = random.Random(7)
        kept = 0
        while kept < 100:
            z = cmath.rect(rng.uniform(0.1, 15.0),
                           rng.uniform(-math.pi, math.pi))
            q = airy_quad(z)
            if (abs(q.ai * q.bip) + abs(q.aip * q.bi)) * math.pi > 1e4:
                continue
            kept += 1
            assert abs(q.ai * q.bip - q.aip * q.bi - 1 / math.pi) <= 1e-11

    def test_wronskian_scaled_everywhere(self):
        # at ill-conditioned points the identity still holds relative to
        # the size of its terms
        rng = random.Random(8)
        for _ in range(100):
            z = cmath.rect(rng.uniform(0.1, 15.0),
                           rng.uniform(-math.pi, math.pi))
            q = airy_quad(z)
            scale = abs(q.ai * q.bip) + abs(q.aip * q.bi) + 1 / math.pi
            assert abs(q.ai * q.bip - q.aip * q.bi - 1 / math.pi) <= 1e-13 * scale

    def test_real_axis_reality(self):
        for x in [-14.0, -8.5, -3.0, -0.7, 0.4, 2.0, 7.7, 13.0]:
            q = airy_quad(complex(x, 0.0))
            for v in (q.ai, q.aip, q.bi, q.bip):
                assert abs(v.imag) <= 1e-13 * abs(v.real)

    def test_derivative_consistency(self):
        h = 1e-5
        for z in (1.3 + 0.4j, -2.0 + 1.0j, 4.0 - 3.0j, -6.0 - 0.5j):
            qp = airy_quad(z + h)
            qm = airy_quad(z - h)
            q0 = airy_quad(z)
            scale = max(abs(q0.ai), abs(q0.aip), 1.0)
            fd = (qp.ai - qm.ai) / (2 * h)
            assert abs(fd - q0.aip) <= 1e-8 * scale
            fdb = (qp.bi - qm.bi) / (2 * h)
            scale_b = max(abs(q0.bi), abs(q0.bip), 1.0)
            assert abs(fdb - q0.bip) <= 1e-8 * scale_b

    def test_series_asymptotic_seam(self):
        for deg in range(0, 360, 5):
            z = SWITCH_RADIUS * cmath.exp(1j * math.radians(deg))
            qs = series_quad(z)
            qa = asymptotic_quad(z)
            for name in ("ai", "aip", "bi", "bip"):
                assert _relerr(getattr(qs, name), getattr(qa, name)) <= 1e-9


class TestOverflow:
    def test_overflow_signal(self):
        with pytest.raises(OverflowSignal):
            airy_quad(complex(120.0, 0.0))

    @pytest.mark.parametrize("z", [1e6, 1e6j, complex(1e308, -1e308), 60.0])
    def test_series_not_converging(self, z):
        # beyond the disk the terms are still growing at max_terms
        with pytest.raises(OverflowSignal):
            series_quad(z)

    def test_series_result_overflow(self):
        # converges with enough terms, but Bi(110) ~ 1e332 is no double
        with pytest.raises(OverflowSignal):
            series_quad(110.0, max_terms=2000)

    def test_large_but_representable(self):
        q = airy_quad(80.0)          # Bi(80) ~ 1e206, still a double
        assert math.isfinite(q.bi.real) and q.bi.real > 1e200


class TestNonFinite:
    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                   complex(-math.inf, 1.0)])
    def test_domain_error(self, z):
        with pytest.raises(DomainError):
            airy_quad(z)
        with pytest.raises(DomainError):
            series_quad(z)

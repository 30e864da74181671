"""Tests for turning geometry, the phase map and the WKB evaluation."""

import cmath
import math
import random

import pytest
from scipy.integrate import quad

from coulwkb.errors import (
    BranchAmbiguityError,
    ConditioningError,
    DomainError,
)
from coulwkb.exactref import exact_quad
from coulwkb.wkbcore import (
    ComplexParams,
    CoulombQuad,
    h_from_quad,
    phi_jet,
    phi_residual,
    series_threshold,
    turning_geometry,
    wkb_quad,
)

RT_106 = 10.0 + math.sqrt(106.0)

# arbitrary-precision oracle for (l, eta, rho) = (2+i, 10+i, 10 e^{i pi/4})
RHO_T_CPLX = complex(20.270409200459452451837629485506523275,
                     2.217088799094860365169456963712658869)
A_CPLX = complex(0.014339920618455948652192597202862829607,
                 0.009141202818321609934927753743892382562)
X_CPLX = complex(-0.617583641319777377675227518162611344050,
                 0.307009923919239609011515393140554183411)


class TestComplexParams:
    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            ComplexParams(0, 0, 0)

    def test_rejects_cut_ray(self):
        with pytest.raises(DomainError):
            ComplexParams(0, 0, -3.0)

    def test_rejects_bad_omega(self):
        with pytest.raises(DomainError):
            ComplexParams(0, 0, 1.0, omega=2)

    def test_accepts_positive_axis_and_complex(self):
        ComplexParams(2, 10, 5.0)
        ComplexParams(2j, 10, -3.0 + 0.001j)

    @pytest.mark.parametrize("field", ["ell", "eta", "rho"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_rejects_non_finite(self, field, bad):
        args = {"ell": 2.0, "eta": 10.0, "rho": 5.0, field: bad}
        with pytest.raises(DomainError):
            ComplexParams(**args)

    def test_exact_quad_non_finite_eta_is_domain_error(self):
        # a non-finite eta stops at the parameter check, before the exact
        # backend's recurrences can run away on it
        for eta in (math.nan, math.inf):
            with pytest.raises(DomainError):
                exact_quad(ComplexParams(2.0, eta, 5.0))


class TestTurningGeometry:
    def test_trivial_l0(self):
        g = turning_geometry(ComplexParams(0, 10, 20))
        assert g.rho_t == 20.0
        assert g.a == 0.0
        assert g.x == 0.0

    def test_derived_real(self):
        g = turning_geometry(ComplexParams(2, 10, 10))
        assert g.rho_t == pytest.approx(RT_106, rel=1e-15)
        assert g.a == pytest.approx(6.0 / RT_106 ** 2, rel=1e-13)
        assert g.x == pytest.approx(10.0 / RT_106 - 1.0, rel=1e-14)

    def test_complex_oracle(self):
        p = ComplexParams(2 + 1j, 10 + 1j, 10 * cmath.exp(0.25j * math.pi))
        g = turning_geometry(p)
        assert abs(g.rho_t - RHO_T_CPLX) < 1e-13 * abs(RHO_T_CPLX)
        assert abs(g.a - A_CPLX) < 1e-12 * abs(A_CPLX)
        assert abs(g.x - X_CPLX) < 1e-13 * abs(X_CPLX)

    @pytest.mark.parametrize("ell,eta", [(2, 10), (0.5, 3), (2 + 1j, 10 + 1j),
                                         (1 - 0.5j, 4 + 2j)])
    def test_root_and_a_invariants(self, ell, eta):
        p = ComplexParams(ell, eta, 7.0 + 1.0j)
        g = turning_geometry(p)
        ll1 = complex(ell) * (complex(ell) + 1)
        root = g.rho_t ** 2 - 2 * complex(eta) * g.rho_t - ll1
        assert abs(root) <= 1e-12 * abs(g.rho_t) ** 2
        assert abs(g.a - ll1 / g.rho_t ** 2) <= 1e-12 * max(abs(g.a), 1e-6)
        assert abs((1 + g.x) - p.rho / g.rho_t) <= 1e-14 * abs(1 + g.x)

    def test_real_params_give_outer_turning_point(self):
        for ell, eta in [(0, 1), (2, 10), (7, 0.3)]:
            g = turning_geometry(ComplexParams(ell, eta, 1.0))
            assert g.rho_t.real > 0 and g.rho_t.imag == 0
            assert 0 <= g.a.real < 1 and g.a.imag == 0

    def test_sqrt_cut_ambiguity(self):
        # eta^2 + l(l+1) < 0: pure imaginary eta with l = 0
        with pytest.raises(BranchAmbiguityError):
            turning_geometry(ComplexParams(0, 2j, 1.0))


def _quad_action_right(x, a):
    val, err = quad(lambda t: math.sqrt(t / (t + 1) + a * t / (t + 1) ** 2),
                    0.0, x, epsabs=1e-14, epsrel=1e-14, limit=300)
    return val


def _quad_action_left(x, a):
    val, err = quad(lambda t: math.sqrt(t / (1 - t) + a * t / (1 - t) ** 2),
                    0.0, -x, epsabs=1e-14, epsrel=1e-14, limit=300)
    return val


class TestPhiJet:
    def test_jet_at_origin(self):
        for a in (0.0, 0.2, 0.7):
            jet = phi_jet(0.0, a)
            b = (1 + a) ** (1.0 / 3.0)
            assert jet.phi == 0.0
            assert jet.dphi == pytest.approx(b, rel=1e-14)
            assert jet.d2phi == pytest.approx(-2 * (1 + 2 * a) * (1 + a) ** (-2 / 3) / 5,
                                              rel=1e-13)

    def test_closed_form_a0_x3(self):
        # (2/3) phi^{3/2} = sqrt(12) - log(sqrt(3) + 2), cross-checked by
        # 40-digit quadrature of the defining integral before freezing
        jet = phi_jet(3.0, 0.0)
        s = 2.0 / 3.0 * jet.phi ** 1.5
        assert abs(s - 2.147143718212937878429846335703776290) < 1e-14 * 2.15

    def test_closed_form_second_region_oracle(self):
        jet = phi_jet(-0.5, 0.2)
        s = 2.0 / 3.0 * (-jet.phi) ** 1.5
        assert abs(s - 0.325429568370546525153055746627445484) < 1e-13

    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("a", [0.0, 0.05, 0.3, 0.7])
    def test_quadrature_oracle_right(self, a):
        for x in (0.02, 0.4, 1.0, 3.7, 12.0):
            jet = phi_jet(complex(x), complex(a))
            s = (2.0 / 3.0 * jet.phi ** 1.5).real
            ref = _quad_action_right(x, a)
            assert abs(s - ref) <= 1e-10 * max(ref, 1e-3)

    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("a", [0.0, 0.05, 0.3, 0.7])
    def test_quadrature_oracle_left(self, a):
        for x in (-0.02, -0.3, -0.6, -0.95):
            jet = phi_jet(complex(x), complex(a))
            s = (2.0 / 3.0 * (-jet.phi) ** 1.5).real
            ref = _quad_action_left(x, a)
            assert abs(s - ref) <= 1e-10 * max(ref, 1e-3)

    def test_phase_map_equation(self):
        for a in (0.0, 0.05, 0.3):
            for x in [-0.95, -0.5, -0.05, -0.002, 0.002, 0.05, 0.5, 2.0, 20.0]:
                jet = phi_jet(complex(x), complex(a))
                r = x / (x + 1) + a * x / (x + 1) ** 2
                assert abs(jet.dphi ** 2 * jet.phi - r) <= 1e-9 * abs(r)

    def test_phase_map_equation_complex(self):
        jet = phi_jet(X_CPLX, A_CPLX)
        r = X_CPLX / (X_CPLX + 1) + A_CPLX * X_CPLX / (X_CPLX + 1) ** 2
        assert abs(jet.dphi ** 2 * jet.phi - r) <= 1e-9 * abs(r)

    def test_derivatives_self_consistent(self):
        h = 1e-4
        for (x, a) in [(0.7, 0.2), (-0.4, 0.05), (2.5 + 0.8j, A_CPLX),
                       (-0.6 + 0.3j, A_CPLX)]:
            jp, jm, j0 = phi_jet(x + h, a), phi_jet(x - h, a), phi_jet(x, a)
            fd1 = (jp.phi - jm.phi) / (2 * h)
            assert abs(fd1 - j0.dphi) <= 1e-6 * abs(j0.dphi)
            fd2 = (jp.phi - 2 * j0.phi + jm.phi) / h ** 2
            assert abs(fd2 - j0.d2phi) <= 1e-5 * max(abs(j0.d2phi), 0.1)

    def test_a_to_zero_continuity(self):
        for x in (-0.9, -0.3, 0.4, 2.0, 10.0):
            j0 = phi_jet(complex(x), 0.0)
            j1 = phi_jet(complex(x), 1e-8)
            assert abs(j0.phi - j1.phi) <= 1e-6 * abs(j0.phi)
            assert abs(j0.dphi - j1.dphi) <= 1e-6 * abs(j0.dphi)

    def test_series_seam(self):
        from coulwkb.wkbcore import _phi_jet_left, _phi_jet_right, _phi_jet_series
        for a in (0.0, 0.05, 0.3):
            t = series_threshold(complex(a))
            for x, closed in ((complex(t), _phi_jet_right),
                              (complex(-t), _phi_jet_left)):
                js = _phi_jet_series(x, complex(a))
                jc = closed(x, complex(a), 0, 0, 0, 0)[0]
                assert abs(js.phi - jc.phi) <= 1e-7 * abs(jc.phi)
                assert abs(js.dphi - jc.dphi) <= 1e-7 * abs(jc.dphi)

    def test_coordinate_singularity(self):
        with pytest.raises(DomainError):
            phi_jet(-1.0, 0.1)


class TestPhiResidual:
    def test_magnitude_bound(self):
        res = phi_residual(1.0, 0.0, 20.0)
        assert abs(res) <= 10.0 / 400.0

    def test_reduces_to_first_order_equation(self):
        # dropping the rho_t^{-2} terms must leave a ~1e-9 residual
        x, a = 1.0, 0.15
        jet = phi_jet(x, a)
        r = x / (x + 1) + a * x / (x + 1) ** 2
        assert abs(jet.dphi ** 2 * jet.phi - r) <= 1e-9 * abs(r)

    @pytest.mark.parametrize("x,a", [(1.0, 0.0), (0.5, 0.2), (-0.5, 0.1)])
    def test_inverse_square_scaling(self, x, a):
        r1 = phi_residual(x, a, 20.0)
        r2 = phi_residual(x, a, 40.0)
        assert 3.9 <= abs(r1) / abs(r2) <= 4.1

    def test_conditioning_guard_near_turning_point(self):
        with pytest.raises(ConditioningError):
            phi_residual(1e-4, 0.1, 20.0)


class TestWkbQuad:
    def test_three_percent_example(self):
        p = ComplexParams(2, 10, 10)
        qw = wkb_quad(p)
        qe = exact_quad(p)
        assert abs(qw.f - qe.f) <= 0.03 * abs(qe.f)

    def test_wronskian_real_set(self):
        rng = random.Random(11)
        for _ in range(50):
            rho = rng.uniform(1.0, 60.0)
            q = wkb_quad(ComplexParams(2, 10, rho))
            assert q.wronskian_error() <= 1e-10

    def test_wronskian_complex_set(self):
        rng = random.Random(12)
        for _ in range(50):
            rho = rng.uniform(2.0, 8.0) * cmath.exp(0.25j * math.pi)
            q = wkb_quad(ComplexParams(2 + 1j, 10 + 1j, rho))
            assert q.wronskian_error() <= 1e-10

    def test_sine_cosine_amplitude_limit(self):
        # |F|^2 + |G|^2 = 1/sqrt(R(x)) -> 1 far outside the turning point
        devs = []
        for mult in (8.0, 20.0, 50.0):
            q = wkb_quad(ComplexParams(0, 10, 20.0 * mult))
            devs.append(abs(abs(q.f) ** 2 + abs(q.g) ** 2 - 1.0))
        assert devs[0] < 0.1
        assert devs[2] < 0.015
        assert devs[0] > devs[1] > devs[2]

    def test_derivative_consistency(self):
        p = ComplexParams(2, 10, 27.0)
        g = turning_geometry(p)
        h = 1e-5 * abs(g.rho_t)
        qp = wkb_quad(ComplexParams(2, 10, 27.0 + h))
        qm = wkb_quad(ComplexParams(2, 10, 27.0 - h))
        q0 = wkb_quad(p)
        fd = (qp.f - qm.f) / (2 * h)
        assert abs(fd - q0.fp) <= 1e-5 * max(abs(q0.fp), abs(q0.f))
        fdg = (qp.g - qm.g) / (2 * h)
        assert abs(fdg - q0.gp) <= 1e-5 * max(abs(q0.gp), abs(q0.g))


class TestHFromQuad:
    def test_unit_g(self):
        q = CoulombQuad(f=0.0, fp=0.0, g=1.0, gp=0.0)
        assert h_from_quad(q, 1)[0] == 1.0
        assert h_from_quad(q, -1)[0] == 1.0

    def test_free_field_phase(self):
        rho = 1.3
        q = CoulombQuad(f=math.sin(rho), fp=math.cos(rho),
                        g=math.cos(rho), gp=-math.sin(rho))
        h, hp = h_from_quad(q, 1)
        assert abs(h - cmath.exp(1j * rho)) < 1e-15
        h, hp = h_from_quad(q, -1)
        assert abs(h - cmath.exp(-1j * rho)) < 1e-15

    def test_round_trip(self):
        q = CoulombQuad(f=0.3 - 0.2j, fp=1.1 + 0.4j, g=-0.7 + 0.9j, gp=0.2j)
        hp_, hpd = h_from_quad(q, 1)
        hm_, hmd = h_from_quad(q, -1)
        # the round trip is exact linear algebra; floating point rounds the
        # last bit of the +/- recombination
        assert abs((hp_ + hm_) / 2 - q.g) <= 2e-16 * abs(q.g)
        assert abs((hpd + hmd) / 2 - q.gp) <= 2e-16 * abs(q.fp)
        assert abs((hp_ - hm_) / 2j - q.f) <= 2e-16 * abs(q.f)
        assert abs((hpd - hmd) / 2j - q.fp) <= 2e-16 * abs(q.fp)

    def test_omega_validation(self):
        q = CoulombQuad(f=0.0, fp=0.0, g=1.0, gp=0.0)
        with pytest.raises(DomainError):
            h_from_quad(q, 0)

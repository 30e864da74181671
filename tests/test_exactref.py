"""Tests for the exact backend: series, asymptotics, ODE, combiner."""

import cmath
import math
import time

import pytest

from coulwkb.errors import (
    AsymptoticFailureError,
    ConvergenceError,
    CoulwkbError,
    DomainError,
    OverflowSignal,
    PathError,
    PoleError,
)
from coulwkb.exactref import (
    exact_quad,
    exact_quad_grid,
    f_series,
    h_asymptotic,
    norm_constants,
    ode_propagate,
)
from coulwkb.wkbcore import ComplexParams, CoulombQuad

RAY = cmath.exp(0.25j * math.pi)

# 50-digit oracle values (series summation at high precision, frozen):
F_2_10_5 = 1.0086381843007092649831297339225672251541858614728e-06
FP_2_10_5 = 1.8869019709009678362176658892697620263555887117e-06
# exact values at rho = 10 for the same (l, eta), used as spot oracles
F_2_10_10 = 1.1894300928963839847507404010586208527484089671418e-03
G_2_10_10 = 408.76469854573667880218082123427957324336065875752


class TestNormConstants:
    def test_free_field(self):
        nc = norm_constants(0, 0)
        assert nc.c_l == pytest.approx(1.0, rel=1e-14)
        assert abs(nc.sigma_l) < 1e-14

    def test_l1_eta0(self):
        # C_1(0) = 2 Gamma(2)/Gamma(4) = 1/3
        nc = norm_constants(1, 0)
        assert nc.c_l == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_gamow_closed_form(self):
        # C_0(1)^2 = 2 pi / (e^{2 pi} - 1), from |Gamma(1+i)|^2 = pi/sinh(pi)
        nc = norm_constants(0, 1)
        ref = 2 * math.pi / (math.exp(2 * math.pi) - 1.0)
        assert (nc.c_l ** 2).real == pytest.approx(ref, rel=1e-13)

    def test_real_params_reality_and_positivity(self):
        for ell, eta in [(0, 1), (2, 10), (5, 0.2)]:
            nc = norm_constants(ell, eta)
            assert nc.c_l.imag == 0.0
            assert nc.c_l.real > 0.0
            assert nc.sigma_l.imag == 0.0

    def test_sigma_zero_at_eta_zero(self):
        for ell in (0, 1, 2.5):
            assert abs(norm_constants(ell, 0).sigma_l) < 1e-14

    def test_pole_error(self):
        with pytest.raises(PoleError):
            norm_constants(-1.0, 0.0)     # 2l + 2 = 0


class TestFSeries:
    def test_free_field(self):
        f, fp, diag = f_series(ComplexParams(0, 0, 1.3))
        assert f == pytest.approx(math.sin(1.3), rel=1e-14)
        assert fp == pytest.approx(math.cos(1.3), rel=1e-13)
        assert diag.converged

    def test_omega_invariance(self):
        f1, fp1, _ = f_series(ComplexParams(2, 10, 5, 1))
        f2, fp2, _ = f_series(ComplexParams(2, 10, 5, -1))
        assert abs(f1 - f2) <= 1e-10 * abs(f1)
        assert abs(fp1 - fp2) <= 1e-10 * abs(fp1)

    def test_precision_oracle(self):
        f, fp, diag = f_series(ComplexParams(2, 10, 5))
        assert abs(f - F_2_10_5) <= 1e-13 * F_2_10_5
        assert abs(fp - FP_2_10_5) <= 1e-13 * FP_2_10_5
        assert diag.converged and diag.last_term_ratio <= 1e-15

    def test_radius_guard(self):
        with pytest.raises(ConvergenceError):
            f_series(ComplexParams(2, 10, 200.0))

    def test_cancellation_guard(self):
        # far outside the turning point the oscillatory series loses more
        # than 8 digits and must refuse
        with pytest.raises(ConvergenceError):
            f_series(ComplexParams(0, 0, 45.0))


class TestHAsymptotic:
    def test_free_field(self):
        h, hp, diag = h_asymptotic(ComplexParams(0, 0, 7.0, 1))
        assert h == cmath.exp(7j)
        assert hp == 1j * cmath.exp(7j)
        assert diag.converged

    def test_terminating_series_integer_l(self):
        # eta = 0 and integer l: the expansion terminates after l+1 terms
        h, hp, diag = h_asymptotic(ComplexParams(2, 0, 3.0, 1))
        assert diag.terms_used <= 3
        assert diag.last_term_ratio == 0.0
        # Riccati-Hankel closed form: H+ = e^{i rho} (1 + 3i/rho - 3/rho^2)...
        # cross-check via the Wronskian of the assembled F and G instead
        hm, hmp, _ = h_asymptotic(ComplexParams(2, 0, 3.0, -1))
        f, fp = (h - hm) / 2j, (hp - hmp) / 2j
        g, gp = (h + hm) / 2, (hp + hmp) / 2
        assert abs(fp * g - f * gp - 1) < 1e-13

    def test_too_small_rho_raises(self):
        with pytest.raises(AsymptoticFailureError):
            h_asymptotic(ComplexParams(2, 10, 8.0, 1))

    def test_matches_series_route_far_out(self):
        # cross-backend: H from the expansion against outward ODE
        # propagation of series values
        f0, fp0, _ = f_series(ComplexParams(2, 10, 30.0))
        prop = ode_propagate(2, 10, 30.0, CoulombQuad(f0, fp0, 0, 0), 60.0)
        h, hp, _ = h_asymptotic(ComplexParams(2, 10, 60.0, 1))
        assert abs(prop.f - h.imag) <= 1e-8 * abs(h)


class TestOdePropagate:
    def test_free_field(self):
        start = CoulombQuad(math.sin(1.0), math.cos(1.0),
                            math.cos(1.0), -math.sin(1.0))
        q = ode_propagate(0, 0, 1.0, start, 4.0)
        assert abs(q.f - math.sin(4.0)) <= 1e-10
        assert abs(q.g - math.cos(4.0)) <= 1e-10

    def test_wronskian_drift(self):
        hp_, hpd, _ = h_asymptotic(ComplexParams(2, 10, 60.0, 1))
        hm_, hmd, _ = h_asymptotic(ComplexParams(2, 10, 60.0, -1))
        start = CoulombQuad((hp_ - hm_) / 2j, (hpd - hmd) / 2j,
                            (hp_ + hm_) / 2, (hpd + hmd) / 2)
        q = ode_propagate(2, 10, 60.0, start, 2.0)
        assert q.wronskian_error() <= 1e-9

    def test_round_trip_oscillatory(self):
        # reversibility holds where neither solution collapses under the
        # barrier (propagating the regular solution inward through the deep
        # barrier is the textbook unstable direction and is excluded by
        # design; the combiner never does it)
        f0, fp0, _ = f_series(ComplexParams(2, 10, 25.0))
        hp_, hpd, _ = h_asymptotic(ComplexParams(2, 10, 60.0, 1))
        start = ode_propagate(2, 10, 60.0,
                              CoulombQuad(0, 0, hp_.real, hpd.real), 25.0)
        start = CoulombQuad(f0, fp0, start.g, start.gp)
        out = ode_propagate(2, 10, 25.0, start, 55.0)
        back = ode_propagate(2, 10, 55.0, out, 25.0)
        for name in ("f", "fp", "g", "gp"):
            a, b = getattr(back, name), getattr(start, name)
            assert abs(a - b) <= 1e-9 * max(abs(b), 1.0)

    @pytest.mark.parametrize("ell, eta, arg", [
        (2, 10, 0.0), (2 + 1j, 10 - 1j, 1.2), (2 + 1j, 10 - 1j, -1.2)])
    def test_inward_h_against_mpmath(self, ell, eta, arg):
        # H^w with w = sign Im rho (H+ on the real axis) grows inward, the
        # direction the planner integrates; on the lower ray H+ would decay
        import mpmath as mp

        from coulwkb.exactref import _omega_star
        mp.mp.dps = 30
        unit = cmath.exp(1j * arg)
        om = _omega_star(unit)
        h0, hp0, _ = h_asymptotic(ComplexParams(ell, eta, 50.0 * unit, om))
        mell, meta = mp.mpc(ell), mp.mpc(eta)

        def mp_h(r):
            return (mp.coulombg(mell, meta, r)
                    + 1j * om * mp.coulombf(mell, meta, r))

        for r in (1.0, 5.0, 0.05):
            rho = r * unit
            q = ode_propagate(ell, eta, 50.0 * unit,
                              CoulombQuad(h0, hp0, 0, 0), rho)
            mrho = mp.mpc(rho.real, rho.imag)
            h, hp = complex(mp_h(mrho)), complex(mp.diff(mp_h, mrho))
            scale = max(abs(h), abs(hp))
            assert abs(q.f - h) <= 1e-12 * scale
            assert abs(q.fp - hp) <= 1e-12 * scale

    def test_overflow_is_typed(self):
        # inward through the eta = 300 barrier the solution passes 1e308
        with pytest.raises(OverflowSignal):
            ode_propagate(0, 300, 700.0, CoulombQuad(1, 1, 0, 0), 5.0)

    def test_path_validation(self):
        q = CoulombQuad(1, 0, 0, 1)
        with pytest.raises(PathError):
            ode_propagate(0, 0, -1.0 + 0j, q, 4.0)       # start on cut
        with pytest.raises(PathError):
            ode_propagate(0, 0, -2.0 + 1j, q, -2.0 - 1j)  # crosses cut
        with pytest.raises(PathError):
            ode_propagate(0, 0, 1.0, q, -3.0)             # runs through 0


class TestExactQuad:
    def test_free_field_full_range(self):
        for rho in (0.1, 1.0, 7.0, 19.0, 33.0, 50.0):
            q = exact_quad(ComplexParams(0, 0, rho))
            assert abs(q.f - math.sin(rho)) <= 1e-10
            assert abs(q.fp - math.cos(rho)) <= 1e-10
            assert abs(q.g - math.cos(rho)) <= 1e-10
            assert abs(q.gp + math.sin(rho)) <= 1e-10

    def test_near_turning_point(self):
        q = exact_quad(ComplexParams(2, 10, 20.3))
        assert q.wronskian_error() <= 1e-8
        # F and G of comparable magnitude near the turning point
        assert 0.1 < abs(q.f) / abs(q.g) < 10.0

    def test_spot_oracle_rho10(self):
        q = exact_quad(ComplexParams(2, 10, 10.0))
        assert abs(q.f - F_2_10_10) <= 1e-10 * F_2_10_10
        assert abs(q.g - G_2_10_10) <= 1e-9 * G_2_10_10

    def test_complex_point_dual_route(self):
        # series route for F and the H-chain route must cohere at 1e-7
        p = ComplexParams(2 + 1j, 10 + 1j, 10 * RAY)
        q = exact_quad(p)
        f1, fp1, _ = f_series(p)
        assert abs(q.f - f1) <= 1e-7 * abs(f1)
        assert q.wronskian_error() <= 1e-8

    def test_huge_eta_raises_typed_error(self):
        # the anchor sits at eta^2/5 = 2e5: the step budget runs out (or the
        # state overflows) within seconds instead of hanging or returning nan
        t0 = time.perf_counter()
        with pytest.raises(CoulwkbError):
            exact_quad(ComplexParams(0, 1e3, 1))
        assert time.perf_counter() - t0 < 30.0

    def test_reality_real_params(self):
        for rho in (0.5, 5.0, 15.0, 25.0, 45.0, 60.0):
            q = exact_quad(ComplexParams(2, 10, rho))
            for v in (q.f, q.fp, q.g, q.gp):
                assert abs(v.imag) <= 1e-10 * max(abs(v.real), 1e-300)

    def test_wronskian_along_real_grid(self):
        for rho in (1.0, 4.0, 12.0, 20.3, 28.0, 41.0, 55.0):
            q = exact_quad(ComplexParams(2, 10, rho))
            assert q.wronskian_error() <= 1e-8


class TestBackendOverlap:
    def test_series_vs_chain_overlap(self):
        # where two methods are both valid they agree to 1e-7
        from coulwkb.exactref import _h_inward
        for rho in (22.0, 28.0, 34.0):
            f1, _, _ = f_series(ComplexParams(2, 10, rho))
            h, _ = _h_inward(2.0, 10.0, complex(rho), 1)
            assert abs(f1 - h.imag) <= 1e-7 * abs(f1)

    def test_asym_vs_chain_overlap(self):
        from coulwkb.exactref import _omega_star
        for ell, eta, rho in [(2.0, 10.0, 55.0 + 0j),
                              (2 + 1j, 10 + 1j, 55.0 * RAY)]:
            om = _omega_star(rho)
            h1, _, _ = h_asymptotic(ComplexParams(ell, eta, rho, om))
            anchor = rho * 70.0 / abs(rho)
            h0, hp0, _ = h_asymptotic(ComplexParams(ell, eta, anchor, om))
            prop = ode_propagate(ell, eta, anchor,
                                 CoulombQuad(h0, hp0, 0, 0), rho)
            assert abs(h1 - prop.f) <= 1e-7 * abs(h1)


class TestAgainstMpmath:
    """Spot validation against an independent arbitrary-precision backend."""

    def test_random_complex_parameters(self):
        import random

        import mpmath as mp
        mp.mp.dps = 35
        rng = random.Random(5)
        checked = 0
        for _ in range(10):
            ell = complex(rng.uniform(0, 3), rng.uniform(-1, 1))
            eta = complex(rng.uniform(1, 12), rng.uniform(-1, 1))
            rho = rng.uniform(1.5, 45.0) * cmath.exp(1j * rng.uniform(-2.0, 2.0))
            q = exact_quad(ComplexParams(ell, eta, rho))
            mell = mp.mpc(ell.real, ell.imag)
            meta = mp.mpc(eta.real, eta.imag)
            mrho = mp.mpc(rho.real, rho.imag)
            mf = complex(mp.coulombf(mell, meta, mrho))
            mg = complex(mp.coulombg(mell, meta, mrho))
            assert abs(q.f - mf) <= 1e-9 * abs(mf)
            assert abs(q.g - mg) <= 1e-9 * abs(mg)
            checked += 1
        assert checked == 10


class TestExactQuadGrid:
    def test_matches_pointwise_api(self):
        rhos = [2.0, 9.5, 20.3, 33.0, 47.0, 58.0]
        grid = exact_quad_grid(2, 10, rhos)
        for rho, qg in zip(rhos, grid):
            qp = exact_quad(ComplexParams(2, 10, rho))
            for name in ("f", "g"):
                a, b = getattr(qg, name), getattr(qp, name)
                assert abs(a - b) <= 1e-7 * abs(b)

    def test_complex_ray(self):
        rhos = [(2 + k * 38.0 / 19) * RAY for k in range(20)]
        grid = exact_quad_grid(2 + 1j, 10 + 1j, rhos)
        for rho, q in zip(rhos, grid):
            assert isinstance(q, CoulombQuad)
        inner = [q for rho, q in zip(rhos, grid) if abs(rho) < 12]
        for q in inner:
            assert q.wronskian_error() <= 1e-8

    def test_bad_point_reported_not_fatal(self):
        rhos = [5.0, -1.0 + 0j, 9.0]     # middle point on the cut ray
        grid = exact_quad_grid(2, 10, rhos)
        assert isinstance(grid[0], CoulombQuad)
        assert isinstance(grid[1], Exception)
        assert isinstance(grid[2], CoulombQuad)

    def test_non_finite_eta_is_per_point_error(self):
        grid = exact_quad_grid(2.0, math.nan, [5.0, 10.0])
        assert all(isinstance(q, DomainError) for q in grid)

    def test_largest_point_on_cut_is_per_point_error(self):
        grid = exact_quad_grid(2, 10, [-100 + 0j, 5.0, 10.0])
        assert isinstance(grid[0], DomainError)
        assert isinstance(grid[1], CoulombQuad)
        assert isinstance(grid[2], CoulombQuad)

    def test_gamma_pole_is_per_point_error(self):
        grid = exact_quad_grid(-1.0, 10.0, [5.0, 10.0])
        assert all(isinstance(q, PoleError) for q in grid)

    @pytest.mark.parametrize("ell, eta, rhos", [
        (2, 10, [1.0 + k * 59.0 / 119 for k in range(120)]),
        (2 + 1j, 10 + 1j, [(2.0 + k * 38.0 / 79) * RAY for k in range(80)]),
    ])
    def test_equals_pointwise_where_asymptotics_converge(self, ell, eta, rhos):
        # both backends take the at-point H(+/-) route there, so the grid
        # and the single-point planner must agree bit for bit
        def converges(rho):
            try:
                for om in (1, -1):
                    h_asymptotic(ComplexParams(ell, eta, rho, om))
            except AsymptoticFailureError:
                return False
            return True

        grid = exact_quad_grid(ell, eta, rhos)
        far = [i for i, rho in enumerate(rhos) if converges(rho)]
        assert len(far) >= len(rhos) // 3
        for i in far:
            assert grid[i] == exact_quad(ComplexParams(ell, eta, rhos[i]))

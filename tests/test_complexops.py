"""Tests for branch-aware elementary functions and log-gamma."""

import cmath
import math

import mpmath as mp
import pytest

from coulwkb.complexops import (
    branch_arccos,
    branch_arctan,
    branch_arctanh,
    branch_log,
    log_gamma,
)
from coulwkb.errors import BranchPointError, PoleError

mp.mp.dps = 40

TWO_PI_I = 2j * math.pi


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.pi) / 2, rel=1e-15)

    def test_one_plus_i(self):
        # 60-digit oracle: mpmath.loggamma(1+1j)
        ref = complex(-0.650923199301856338885216831503947665066,
                      -0.301640320467533197887531657796896540660)
        assert abs(log_gamma(1 + 1j) - ref) / abs(ref) < 1e-13

    def test_pole_errors(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                log_gamma(z)

    def test_accuracy_disk(self):
        import random
        random.seed(42)
        for _ in range(300):
            z = complex(random.uniform(-100, 100), random.uniform(-100, 100))
            if abs(z) > 100 or (abs(z.imag) < 1e-6 and z.real < 0.5):
                continue
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert abs(log_gamma(z) - ref) <= 1e-12 * abs(ref)

    def test_recurrence(self):
        # log Gamma(z+1) - log Gamma(z) - log z = 0 exactly for Re z > 0
        for z in (0.7 + 0.3j, 3.0 - 2.0j, 0.5 + 40j, 12.0 + 0j):
            r = log_gamma(z + 1) - log_gamma(z) - cmath.log(z)
            assert abs(r) < 1e-12 * max(1.0, abs(log_gamma(z)))

    def test_recurrence_left_halfplane_mod_2pi(self):
        for z in (-2.5 + 1.5j, -5.3 - 0.4j, -0.2 + 3j):
            r = log_gamma(z + 1) - log_gamma(z) - cmath.log(z)
            k = r.imag / (2 * math.pi)
            assert abs(r.real) < 1e-12 * max(1.0, abs(log_gamma(z)))
            assert abs(k - round(k)) < 1e-12

    def test_conjugation_symmetry(self):
        for z in (1 + 1j, -3.2 + 0.7j, 0.1 - 9j, 25 + 60j):
            a = log_gamma(complex(z).conjugate())
            b = log_gamma(z).conjugate()
            assert a == b  # exact, by construction


class TestBranchFunctions:
    def test_log_principal(self):
        assert branch_log(1.0) == 0.0

    def test_log_winding(self):
        assert branch_log(1.0, 1) == pytest.approx(TWO_PI_I)
        assert branch_log(1.0, -2) == pytest.approx(-2 * TWO_PI_I)

    def test_exp_log_roundtrip(self):
        for z in (2.3 - 1.1j, -4 + 0.5j, 1e-3 + 1e-4j, -7 - 9j):
            assert abs(cmath.exp(branch_log(z)) - z) <= 1e-14 * abs(z)

    def test_arctanh_log_identity(self):
        # independent oracle: arctanh z = (1/2) log((1+z)/(1-z))
        for z in (0.5, 0.3 + 0.4j, -0.8 + 0.1j):
            ref = 0.5 * cmath.log((1 + z) / (1 - z))
            assert abs(branch_arctanh(z) - ref) < 1e-14

    def test_arctan_windings(self):
        z = 0.3 + 0.2j
        assert branch_arctan(z, 1) - branch_arctan(z) == pytest.approx(math.pi)
        assert branch_arctanh(z, 1) - branch_arctanh(z) == pytest.approx(1j * math.pi)

    def test_arccos_sheets_are_valid(self):
        # every sheet value must still satisfy cos(w) = z
        z = 0.3 + 0.2j
        for k in range(-3, 4):
            w = branch_arccos(z, k)
            assert abs(cmath.cos(w) - z) < 1e-12

    def test_branch_points_raise(self):
        with pytest.raises(BranchPointError):
            branch_log(0.0)
        with pytest.raises(BranchPointError):
            branch_arctan(1j)
        with pytest.raises(BranchPointError):
            branch_arctanh(-1.0)
        with pytest.raises(BranchPointError):
            branch_arccos(1.0)

"""Tests for the exact eigenfunction solver of the linear coupled system."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fbmfg.spectral import (
    SpectralMode,
    basis_function,
    critical_times,
    mode_eigenvalue,
    solve_spectral,
    synthesize_fields,
)
from fbmfg.torus_grid import TorusGrid, hessian_values

LAM1 = 4.0 * np.pi**2


def bisect_denominator_zero(alpha: float, lam: float, lo: float, hi: float) -> float:
    """Independent root finder for (alpha+1) sinh(lam T) + cosh(lam T) = 0.

    Straight bisection on the raw denominator, no reuse of the solver's
    scaled formulas.
    """

    def denom(T: float) -> float:
        return (alpha + 1.0) * math.sinh(lam * T) + math.cosh(lam * T)

    flo, fhi = denom(lo), denom(hi)
    assert flo * fhi < 0, "bracket must straddle the sign change"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = denom(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


class TestCriticalTimes:
    def test_first_mode_alpha_minus_three(self):
        T1 = critical_times(-3.0, LAM1)
        assert T1 is not None
        # artanh(1/2) = ln(3)/2
        assert abs(T1 - 0.5 * math.log(3.0) / LAM1) < 1e-15
        assert abs(T1 - 0.0139147) < 1e-6

    def test_matches_bisection_oracle(self):
        for alpha in (-2.5, -3.0, -7.0):
            T_form = critical_times(alpha, LAM1)
            T_bis = bisect_denominator_zero(alpha, LAM1, 1e-6, 1.0)
            assert abs(T_form - T_bis) < 1e-13

    def test_eigenvalue_scaling(self):
        T1 = critical_times(-3.0, LAM1)
        for k in (2, 3, 5):
            Tk = critical_times(-3.0, mode_eigenvalue(k))
            assert abs(Tk - T1 / k**2) < 1e-16

    def test_none_when_alpha_not_below_minus_two(self):
        for alpha in (-2.0, -1.0, 0.0, 0.5, 10.0):
            assert critical_times(alpha, LAM1) is None

    def test_rejects_nonpositive_eigenvalue(self):
        with pytest.raises(ValueError):
            critical_times(-3.0, 0.0)


class TestModeFormulas:
    def sinh_route(self, mode: SpectralMode, t: np.ndarray) -> np.ndarray:
        """Reference evaluation via the A sinh + B cosh form (moderate lam T)."""
        return mode.A * np.sinh(mode.lam * t) + mode.B * np.cosh(mode.lam * t)

    def test_two_routes_agree(self):
        sol = solve_spectral(-3.0, [(1, 0.7)], T=0.009)
        (mode,) = sol.modes
        t = np.linspace(0.0, sol.T, 50)
        direct = self.sinh_route(mode, t)
        stable = mode.m_of_t(t)
        assert np.max(np.abs(direct - stable)) < 1e-12 * np.max(np.abs(direct))

    def test_ode_system_residuals(self):
        # -u' + lam u = 0 and m' + lam m = -lam u, checked pointwise.
        sol = solve_spectral(-3.0, [(1, 1.0)], T=0.01)
        (mode,) = sol.modes
        t = np.linspace(0.0, sol.T, 50)
        lam = mode.lam
        m, dm, u = mode.m_of_t(t), mode.dm_dt(t), mode.u_of_t(t)
        scale = max(np.max(np.abs(m)), np.max(np.abs(u)))
        assert np.max(np.abs(dm + lam * m + lam * u)) < 1e-12 * lam * scale
        assert np.max(np.abs(mode.d2m_dt2(t) - lam**2 * m)) < 1e-10 * lam**2 * scale

    def test_second_order_form(self):
        sol = solve_spectral(-4.0, [(2, 0.3)], T=0.004)
        (mode,) = sol.modes
        t = np.linspace(0.0, sol.T, 23)
        assert np.allclose(mode.d2m_dt2(t), mode.lam**2 * mode.m_of_t(t), rtol=1e-13)

    def test_initial_datum_exact(self):
        sol = solve_spectral(-3.0, [(1, 0.6), (-2, -0.25)], T=0.007)
        for mode, expect in zip(sol.modes, (0.6, -0.25)):
            assert abs(float(mode.m_of_t(0.0)) - expect) < 1e-13

    def test_final_coupling_identities(self):
        # u(T) = alpha m(T) and lam (alpha+1) m(T) = -m'(T).
        alpha = -3.0
        sol = solve_spectral(alpha, [(1, 0.9)], T=0.011)
        (mode,) = sol.modes
        mT = float(mode.m_of_t(sol.T))
        assert abs(float(mode.u_of_t(sol.T)) - alpha * mT) < 1e-12 * abs(mT)
        lhs = mode.lam * (alpha + 1.0) * mT
        rhs = -float(mode.dm_dt(sol.T))
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_alpha_zero_reduces_to_heat_decay(self):
        sol = solve_spectral(0.0, [(1, 1.3)], T=0.05)
        (mode,) = sol.modes
        t = np.linspace(0.0, 0.05, 11)
        assert np.max(np.abs(mode.m_of_t(t) - 1.3 * np.exp(-mode.lam * t))) < 1e-14
        assert np.max(np.abs(mode.u_of_t(t))) == 0.0

    def test_constant_mode_is_flat(self):
        sol = solve_spectral(-3.0, [(0, 2.0)], T=0.5)
        (mode,) = sol.modes
        t = np.linspace(0.0, 0.5, 9)
        assert np.all(mode.m_of_t(t) == 2.0)
        assert np.all(mode.u_of_t(t) == -6.0)

    def test_large_horizon_stays_finite(self):
        # lam T = 700 would overflow any cosh/sinh evaluation.
        T = 700.0 / LAM1
        sol = solve_spectral(-3.0, [(1, 1.0), (0, 1.0)], T=T)
        assert sol.solvable
        t = np.linspace(0.0, T, 31)
        for mode in sol.modes:
            assert np.all(np.isfinite(mode.m_of_t(t)))
            assert np.all(np.isfinite(mode.u_of_t(t)))
        assert abs(float(sol.modes[0].m_of_t(0.0)) - 1.0) < 1e-12


class TestSolvability:
    def test_unsolvable_exactly_at_critical_time(self):
        T1 = critical_times(-3.0, LAM1)
        sol = solve_spectral(-3.0, [(1, 1.0)], T=T1)
        assert not sol.solvable
        assert [m.key for m in sol.unsolvable_modes()] == [(1,)]

    def test_solvable_just_off_critical_time(self):
        T1 = critical_times(-3.0, LAM1)
        for shift in (1.0 - 1e-6, 1.0 + 1e-6):
            sol = solve_spectral(-3.0, [(1, 1.0)], T=T1 * shift)
            assert sol.solvable, f"shift {shift}"

    def test_zero_coefficient_mode_never_blocks(self):
        T1 = critical_times(-3.0, LAM1)
        sol = solve_spectral(-3.0, [(1, 0.0), (0, 1.0)], T=T1)
        assert sol.solvable
        t = np.linspace(0.0, T1, 7)
        assert np.all(sol.modes[0].m_of_t(t) == 0.0)

    def test_tol_denom_widens_window(self):
        T1 = critical_times(-3.0, LAM1)
        sol = solve_spectral(-3.0, [(1, 1.0)], T=T1 * (1.0 + 1e-6), tol_denom=1e-3)
        assert not sol.solvable

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_spectral(-3.0, [(1, 1.0)], T=0.0)
        with pytest.raises(ValueError):
            solve_spectral(-3.0, [], T=0.1)
        with pytest.raises(ValueError):
            solve_spectral(-3.0, [(1, 1.0), ((1, 1), 0.5)], T=0.1)


class TestSynthesis:
    def residual_max(self, alpha, coeffs, T, n, dim):
        grid = TorusGrid(dim=dim, n=n, nt=8, T=T)
        sol = solve_spectral(alpha, coeffs, T=T)
        u, m = synthesize_fields(sol, grid)
        coords = grid.coordinates()
        worst_u = worst_m = 0.0
        for j, t in enumerate(grid.times()):
            du = np.zeros(grid.shape)
            dm = np.zeros(grid.shape)
            for mode in sol.modes:
                phi = basis_function(mode.key, coords)
                du += float(mode.lam * mode.u_of_t(t)) * phi  # u' = lam u
                dm += float(mode.dm_dt(t)) * phi
            lap_u = np.trace(hessian_values(u.values[j], grid.h, dim))
            lap_m = np.trace(hessian_values(m.values[j], grid.h, dim))
            # -u_t - Lap u = 0  and  m_t - Lap m - Lap u = 0
            worst_u = max(worst_u, np.max(np.abs(-du - lap_u)))
            worst_m = max(worst_m, np.max(np.abs(dm - lap_m - lap_u)))
        return worst_u, worst_m

    def test_pde_residual_shrinks_like_h_squared(self):
        coeffs = [(0, 1.0), (1, 0.4), (-2, 0.2)]
        coarse = self.residual_max(-3.0, coeffs, 0.008, 32, dim=1)
        fine = self.residual_max(-3.0, coeffs, 0.008, 64, dim=1)
        for c, f in zip(coarse, fine):
            assert f > 0
            assert c / f > 3.5

    def test_2d_mode_residual(self):
        worst_u, worst_m = self.residual_max(
            -3.0, [((1, -2), 0.5), ((0, 0), 1.0)], T=0.002, n=48, dim=2
        )
        # Stencil bias only: |lam_h - lam| <= lam (2 pi k_max h)^2 / 12 per axis.
        lam = mode_eigenvalue((1, -2))
        bound = 5.0 * lam * (2.0 * np.pi * 2.0 / 48.0) ** 2
        assert worst_u < bound
        assert worst_m < bound

    def test_final_slice_matches_scaled_density(self):
        grid = TorusGrid(dim=1, n=64, nt=16, T=0.006)
        sol = solve_spectral(-3.0, [(0, 1.0), (1, 0.3)], T=0.006)
        u, m = synthesize_fields(sol, grid)
        assert np.max(np.abs(u.values[-1] - (-3.0) * m.values[-1])) < 1e-12

    def test_rejects_unsolvable_and_mismatched_grid(self):
        T1 = critical_times(-3.0, LAM1)
        bad = solve_spectral(-3.0, [(1, 1.0)], T=T1)
        grid = TorusGrid(dim=1, n=32, nt=8, T=T1)
        with pytest.raises(ValueError, match="unsolvable"):
            synthesize_fields(bad, grid)
        good = solve_spectral(-3.0, [(1, 1.0)], T=0.01)
        with pytest.raises(ValueError):
            synthesize_fields(good, TorusGrid(dim=2, n=32, nt=8, T=0.01))
        with pytest.raises(ValueError):
            synthesize_fields(good, TorusGrid(dim=1, n=32, nt=8, T=0.02))


class TestBasis:
    def test_eigenvalues(self):
        assert mode_eigenvalue(0) == 0.0
        assert abs(mode_eigenvalue(1) - LAM1) < 1e-12
        assert abs(mode_eigenvalue(-3) - 9.0 * LAM1) < 1e-11
        assert abs(mode_eigenvalue((1, -2)) - 5.0 * LAM1) < 1e-11
        assert abs(mode_eigenvalue((1, -2, 3)) - 14.0 * LAM1) < 1e-11
        with pytest.raises(ValueError, match="at least one axis"):
            mode_eigenvalue(())

    def test_three_axis_basis_is_a_product(self):
        coords = np.meshgrid(*[np.arange(8) / 8.0] * 3, indexing="ij")
        phi = basis_function((1, 0, -2), coords)
        expected = np.cos(2 * np.pi * coords[0]) * np.sin(4 * np.pi * coords[2])
        assert np.array_equal(phi, expected)

    def test_discrete_orthogonality(self):
        x = np.arange(64) / 64.0
        f1 = basis_function(1, (x,))
        f2 = basis_function(-1, (x,))
        assert abs(np.sum(f1 * f2)) < 1e-12
        assert abs(np.sum(f1 * f1) - 32.0) < 1e-12

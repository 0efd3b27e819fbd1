"""Discrete oracles for the sweep, checked in one, two and three dimensions.

- The per-mode gain: for the linear pair, one sweep multiplies every Fourier
  mode of ``m(T)`` by a gain known in closed form from the symbol of the
  marches.
- A manufactured fixed point: sources corrected by the discrete residuals of
  a smooth pair ``(u*, m*)`` make that pair the exact discrete fixed point,
  which the iteration must then return to round-off.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fbmfg import parabolic
from fbmfg.fixed_point import (
    IterateState,
    _pde_residual_stacks,
    apply_T,
    initial_state,
    picard_solve,
)
from fbmfg.models import (
    HamiltonianSpec,
    build_mfg_coupling,
    congestion_model,
    final_cost_constant,
    final_cost_scaled_identity,
    linear_counterexample_model,
    quadratic_mfg_model,
)
from fbmfg.parabolic import ParabolicProblem
from fbmfg.torus_grid import Field, SpaceTimeField, TorusGrid
from fbmfg.truncation import select_K

TWO_PI = 2.0 * np.pi


def discrete_gain(grid: TorusGrid, alpha: float) -> np.ndarray:
    """``g_k = -alpha (1 - rho_k^2N) / (1 + rho_k)`` on the ``rfftn`` modes.

    ``rho_k = 1 / (1 + dt lambda_k)`` is one backward-Euler step of mode ``k``
    under the unit diffusion, with ``lambda_k`` the symbol of the marches.
    Backward from ``u(T) = alpha m(T)``, mode ``k`` of ``u`` at step ``j`` is
    ``rho^(N-j) alpha m_k(T)``; forced by ``G = -Lap u`` it adds
    ``-alpha dt lambda sum_i rho^(2i+1) m_k(T)`` to the next ``m_k(T)``.
    """
    lam = parabolic._fourier_symbol(grid, np.eye(grid.dim))
    rho = 1.0 / (1.0 + grid.dt * lam)
    return -alpha * (1.0 - rho ** (2 * grid.nt)) / (1.0 + rho)


class TestPerModeGain:
    ALPHA = -3.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_sweep_multiplies_each_mode_of_the_final_density(self, dim):
        grid = TorusGrid(dim=dim, n=8, nt=32, T=0.002)
        model = linear_counterexample_model(alpha=self.ALPHA, dim=dim)
        cost = final_cost_scaled_identity(self.ALPHA)
        m0 = Field(grid, np.random.default_rng(dim).uniform(0.7, 1.3, grid.shape))
        trunc = select_K(m0, cost.L_h, cost.C0, float(np.min(m0.values)))
        # From the second sweep on, u is the backward march of alpha m(T),
        # so differences of successive final densities map mode by mode.
        states = [initial_state(grid, m0, trunc.m0_gradient)]
        for _ in range(3):
            states.append(apply_T(model, cost, m0, states[-1], trunc))
        final = [np.fft.rfftn(state.m.values[-1]) for state in states[1:]]
        before, after = final[1] - final[0], final[2] - final[1]
        gain = discrete_gain(grid, self.ALPHA)
        assert np.max(np.abs(after - gain * before)) <= 1e-12 * np.max(np.abs(after))
        # Every mode but the mean one moves.
        assert np.all(np.abs(before.flat[1:]) > 1e-6 * np.max(np.abs(before)))

    def test_gain_of_a_3d_mode(self):
        grid = TorusGrid(dim=3, n=8, nt=32, T=0.002)
        assert discrete_gain(grid, self.ALPHA)[1, 0, 2] == pytest.approx(0.727330, abs=5e-7)


# ---------------------------------------------------------------------------
# Manufactured discrete fixed point
# ---------------------------------------------------------------------------


def manufactured_problem(model, grid: TorusGrid, u_star: np.ndarray, m_star: np.ndarray):
    """``(model, final cost, m0)`` whose discrete fixed point is ``(u*, m*)``.

    The model's sources are shifted by the residual rows of ``(u*, m*)`` at
    the slices of the slab each call is handed, read off its ``t``.  ``F``
    is evaluated only on the slices ``0 .. nt-1`` that the backward march
    reads; ``G`` also on slice 0, which no march reads, and is not shifted
    there.
    """
    state = IterateState(SpaceTimeField(grid, u_star), SpaceTimeField(grid, m_star))
    res_u, res_m = _pde_residual_stacks(model, state)
    shift_m = np.concatenate([np.zeros((1, *grid.shape)), res_m])  # G's slices 0 .. nt

    def slices(t):
        return np.rint(t[(slice(None),) + (0,) * grid.dim] / grid.dt).astype(int)

    F, G = model.F, model.G
    forced = dataclasses.replace(
        model,
        F=lambda u, m, Du, Dm, x, t: F(u, m, Du, Dm, x, t) - res_u[slices(t)],
        G=lambda u, m, Du, Dm, D2u, x, t: G(u, m, Du, Dm, D2u, x, t) - shift_m[slices(t)],
    )
    return forced, final_cost_constant(Field(grid, u_star[-1])), Field(grid, m_star[0])


def smooth_pair(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """A smooth, slowly varying ``(u*, m*)`` that moves along every axis."""
    x, t = grid.space_time_coordinates()
    u = 0.1 * (1.0 + t) * sum(np.cos(TWO_PI * xi + i) for i, xi in enumerate(x))
    waves = [np.sin(TWO_PI * xi + 0.5 * i) for i, xi in enumerate(x)]
    m = 1.0 + 0.2 * np.exp(-t) * np.prod(waves, axis=0)
    return u, m


def variable_diffusion_model(dim: int):
    """Quadratic Hamiltonian with the callable diffusion ``a(x_0) I``."""
    w, e0 = TWO_PI, np.eye(dim)[0]
    spec = HamiltonianSpec(
        H=lambda x, t, p, m: 0.5 * np.sum(p * p, axis=0) - m,
        H_p=lambda x, t, p, m: p,
        H_pp=lambda x, t, p, m: np.multiply.outer(np.eye(dim), np.ones(np.shape(m))),
        A=lambda x, t: np.multiply.outer(np.eye(dim), 0.5 + 0.1 * np.sin(w * x[0])),
        A_div1=lambda x, t: np.multiply.outer(e0, 0.1 * w * np.cos(w * x[0])),
        A_div2=lambda x, t: -0.1 * w * w * np.sin(w * x[0]),
    )
    return build_mfg_coupling(spec, dim=dim, name="variable-diffusion")


MODELS = {
    "quadratic": quadratic_mfg_model,
    "congestion": lambda dim: congestion_model(dim=dim, alpha=1.0),
    "callable-A": variable_diffusion_model,
}


class TestManufacturedFixedPoint:
    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 16), (3, 8)])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_iteration_returns_the_manufactured_pair(self, name, dim, n):
        grid = TorusGrid(dim=dim, n=n, nt=8, T=0.01)
        u_star, m_star = smooth_pair(grid)
        model, cost, m0 = manufactured_problem(MODELS[name](dim), grid, u_star, m_star)
        report = picard_solve(model, cost, m0, grid, tol=1e-12)
        assert report.status == "converged" and report.detrunc_ok
        assert np.max(np.abs(report.final_state.u.values - u_star)) <= 1e-13
        assert np.max(np.abs(report.final_state.m.values - m_star)) <= 1e-13
        # The report's residuals are those of the forced model: round-off.
        assert max(report.residuals.values()) <= 1e-10

    def test_residual_stacks_are_what_the_report_takes_the_sup_of(self):
        grid = TorusGrid(dim=2, n=16, nt=8, T=0.01)
        model, cost, m0 = manufactured_problem(quadratic_mfg_model(dim=2), grid, *smooth_pair(grid))
        report = picard_solve(model, cost, m0, grid, tol=1e-10)
        res_u, res_m = _pde_residual_stacks(model, report.final_state)
        assert res_u.shape == res_m.shape == (grid.nt, *grid.shape)
        assert report.residuals == {"u": float(np.max(np.abs(res_u))),
                                    "m": float(np.max(np.abs(res_m)))}

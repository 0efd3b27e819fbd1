from __future__ import annotations

import numpy as np
import pytest

from fbmfg.parabolic import (
    ParabolicProblem,
    SolverError,
    constant_diffusion,
    solve_backward,
    solve_forward,
    solve_fp_conservative,
)
from fbmfg import torus_grid
from fbmfg.torus_grid import Field, SpaceTimeField, TorusGrid

TWO_PI = 2.0 * np.pi


def heat_exact_1d(x, t):
    return 1.0 + 0.5 * np.exp(-4.0 * np.pi**2 * t) * np.cos(TWO_PI * x)


def make_problem_1d(n=32, nt=64, T=0.1, **kwargs):
    g = TorusGrid(dim=1, n=n, nt=nt, T=T)
    defaults = dict(diffusion=constant_diffusion(1, 1.0))
    defaults.update(kwargs)
    return g, ParabolicProblem(grid=g, **defaults)


class TestSolveForward:
    def test_initial_slice_preserved_exactly(self):
        g, prob = make_problem_1d(initial=None)
        v0 = Field.from_function(g, lambda x: 1.0 + 0.3 * np.sin(TWO_PI * x))
        prob.initial = v0
        sol = solve_forward(prob)
        assert np.all(sol.values[0] == v0.values)

    def test_heat_kernel_oracle(self):
        g, prob = make_problem_1d(n=32, nt=64, T=0.1)
        prob.initial = Field.from_function(g, lambda x: heat_exact_1d(x, 0.0))
        sol = solve_forward(prob)
        exact = heat_exact_1d(g.coordinates()[0], g.T)
        err = np.max(np.abs(sol.values[-1] - exact))
        assert err <= 5.0 * (g.h**2 + g.dt)

    def test_pure_source_integration(self):
        # Spatially constant source with the operator annihilating constants:
        # the march reduces to v(t) = -t regardless of the diffusion.
        g = TorusGrid(dim=1, n=16, nt=10, T=0.5)
        prob = ParabolicProblem(
            grid=g,
            diffusion=constant_diffusion(1, 0.7),
            source=np.ones((g.nt + 1, g.n)),
            initial=Field.zeros(g),
        )
        sol = solve_forward(prob)
        for j, t in enumerate(g.times()):
            assert np.allclose(sol.values[j], -t, rtol=0, atol=1e-12)

    def test_requires_initial_slice(self):
        _, prob = make_problem_1d()
        with pytest.raises(ValueError):
            solve_forward(prob)

    def test_discrete_maximum_principle(self):
        g, prob = make_problem_1d(n=64, nt=32, T=0.05)
        rng = np.random.default_rng(17)
        v0 = rng.uniform(-1.0, 2.0, size=g.n)
        prob.initial = Field(g, v0)
        sol = solve_forward(prob)
        assert np.min(sol.values) >= v0.min() - 1e-10
        assert np.max(sol.values) <= v0.max() + 1e-10

    def test_refinement_orders(self):
        # Spatial order from a ladder with dt tied to h^2; temporal order at
        # a spatial resolution fine enough for dt to dominate the error.
        T = 0.05

        def run(n, nt):
            g = TorusGrid(dim=1, n=n, nt=nt, T=T)
            prob = ParabolicProblem(
                grid=g,
                diffusion=constant_diffusion(1, 1.0),
                initial=Field.from_function(g, lambda x: heat_exact_1d(x, 0.0)),
            )
            sol = solve_forward(prob)
            return np.max(np.abs(sol.values[-1] - heat_exact_1d(g.coordinates()[0], T)))

        spatial = [run(n, int(np.ceil(2 * T * n**2))) for n in (16, 32, 64)]
        slope_h = np.polyfit(np.log([1 / 16, 1 / 32, 1 / 64]), np.log(spatial), 1)[0]
        assert slope_h >= 1.8

        temporal = [run(256, nt) for nt in (10, 20, 40)]
        slope_t = np.polyfit(np.log([T / 10, T / 20, T / 40]), np.log(temporal), 1)[0]
        assert slope_t >= 0.9


class TestSolveBackward:
    def test_constant_final_datum(self):
        g, prob = make_problem_1d()
        prob.final = Field.full(g, 2.5)
        sol = solve_backward(prob)
        assert np.allclose(sol.values, 2.5, rtol=0, atol=1e-13)
        assert np.all(sol.values[-1] == 2.5)

    def test_reversal_involution_is_exact(self):
        # Backward solve of the time-reversed problem must reproduce the
        # forward solution slices in reverse order, bit for bit.
        g = TorusGrid(dim=1, n=32, nt=16, T=0.2)
        rng = np.random.default_rng(3)
        coeff = 1.0 + 0.5 * np.abs(np.sin(TWO_PI * np.linspace(0, 1, g.nt + 1)))[:, None, None]
        diffusion = coeff * np.ones((g.nt + 1, 1, 1))
        source = rng.normal(size=(g.nt + 1, g.n)) * 0.1
        v0 = Field(g, rng.normal(size=g.n))
        forward = solve_forward(
            ParabolicProblem(grid=g, diffusion=diffusion, source=source, initial=v0)
        )
        backward = solve_backward(
            ParabolicProblem(
                grid=g,
                diffusion=np.ascontiguousarray(diffusion[::-1]),
                source=np.ascontiguousarray(source[::-1]),
                final=v0,
            )
        )
        assert np.array_equal(backward.values, forward.values[::-1])

    def test_heat_kernel_backward(self):
        g, prob = make_problem_1d(n=32, nt=64, T=0.1)
        prob.final = Field.from_function(g, lambda x: heat_exact_1d(x, 0.0))
        sol = solve_backward(prob)
        # Under reversal the final datum diffuses toward t = 0.
        exact0 = heat_exact_1d(g.coordinates()[0], g.T)
        err = np.max(np.abs(sol.values[0] - exact0))
        assert err <= 5.0 * (g.h**2 + g.dt)
        assert np.all(sol.values[-1] == prob.final.values)


class TestTwoDimensional:
    def test_constant_invariance_2d(self):
        g = TorusGrid(dim=2, n=16, nt=8, T=0.05)
        prob = ParabolicProblem(
            grid=g, diffusion=constant_diffusion(2, 1.0), initial=Field.full(g, 3.0)
        )
        sol = solve_forward(prob)
        assert np.allclose(sol.values, 3.0, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("positivity", [False, True])
    def test_mixed_diffusion_oracle(self, positivity):
        # Plane wave cos(2*pi*(x+y)) decays at rate 4*pi^2 * (k^T C k) with
        # k = (1,1); the mixed entries contribute through 2*c12.
        C = np.array([[1.0, 0.25], [0.25, 1.0]])
        rate = 4.0 * np.pi**2 * (C[0, 0] + C[1, 1] + 2 * C[0, 1])
        T = 0.01
        g = TorusGrid(dim=2, n=16, nt=16, T=T)
        prob = ParabolicProblem(
            grid=g,
            diffusion=C,
            initial=Field.from_function(g, lambda x, y: np.cos(TWO_PI * (x + y))),
            positivity=positivity,
        )
        sol = solve_forward(prob)
        x, y = g.coordinates()
        exact = np.exp(-rate * T) * np.cos(TWO_PI * (x + y))
        err = np.max(np.abs(sol.values[-1] - exact))
        assert err <= 12.0 * (g.h**2 + g.dt)

    def test_x_dependent_diagonal_diffusion(self):
        # Takes the splu path: discrete maximum principle and invariance of
        # constants, as for the constant-coefficient march.
        g = TorusGrid(dim=2, n=16, nt=8, T=0.02)
        x, y = g.coordinates()
        C = np.zeros((2, 2, *g.shape))
        C[0, 0] = 1.0 + 0.5 * np.sin(TWO_PI * x)
        C[1, 1] = 0.8 + 0.3 * np.cos(TWO_PI * y)
        v0 = np.random.default_rng(23).uniform(-1.0, 2.0, size=g.shape)
        sol = solve_forward(ParabolicProblem(grid=g, diffusion=C, initial=Field(g, v0)))
        assert np.min(sol.values) >= v0.min() - 1e-10
        assert np.max(sol.values) <= v0.max() + 1e-10
        const = solve_forward(
            ParabolicProblem(grid=g, diffusion=C, initial=Field.full(g, 3.0))
        )
        assert np.allclose(const.values, 3.0, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "C, positivity, crosses",
        [
            ([[1.0, 0.0], [0.0, 0.6]], False, 0),
            ([[1.0, 0.0], [0.0, 0.6]], True, 0),
            ([[1.0, 0.25], [0.25, 1.0]], False, 1),
            ([[1.0, 0.01], [0.01, 1.0]], True, 1),
        ],
    )
    def test_march_check_builds_the_cross_stencil_only_when_needed(
        self, monkeypatch, C, positivity, crosses
    ):
        calls = []
        cross = torus_grid._cross_difference

        def counted(*args):
            calls.append(args)
            return cross(*args)

        monkeypatch.setattr(torus_grid, "_cross_difference", counted)
        g = TorusGrid(dim=2, n=16, nt=8, T=0.001)
        v0 = np.random.default_rng(29).normal(size=g.shape)
        solve_forward(ParabolicProblem(
            grid=g, diffusion=np.array(C), initial=Field(g, v0), positivity=positivity,
        ))
        assert len(calls) == crosses

    def test_positivity_time_step_restriction(self):
        C = np.array([[1.0, 0.4], [0.4, 1.0]])
        g = TorusGrid(dim=2, n=16, nt=4, T=1.0)  # dt far above h^2/(8 c12)
        prob = ParabolicProblem(
            grid=g, diffusion=C, initial=Field.full(g, 1.0), positivity=True
        )
        with pytest.raises(ValueError, match="dt"):
            solve_forward(prob)


class TestFourierAgainstSplu:
    """The splu step loop is the reference for the Fourier march.

    The same constant matrix goes in once as ``(dim, dim)`` (Fourier march)
    and once broadcast to a ``(nt+1, dim, dim) + spatial`` stack (splu).
    """

    MIXED = [[1.0, 0.25], [0.25, 1.0]]
    CASES = {
        "1d": (1, [[1.0]], False),
        "2d-diagonal": (2, [[1.0, 0.0], [0.0, 0.6]], False),
        "2d-mixed": (2, MIXED, False),
        "2d-mixed-positivity": (2, MIXED, True),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_paths_agree(self, case):
        dim, C, positivity = self.CASES[case]
        C = np.array(C)
        g = TorusGrid(dim=dim, n=16, nt=16, T=0.01)
        stack = np.broadcast_to(
            C.reshape((1, dim, dim) + (1,) * dim), (g.nt + 1, dim, dim, *g.shape)
        )
        rng = np.random.default_rng(11)
        source = rng.normal(size=(g.nt + 1, *g.shape))
        datum = Field(g, rng.normal(size=g.shape))
        for solve, key in ((solve_forward, "initial"), (solve_backward, "final")):
            fourier, splu = (
                solve(
                    ParabolicProblem(
                        grid=g, diffusion=diffusion, source=source,
                        positivity=positivity, **{key: datum},
                    )
                )
                for diffusion in (C, stack)
            )
            assert np.max(np.abs(fourier.values - splu.values)) <= 1e-12


class TestConservativeFP:
    def test_uniform_density_stays_uniform(self):
        g = TorusGrid(dim=1, n=32, nt=16, T=0.1)
        prob = ParabolicProblem(
            grid=g, diffusion=constant_diffusion(1, 1.0), initial=Field.full(g, 1.0)
        )
        drift = np.zeros((g.nt + 1, 1, g.n))
        sol = solve_fp_conservative(prob, drift)
        assert np.allclose(sol.values, 1.0, rtol=0, atol=1e-13)

    def test_mass_conserved_per_step(self):
        g = TorusGrid(dim=1, n=48, nt=32, T=0.05)
        x = g.coordinates()[0]
        prob = ParabolicProblem(
            grid=g,
            diffusion=constant_diffusion(1, 0.5),
            initial=Field(g, 1.0 + 0.7 * np.cos(TWO_PI * x)),
        )
        t = g.times()[:, None]
        drift = (np.sin(TWO_PI * x)[None, :] * (1.0 + t))[:, None, :]
        sol = solve_fp_conservative(prob, drift)
        mass = np.sum(sol.values, axis=1) * g.h
        assert np.all(np.abs(mass - mass[0]) <= 1e-12 * np.abs(mass[0]))

    def test_positivity_preserved(self):
        g = TorusGrid(dim=1, n=48, nt=40, T=0.2)
        x = g.coordinates()[0]
        m0 = np.maximum(0.0, np.cos(TWO_PI * x))  # touches zero
        prob = ParabolicProblem(
            grid=g, diffusion=constant_diffusion(1, 0.05), initial=Field(g, m0)
        )
        drift = np.broadcast_to(3.0 * np.sin(TWO_PI * x), (g.nt + 1, 1, g.n)).copy()
        sol = solve_fp_conservative(prob, drift)
        assert np.min(sol.values) >= 0.0

    def test_advection_diffusion_oracle(self):
        # m_t = m_xx + b m_x with constant b has the translating, decaying
        # solution 1 + 0.5 exp(-4 pi^2 t) cos(2 pi (x + b t)); upwinding is
        # first order so the error budget is O(h + dt).
        b = 1.0
        T = 0.1

        def run(n, nt):
            g = TorusGrid(dim=1, n=n, nt=nt, T=T)
            x = g.coordinates()[0]
            prob = ParabolicProblem(
                grid=g,
                diffusion=constant_diffusion(1, 1.0),
                initial=Field(g, 1.0 + 0.5 * np.cos(TWO_PI * x)),
            )
            drift = np.full((g.nt + 1, 1, g.n), b)
            sol = solve_fp_conservative(prob, drift)
            exact = 1.0 + 0.5 * np.exp(-4.0 * np.pi**2 * T) * np.cos(TWO_PI * (x + b * T))
            return np.max(np.abs(sol.values[-1] - exact)), g.h + g.dt

        err_coarse, budget_coarse = run(64, 128)
        err_fine, budget_fine = run(128, 256)
        assert err_coarse <= budget_coarse
        assert err_fine <= budget_fine
        assert err_fine <= 0.7 * err_coarse

    def test_mass_conserved_2d(self):
        g = TorusGrid(dim=2, n=16, nt=8, T=0.02)
        x, y = g.coordinates()
        prob = ParabolicProblem(
            grid=g,
            diffusion=constant_diffusion(2, 1.0),
            initial=Field(g, 1.0 + 0.4 * np.cos(TWO_PI * x) * np.sin(TWO_PI * y)),
        )
        drift = np.empty((g.nt + 1, 2, g.n, g.n))
        drift[:, 0] = np.sin(TWO_PI * y)
        drift[:, 1] = np.cos(TWO_PI * x)
        sol = solve_fp_conservative(prob, drift)
        mass = np.sum(sol.values, axis=(1, 2)) * g.h**2
        assert np.all(np.abs(mass - mass[0]) <= 1e-12 * np.abs(mass[0]))
        assert np.min(sol.values) >= 0.0


class TestValidation:
    def test_rejects_nonelliptic_diffusion(self):
        g = TorusGrid(dim=2, n=8, nt=2, T=0.1)
        C = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
        with pytest.raises(ValueError, match="elliptic"):
            ParabolicProblem(grid=g, diffusion=C)

    def test_rejects_bad_source_shape(self):
        g = TorusGrid(dim=1, n=8, nt=2, T=0.1)
        with pytest.raises(ValueError):
            ParabolicProblem(
                grid=g, diffusion=constant_diffusion(1, 1.0), source=np.zeros((5, 8))
            )

    def test_rejects_nonfinite_coefficients(self):
        g = TorusGrid(dim=1, n=8, nt=2, T=0.1)
        with pytest.raises(ValueError, match="finite"):
            ParabolicProblem(grid=g, diffusion=np.array([[np.nan]]))

    @pytest.mark.parametrize("path", ["fourier", "splu"])
    def test_nonfinite_source_is_a_solver_error(self, path):
        g = TorusGrid(dim=2, n=8, nt=4, T=0.01)
        diffusion = np.eye(2)
        if path == "splu":
            diffusion = np.broadcast_to(diffusion[:, :, None, None], (2, 2, *g.shape))
        source = np.zeros((g.nt + 1, *g.shape))
        source[2, 3, 3] = np.nan
        prob = ParabolicProblem(
            grid=g, diffusion=diffusion, source=source, initial=Field.zeros(g)
        )
        with pytest.raises(SolverError, match="non-finite"):
            solve_forward(prob)

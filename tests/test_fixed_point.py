"""Tests for the Picard iteration on the coupled backward-forward system."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from fbmfg import fixed_point, parabolic, torus_grid
from fbmfg.fixed_point import (
    IterateState,
    SweepRow,
    _PairNorms,
    _pde_residual_stacks,
    _pde_residuals,
    apply_T,
    horizon_sweep,
    initial_state,
    iterate_distance,
    picard_solve,
)
from fbmfg.models import (
    CouplingModel,
    FinalCost,
    HamiltonianSpec,
    build_mfg_coupling,
    congestion_model,
    decoupled_heat_model,
    final_cost_constant,
    final_cost_convolution,
    final_cost_scaled_identity,
    linear_counterexample_model,
    quadratic_mfg_model,
)
from fbmfg.parabolic import ParabolicProblem, solve_backward, solve_forward
from fbmfg.spectral import solve_spectral, synthesize_fields
from fbmfg.torus_grid import (
    Field,
    SpaceTimeField,
    TorusGrid,
    gradient_magnitude,
    gradient_values,
    hessian_values,
    norm_C1,
    norm_C10,
    norm_W21p,
    time_derivative,
)
from fbmfg.truncation import select_K, wrap_model

# Horizon at which the linear pair with final scale -3 loses solvability.
T_CRIT = math.log(3.0) / (8.0 * math.pi**2)


def cosine_density(grid: TorusGrid, amplitude: float) -> Field:
    return Field.from_function(grid, lambda x: 1.0 + amplitude * np.cos(2.0 * np.pi * x))


def model_with_sources(F=None, G=None, dim: int = 1) -> CouplingModel:
    """Unit-diffusion model with hand-picked sources (for slot probing)."""
    zero_F = lambda u, m, Du, Dm, x, t: np.zeros(np.shape(u))
    zero_G = lambda u, m, Du, Dm, D2u, x, t: np.zeros(np.shape(u))
    return CouplingModel(
        name="probe", dim=dim, F=F or zero_F, G=G or zero_G,
        diffusion_u=np.eye(dim), diffusion_m=np.eye(dim),
    )


class TestApplyT:
    @pytest.mark.parametrize("model", [quadratic_mfg_model(2), congestion_model(dim=2)],
                             ids=["quadratic", "congestion"])
    def test_forward_pass_gathers_the_incoming_pair_row(self, model, monkeypatch):
        # The row of the incoming pair is finished by the next sweep's forward
        # pass, from the derivatives that build G: it equals the public norms,
        # over one slab or a slice at a time.
        grid = TorusGrid(dim=2, n=16, nt=8, T=0.02)
        m0 = Field.from_function(grid, lambda x, y: 1.0 + 0.2 * np.cos(2.0 * np.pi * x)
                                 * np.sin(2.0 * np.pi * y))
        cost = final_cost_convolution(grid)
        trunc = select_K(m0, cost.L_h, cost.C0, 0.5)
        # A pair with nonzero derivatives: one sweep from the initial pair.
        state = apply_T(model, cost, m0, initial_state(grid, m0), trunc)
        outputs = []
        for slab_bytes in (torus_grid._SLAB_BYTES, 1):
            monkeypatch.setattr(torus_grid, "_SLAB_BYTES", slab_bytes)
            norms = _PairNorms(grid, 5.0)
            out = apply_T(model, cost, m0, state, trunc, norms=norms)
            row = norms.row(1, 0.5, math.nan)
            assert row.norm_u_w21p == norm_W21p(state.u, 5.0)
            assert row.norm_u_c10 == norm_C10(state.u)
            assert row.norm_m_c10 == norm_C10(state.m)
            assert row.min_m == float(np.min(state.m.values))
            assert norms.bounds()["max_m"] == float(np.max(state.m.values))
            outputs.append(out)
        assert all(np.array_equal(getattr(outputs[0], f).values, getattr(outputs[1], f).values)
                   for f in ("u", "m"))
        assert set(vars(outputs[0])) == {"u", "m"}  # the new pair holds no derivatives

    def test_decoupled_sweep_matches_direct_solves(self):
        grid = TorusGrid(dim=1, n=32, nt=16, T=0.01)
        m0 = cosine_density(grid, 0.25)
        g = Field.from_function(grid, lambda x: 0.3 * np.sin(2.0 * np.pi * x))
        cost = final_cost_constant(g)
        model = decoupled_heat_model(dim=1)
        trunc = select_K(m0, cost.L_h, cost.C0, 0.5)

        out = apply_T(model, cost, m0, initial_state(grid, m0), trunc)

        m_direct = solve_forward(
            ParabolicProblem(grid, diffusion=np.eye(1), initial=m0)
        )
        u_direct = solve_backward(
            ParabolicProblem(grid, diffusion=np.eye(1), final=g)
        )
        assert np.array_equal(out.m.values, m_direct.values)
        assert np.array_equal(out.u.values, u_direct.values)

    def test_value_source_reads_newly_advanced_density(self):
        # F = m: the backward solve must see the density the same sweep
        # just produced, not the incoming iterate.
        grid = TorusGrid(dim=1, n=32, nt=16, T=0.01)
        m0 = cosine_density(grid, 0.25)
        g = Field.from_function(grid, lambda x: 0.3 * np.sin(2.0 * np.pi * x))
        cost = final_cost_constant(g)
        model = model_with_sources(F=lambda u, m, Du, Dm, x, t: m)
        trunc = select_K(m0, cost.L_h, cost.C0, 0.5)

        out = apply_T(model, cost, m0, initial_state(grid, m0), trunc)

        m_bar = solve_forward(ParabolicProblem(grid, diffusion=np.eye(1), initial=m0))
        u_expect = solve_backward(
            ParabolicProblem(grid, diffusion=np.eye(1), source=m_bar.values, final=g)
        )
        assert np.array_equal(out.m.values, m_bar.values)
        assert np.array_equal(out.u.values, u_expect.values)

    def test_value_source_reads_incoming_value_iterate(self):
        # F = u: on the first sweep the value slot holds the zero start, so
        # the backward solve is an unforced heat solve no matter what the
        # sweep produces afterwards.
        grid = TorusGrid(dim=1, n=32, nt=16, T=0.01)
        m0 = cosine_density(grid, 0.25)
        g = Field.from_function(grid, lambda x: 0.3 * np.sin(2.0 * np.pi * x))
        cost = final_cost_constant(g)
        model = model_with_sources(F=lambda u, m, Du, Dm, x, t: u)
        trunc = select_K(m0, cost.L_h, cost.C0, 0.5)

        out = apply_T(model, cost, m0, initial_state(grid, m0), trunc)

        u_expect = solve_backward(ParabolicProblem(grid, diffusion=np.eye(1), final=g))
        assert np.array_equal(out.u.values, u_expect.values)

    def test_density_source_reads_incoming_pair(self):
        # G = m: the forward solve sees the incoming density (frozen at the
        # datum on the first sweep), not its own output.
        grid = TorusGrid(dim=1, n=32, nt=16, T=0.01)
        m0 = cosine_density(grid, 0.25)
        g = Field.from_function(grid, lambda x: 0.3 * np.sin(2.0 * np.pi * x))
        cost = final_cost_constant(g)
        model = model_with_sources(G=lambda u, m, Du, Dm, D2u, x, t: m)
        trunc = select_K(m0, cost.L_h, cost.C0, 0.5)

        out = apply_T(model, cost, m0, initial_state(grid, m0), trunc)

        frozen = SpaceTimeField.constant_in_time(m0)
        m_expect = solve_forward(
            ParabolicProblem(grid, diffusion=np.eye(1), source=frozen.values, initial=m0)
        )
        assert np.array_equal(out.m.values, m_expect.values)

    @pytest.mark.parametrize(
        "model",
        [quadratic_mfg_model(dim=1), quadratic_mfg_model(dim=2), congestion_model(dim=2),
         congestion_model(dim=3)],
        ids=["quadratic-1d", "quadratic-2d", "congestion-2d", "congestion-3d"],
    )
    def test_stacked_sources_match_slice_loop(self, model):
        # apply_T evaluates each truncated source once per time slab; on a
        # whole stack too it must reproduce a slice-by-slice evaluation bit
        # for bit.  The
        # rough pair drives every clamp past its level somewhere.
        grid = TorusGrid(dim=model.dim, n=16 if model.dim < 3 else 8, nt=8, T=0.05)
        trunc = select_K(Field.full(grid, 1.0), 0.0, 0.0, 0.5)  # K = 4
        F_hat, G_hat = wrap_model(model.F, model.G, trunc)
        rng = np.random.default_rng(11)
        stack = (grid.nt + 1, *grid.shape)
        u, m = rng.normal(0.0, 2.0, stack), rng.uniform(0.1, 6.0, stack)
        Du, Dm = gradient_values(u, grid.h, grid.dim), gradient_values(m, grid.h, grid.dim)
        D2u = hessian_values(u, grid.h, grid.dim)
        x, t = grid.space_time_coordinates()
        coords, times = grid.coordinates(), grid.times()

        F_loop = np.stack([
            F_hat(u[j], m[j], Du[:, j], Dm[:, j], coords, float(s))
            for j, s in enumerate(times)
        ])
        G_loop = np.stack([
            G_hat(u[j], m[j], Du[:, j], Dm[:, j], D2u[:, :, j], coords, float(s))
            for j, s in enumerate(times)
        ])
        assert np.array_equal(F_hat(u, m, Du, Dm, x, t), F_loop)
        assert np.array_equal(G_hat(u, m, Du, Dm, D2u, x, t), G_loop)

    def test_datum_slices_pass_through_exactly(self):
        grid = TorusGrid(dim=1, n=32, nt=16, T=0.01)
        m0 = cosine_density(grid, 0.25)
        cost = final_cost_scaled_identity(-3.0)
        model = linear_counterexample_model(alpha=-3.0, dim=1)
        trunc = select_K(m0, cost.L_h, cost.C0, 0.5)

        out = apply_T(model, cost, m0, initial_state(grid, m0), trunc)

        assert np.array_equal(out.m.values[0], m0.values)
        assert np.array_equal(out.u.values[grid.nt], -3.0 * out.m.values[grid.nt])


class TestPicardBasics:
    def test_decoupled_problem_converges_in_two_sweeps(self):
        grid = TorusGrid(dim=1, n=32, nt=16, T=0.01)
        m0 = cosine_density(grid, 0.25)
        g = Field.from_function(grid, lambda x: 0.3 * np.sin(2.0 * np.pi * x))
        report = picard_solve(
            decoupled_heat_model(dim=1), final_cost_constant(g), m0, grid,
            tol=1e-12, max_iter=10,
        )
        # The sources vanish, so the second sweep reproduces the first one
        # bit for bit and the distance drops to exactly zero.
        assert report.status == "converged"
        assert report.iterations == 2
        assert report.distance_history[1] == 0.0
        assert report.gamma_history == (0.0,)
        assert report.detrunc_ok
        assert report.m1_violations == ()

    def test_slice_data_preserved_on_final_iterate(self):
        grid = TorusGrid(dim=1, n=32, nt=32, T=0.005)
        m0 = cosine_density(grid, 0.25)
        cost = final_cost_scaled_identity(-3.0)
        report = picard_solve(
            linear_counterexample_model(alpha=-3.0, dim=1), cost, m0, grid,
            tol=1e-8, max_iter=60,
        )
        state = report.final_state
        assert np.array_equal(state.m.values[0], m0.values)
        expected_final = cost(state.m.slice_field(grid.nt))
        assert np.array_equal(state.u.values[grid.nt], expected_final.values)

    def test_report_parameters_and_rows(self):
        grid = TorusGrid(dim=1, n=32, nt=16, T=0.005)
        m0 = cosine_density(grid, 0.25)
        cost = final_cost_scaled_identity(-3.0)
        report = picard_solve(
            linear_counterexample_model(alpha=-3.0, dim=1), cost, m0, grid,
            tol=1e-8, max_iter=60,
        )
        assert report.p == grid.dim + 3.0
        assert report.delta == pytest.approx(0.75)
        expected = select_K(m0, cost.L_h, cost.C0, 0.75)
        assert report.K == pytest.approx(expected.K)
        assert len(report.gamma_history) == report.iterations - 1
        assert len(report.rows) == report.iterations
        first, last = report.rows[0], report.rows[-1]
        assert first.iteration == 1 and math.isnan(first.gamma)
        assert last.distance == report.final_distance
        assert all(
            math.isfinite(r.norm_u_w21p) and math.isfinite(r.min_m)
            for r in report.rows
        )

    def test_budget_exhaustion_is_its_own_status(self):
        grid = TorusGrid(dim=1, n=32, nt=32, T=0.005)
        m0 = cosine_density(grid, 0.25)
        report = picard_solve(
            linear_counterexample_model(alpha=-3.0, dim=1),
            final_cost_scaled_identity(-3.0), m0, grid,
            tol=1e-12, max_iter=3,
        )
        assert report.status == "max_iter"
        assert report.iterations == 3

    def test_rejects_p_below_two_before_the_first_sweep(self):
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        calls = []

        def F(u, m, Du, Dm, x, t):
            calls.append(np.shape(u))
            return np.zeros(np.shape(u))

        model = model_with_sources(F=F)
        cost = final_cost_scaled_identity(1.0)
        with pytest.raises(ValueError, match="p must be >= 2"):
            picard_solve(model, cost, cosine_density(grid, 0.25), grid, p=1.5)
        assert calls == []

    @pytest.mark.parametrize("kwargs, fragment", [
        (dict(tol=-1.0), "tol must be nonnegative"),
        (dict(tol=math.nan), "tol must be nonnegative"),
        (dict(p=math.inf), "p must be >= 2 and finite"),
        (dict(K=math.nan), "admissible threshold"),
        (dict(tol=math.inf), "tol must be nonnegative and finite"),
        (dict(K=math.inf), "K=inf must be finite"),
    ])
    def test_rejects_nonfinite_or_negative_parameters_before_the_first_sweep(
        self, kwargs, fragment
    ):
        # tol < 0 used to reach d = 0 and divide by it; p = inf pinned the
        # W21p distance at 1; K = nan failed inside the first clamp; tol = inf
        # stopped after one sweep; K = inf clamped nothing and so certified
        # de-truncation.
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        calls = []

        def F(u, m, Du, Dm, x, t):
            calls.append(np.shape(u))
            return np.zeros(np.shape(u))

        with pytest.raises(ValueError, match=fragment):
            picard_solve(model_with_sources(F=F), final_cost_convolution(grid),
                         Field.full(grid, 1.0), grid, **kwargs)
        assert calls == []

    def test_explicit_K_keeps_the_density_floor_check(self):
        # min m0 = 0.75 < delta: rejected before the first sweep, whether K
        # is derived or given.
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        calls = []

        def F(u, m, Du, Dm, x, t):
            calls.append(np.shape(u))
            return np.zeros(np.shape(u))

        model = model_with_sources(F=F)
        cost = final_cost_scaled_identity(1.0)
        for K in (None, 2000.0):
            with pytest.raises(ValueError, match="violates its floor"):
                picard_solve(model, cost, cosine_density(grid, 0.25), grid, delta=0.9, K=K)
        assert calls == []

    def test_rejects_bad_density_or_shape(self):
        grid = TorusGrid(dim=1, n=32, nt=8, T=0.01)
        model = decoupled_heat_model(dim=1)
        cost = final_cost_scaled_identity(1.0)
        bad = Field.from_function(grid, lambda x: np.cos(2.0 * np.pi * x))
        with pytest.raises(ValueError, match="positive"):
            picard_solve(model, cost, bad, grid)
        other = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        with pytest.raises(ValueError, match="shape"):
            picard_solve(model, cost, Field.full(other, 1.0), grid)
        m0 = Field.full(grid, 1.0)
        with pytest.raises(ValueError, match="floor"):
            picard_solve(model, cost, m0, grid, delta=2.0)

    @pytest.mark.parametrize("constant", ["L_h", "C0"])
    def test_nan_final_cost_constant_is_rejected_before_the_first_sweep(self, constant):
        # Python's max dropped the NaN term of the threshold: the run ended
        # "converged" with K = 5.56 (86.4 with the real constants), M1 = nan
        # and a passed de-truncation check.
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        real = final_cost_convolution(grid)
        constants = {"L_h": real.L_h, "C0": real.C0, constant: math.nan}
        cost = FinalCost(fn=real.fn, regularizing=True, **constants)
        calls = []

        def F(u, m, Du, Dm, x, t):
            calls.append(np.shape(u))
            return np.zeros(np.shape(u))

        with pytest.raises(ValueError, match="L_h and C0 must be nonnegative"):
            picard_solve(model_with_sources(F=F), cost, cosine_density(grid, 0.25), grid)
        assert calls == []

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True])
    def test_rejects_a_budget_it_cannot_run(self, max_iter):
        # 0 and -3 returned "max_iter" with no rows; 2.5 raised TypeError.
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            picard_solve(decoupled_heat_model(dim=1), final_cost_convolution(grid),
                         Field.full(grid, 1.0), grid, max_iter=max_iter)

    def test_rejects_an_infinite_density_entry_before_the_first_sweep(self):
        # It used to reach the first march and end in status "error".
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        values = np.ones(grid.shape)
        values[3] = np.inf
        calls = []

        def F(u, m, Du, Dm, x, t):
            calls.append(np.shape(u))
            return np.zeros(np.shape(u))

        with pytest.raises(ValueError, match="initial density must be finite"):
            picard_solve(model_with_sources(F=F), final_cost_convolution(grid),
                         Field(grid, values), grid)
        assert calls == []

    @pytest.mark.parametrize("equation", ["u", "m"])
    @pytest.mark.parametrize("kind, fragment", [
        ("non-symmetric", "diffusion is not symmetric"),
        ("non-symmetric x-dependent callable", "diffusion is not symmetric"),
        ("non-elliptic", "diffusion is not uniformly elliptic"),
    ])
    def test_rejects_an_inadmissible_diffusion_before_the_first_sweep(
        self, equation, kind, fragment
    ):
        # Non-symmetric, the marches solved its upper triangle and the run
        # reported "converged"; non-elliptic, it ended in status "error" at
        # sweep 1.  Both solve and sweep now reject it up front.
        grid = TorusGrid(dim=2, n=8, nt=4, T=0.01)
        calls = []

        def F(u, m, Du, Dm, x, t):
            calls.append(np.shape(u))
            return np.zeros(np.shape(u))

        if kind == "non-elliptic":
            diffusion = np.array([[1.0, 2.0], [2.0, 1.0]])
        elif kind == "non-symmetric":
            diffusion = np.array([[0.5, 0.4], [0.0, 0.5]])
        else:
            def diffusion(g):
                c = np.broadcast_to(0.5 * np.eye(2)[:, :, None, None], (2, 2, *g.shape)).copy()
                c[0, 1, 3, 5] = 0.1
                return c

        model = replace(model_with_sources(F=F, dim=2), **{f"diffusion_{equation}": diffusion})
        cost, m0 = final_cost_convolution(grid), Field.full(grid, 1.0)
        with pytest.raises(ValueError, match=fragment):
            picard_solve(model, cost, m0, grid)
        with pytest.raises(ValueError, match=fragment):
            horizon_sweep(model, cost, m0, [grid.T, 2.0 * grid.T], dt=grid.dt)
        assert calls == []

    def test_iterate_distance_is_a_metric_at_zero(self):
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        rng = np.random.default_rng(7)
        a = IterateState(
            SpaceTimeField(grid, rng.standard_normal((grid.nt + 1, grid.n))),
            SpaceTimeField(grid, rng.standard_normal((grid.nt + 1, grid.n))),
        )
        b = IterateState(
            SpaceTimeField(grid, rng.standard_normal((grid.nt + 1, grid.n))),
            SpaceTimeField(grid, rng.standard_normal((grid.nt + 1, grid.n))),
        )
        assert iterate_distance(a, a, 4.0) == 0.0
        d_ab = iterate_distance(a, b, 4.0)
        assert d_ab > 0.0
        assert d_ab == pytest.approx(iterate_distance(b, a, 4.0), rel=1e-12)

    @staticmethod
    def nearby_pairs(dim):
        """Two nearby iterates, as in a converging run, and their differences.

        The difference of the iterates' derivatives would round differently
        from the derivatives of the difference.
        """
        grid = TorusGrid(dim=dim, n=16 if dim < 3 else 8, nt=8, T=0.01)
        rng = np.random.default_rng(9)
        shape = (grid.nt + 1, *grid.shape)
        u, m = 10.0 * rng.standard_normal(shape), 10.0 * rng.standard_normal(shape)
        a, b = (
            IterateState(
                SpaceTimeField(grid, u + 1e-7 * rng.standard_normal(shape)),
                SpaceTimeField(grid, m + 1e-7 * rng.standard_normal(shape)),
            )
            for _ in range(2)
        )
        du = SpaceTimeField(grid, a.u.values - b.u.values)
        dm = SpaceTimeField(grid, a.m.values - b.m.values)
        return a, b, du, dm

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_iterate_distance_equals_the_public_norms_exactly(self, dim):
        a, b, du, dm = self.nearby_pairs(dim)
        p = dim + 3.0
        assert iterate_distance(a, b, p) == norm_W21p(du, p) + norm_C10(du) + norm_C10(dm)

    @pytest.mark.parametrize("p", [2.5, 4.75])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_iterate_distance_equals_the_public_norms_at_non_integer_p(self, dim, p):
        # A non-integer exponent takes np.power, not repeated squaring.
        a, b, du, dm = self.nearby_pairs(dim)
        assert iterate_distance(a, b, p) == norm_W21p(du, p) + norm_C10(du) + norm_C10(dm)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_last_row_norms_equal_the_public_norms(self, dim):
        grid = TorusGrid(dim=dim, n=16 if dim < 3 else 8, nt=8, T=0.01)
        m0 = Field.from_function(
            grid, lambda *x: 1.0 + 0.2 * np.prod([np.cos(2.0 * np.pi * xi) for xi in x], axis=0)
        )
        report = picard_solve(
            quadratic_mfg_model(dim), final_cost_convolution(grid), m0, grid, tol=1e-10,
        )
        assert report.status == "converged"
        state, row = report.final_state, report.rows[-1]
        # The final pair is a plain (u, m) pair: no derivative is kept.
        assert set(vars(state)) == {"u", "m"}
        assert row.norm_u_w21p == norm_W21p(state.u, report.p)
        assert row.norm_u_c10 == norm_C10(state.u)
        assert row.norm_m_c10 == norm_C10(state.m)
        assert row.min_m == float(np.min(state.m.values))
        Du = gradient_values(state.u.values, grid.h, grid.dim)
        assert row.max_Du == float(np.max(np.sqrt(np.sum(Du * Du, axis=0))))
        assert report.bounds["max_Du"] == row.max_Du
        assert report.bounds["min_m"] == row.min_m


class TestStencilCount:
    """Stencil work, counted where it happens.

    A gradient, a Hessian or a march check constructs one
    ``torus_grid._Periodic``; the cross stencil is counted per evaluation.
    A stencil entry is one component of a gradient or one entry of a
    Hessian, counted once per time slice it is evaluated on.
    """

    @staticmethod
    def count_stencils(monkeypatch) -> dict:
        counts = {"stencils": 0, "cross": 0, "entries": 0}

        def counted(key, fn, weight=lambda *args: 1):
            def wrapped(*args, **kwargs):
                counts[key] += weight(*args)
                return fn(*args, **kwargs)
            return wrapped

        def slices(periodic, *args):
            return periodic.values.size // np.prod(periodic.sizes)

        monkeypatch.setattr(
            torus_grid, "_Periodic", counted("stencils", torus_grid._Periodic)
        )
        monkeypatch.setattr(
            torus_grid, "_cross_difference", counted("cross", torus_grid._cross_difference)
        )
        for name in ("_gradient_entry", "_hessian_entry"):
            monkeypatch.setattr(torus_grid, name,
                                counted("entries", getattr(torus_grid, name), slices))
        return counts

    def sweep_counts(self, monkeypatch) -> dict:
        """The counts of one 2D sweep: the extra sweep of a 3-sweep solve over a 2-sweep one."""
        grid = TorusGrid(dim=2, n=16, nt=8, T=0.01)
        m0 = Field.from_function(
            grid, lambda x, y: 1.0 + 0.2 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
        )
        model, cost = quadratic_mfg_model(2), final_cost_convolution(grid)
        counts = self.count_stencils(monkeypatch)
        per_solve = []
        for sweeps in (2, 3):
            before = dict(counts)
            report = picard_solve(model, cost, m0, grid, tol=0.0, max_iter=sweeps)
            assert report.iterations == sweeps
            per_solve.append({key: counts[key] - before[key] for key in counts})
        return {key: per_solve[1][key] - per_solve[0][key] for key in counts}, grid

    def test_one_2d_sweep_evaluates_at_most_sixteen_stencil_entries(self, monkeypatch):
        sweep, grid = self.sweep_counts(monkeypatch)
        # The incoming pair's Du, D2u and Dm, the new density's gradient, and
        # the distance's gradients and Hessian of the differences: 16 entries
        # a slice, but the Hessian of du and the new density's gradient skip
        # slice nt.
        assert sweep["entries"] == 16 * (grid.nt + 1) - 5
        assert 0 < sweep["stencils"] <= 9
        # Only the incoming pair's Hessian and the Hessian of du build the
        # cross stencil; the march checks do not, as the mixed coefficient is
        # zero.
        assert sweep["cross"] == 2

    def test_a_sweep_takes_the_same_entries_a_slice_at_a_time(self, monkeypatch):
        whole, _ = self.sweep_counts(monkeypatch)
        monkeypatch.setattr(torus_grid, "_SLAB_BYTES", 1)
        sliced, grid = self.sweep_counts(monkeypatch)
        assert sliced["entries"] == whole["entries"]
        assert sliced["cross"] == 2 * (grid.nt + 1) - 1  # the Hessian of du skips slice nt

    def test_one_sweep_2d_solve_takes_the_gradient_of_m0_once(self, monkeypatch):
        # select_K's gradient of m0 is the one gradient of the datum: M1 reuses
        # its norm and the starting pair its values; the zero u needs no stencil.
        grid = TorusGrid(dim=2, n=16, nt=8, T=0.01)
        m0 = Field.from_function(
            grid, lambda x, y: 1.0 + 0.2 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
        )
        model, cost = quadratic_mfg_model(2), final_cost_convolution(grid)
        counts = self.count_stencils(monkeypatch)
        report = picard_solve(model, cost, m0, grid, tol=0.0, max_iter=1)
        assert report.iterations == 1
        # The final pass takes the pair's three derivatives and one march
        # check per equation.
        assert counts["stencils"] == 12

    def test_explicit_K_takes_the_gradient_of_m0_once(self, monkeypatch):
        # With K given, the norm behind M1 and the starting pair share one
        # gradient of m0, as with K derived.
        grid = TorusGrid(dim=2, n=16, nt=8, T=0.01)
        m0 = Field.from_function(
            grid, lambda x, y: 1.0 + 0.2 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
        )
        model, cost = quadratic_mfg_model(2), final_cost_convolution(grid)
        K = 2.0 * select_K(m0, cost.L_h, cost.C0, float(np.min(m0.values))).K
        counts = self.count_stencils(monkeypatch)
        report = picard_solve(model, cost, m0, grid, tol=0.0, max_iter=1, K=K)
        assert report.iterations == 1 and report.K == K
        assert counts["stencils"] == 12


class TestMemoryBudget:
    """What one solve holds at its peak, in stacks of ``(nt + 1) n^dim`` floats.

    A sweep runs over time slabs of about ``torus_grid._SLAB_BYTES`` per
    array, so its whole stacks are the two pairs, one source stack and one
    ``W21p`` integrand; the derivatives, magnitudes, source slabs and march
    modes of a slab are dropped before the next slab is taken.  At 2D n=32,
    nt=64 (three slabs of about 22 slices) the peak is 9.6 stacks for
    either model, where the whole-stack sweep took 15.4; in 3D at n=16,
    nt=48 (ten slabs of about 5 slices) it is 7.3.  Where one slab is the
    whole stack (2D n=16, nt=32), the slab holds every derivative of the
    pair at once, as the whole-stack sweep did, and the peak is 15.9
    stacks.  The 2D budget holds the peak under 10 stacks; the others are
    the measured peak in whole stacks plus one.
    """

    @staticmethod
    def peak_in_stacks(model, grid, traced_peak):
        m0 = Field.from_function(grid, lambda *x: 1.0 + 0.1 * np.cos(2.0 * np.pi * x[0])
                                 * np.cos(2.0 * np.pi * (x[1] - 0.2))
                                 + 0.05 * np.sin(4.0 * np.pi * x[-1]))
        cost = final_cost_convolution(grid)
        report, peak = traced_peak(lambda: picard_solve(model, cost, m0, grid))
        assert report.status == "converged" and report.iterations >= 5
        return peak / ((grid.nt + 1) * grid.num_points * 8)

    @pytest.mark.parametrize("model", [quadratic_mfg_model(2), congestion_model(dim=2)],
                             ids=["quadratic", "congestion"])
    def test_2d_solve_peak_within_budget(self, model, traced_peak):
        grid = TorusGrid(dim=2, n=32, nt=64, T=0.05)
        assert len(torus_grid._time_slabs(grid)) > 1
        peak = self.peak_in_stacks(model, grid, traced_peak)
        assert peak <= 10, f"peak {peak:.2f} stacks"

    @pytest.mark.parametrize("model", [quadratic_mfg_model(2), congestion_model(dim=2)],
                             ids=["quadratic", "congestion"])
    def test_one_slab_2d_solve_peak_within_budget(self, model, traced_peak):
        grid = TorusGrid(dim=2, n=16, nt=32, T=0.02)
        assert len(torus_grid._time_slabs(grid)) == 1
        peak = self.peak_in_stacks(model, grid, traced_peak)
        assert peak <= 17, f"peak {peak:.2f} stacks"

    def test_3d_solve_peak_within_budget(self, traced_peak):
        grid = TorusGrid(dim=3, n=16, nt=48, T=0.02)
        assert len(torus_grid._time_slabs(grid)) >= 4
        peak = self.peak_in_stacks(quadratic_mfg_model(3), grid, traced_peak)
        assert peak <= 8, f"peak {peak:.2f} stacks"


class TestSlabInvariance:
    """A solve gives the same bits whatever its slabs: a slice at a time or the whole stack."""

    @staticmethod
    def solve(model, grid, monkeypatch, slab_bytes, **kwargs):
        monkeypatch.setattr(torus_grid, "_SLAB_BYTES", slab_bytes)
        m0 = Field.from_function(grid, lambda *x: 1.0 + 0.2 * np.prod(
            [np.cos(2.0 * np.pi * (xi + 0.1 * i)) for i, xi in enumerate(x)], axis=0))
        return picard_solve(model, final_cost_convolution(grid), m0, grid, **kwargs)

    @staticmethod
    def assert_same(a, b):
        # repr is exact for floats, and equates the NaN gamma of the first row.
        assert (a.status, a.error) == (b.status, b.error)
        assert repr(a.rows) == repr(b.rows)
        assert repr(a.bounds) == repr(b.bounds) and repr(a.residuals) == repr(b.residuals)
        assert np.array_equal(a.final_state.u.values, b.final_state.u.values)
        assert np.array_equal(a.final_state.m.values, b.final_state.m.values)
        assert a.m1_violations == b.m1_violations and a.detrunc_ok == b.detrunc_ok

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", ["quadratic", "congestion"])
    def test_picard_solve(self, monkeypatch, name, dim):
        grid = TorusGrid(dim=dim, n=16 if dim < 3 else 8, nt=8, T=0.02)
        model = quadratic_mfg_model(dim) if name == "quadratic" else congestion_model(dim, 0.5)
        whole, sliced = (self.solve(model, grid, monkeypatch, slab_bytes, tol=1e-10)
                         for slab_bytes in (10**12, 1))
        assert whole.status == "converged" and whole.iterations >= 5
        self.assert_same(whole, sliced)

    def test_a_failed_sweep_leaves_the_same_report(self, monkeypatch):
        # Sweep 2 fails part of the way through its slabs, with the row of
        # sweep 1 pending: the final checks finish it.
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        model = model_with_sources(G=nan_once_u_moves)
        whole, sliced = (self.solve(model, grid, monkeypatch, slab_bytes, max_iter=20)
                         for slab_bytes in (10**12, 1))
        assert whole.status == "error" and whole.iterations == 1
        self.assert_same(whole, sliced)


class TestTracedNames:
    """``benchmark/tracing.py`` swaps these names in ``fixed_point`` while it traces.

    A refactor that drops one of the imports, or stops calling a sweep
    through the module's ``apply_T``, breaks the traced benchmark run.
    """

    NAMES = ("apply_T", "picard_solve", "iterate_distance", "solve_forward", "solve_backward",
             "select_K", "wrap_model", "gradient_values", "hessian_values", "norm_C1",
             "norm_C10", "norm_W21p", "time_derivative")

    def test_every_swapped_name_resolves(self):
        assert all(callable(getattr(fixed_point, name)) for name in self.NAMES)

    def test_each_sweep_goes_through_the_module_lookups(self, monkeypatch):
        calls = {"apply_T": 0, "iterate_distance": 0, "solve_backward": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(fixed_point, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(fixed_point, name, counted)
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        report = picard_solve(quadratic_mfg_model(1), final_cost_convolution(grid),
                              cosine_density(grid, 0.25), grid, tol=0.0, max_iter=3)
        assert report.iterations == 3
        assert calls == {name: 3 for name in calls}


class TestAgainstClosedForm:
    """The linear pair admits an exact eigenfunction solution; the iteration
    must land on it, inherit its per-mode gain, and blow up with it.

    One genuine feature of this model shapes the tolerances below: the
    final coupling ``u(T) = alpha m(T)`` does not smooth, so modes near the
    grid Nyquist frequency have sweep gain above one at *every* horizon
    (their critical horizons scale as 1/k²).  The data only excites the
    constant and first cosine mode, which contract; rounding noise seeds
    the unstable tail at ~1e-12 and overtakes once the excited modes have
    contracted a dozen orders.  Tolerances therefore sit above that floor
    — below it the run honestly reports divergence, which is the
    mechanism the model exists to exhibit.
    """

    def run(self, T, nt, amplitude=0.25, tol=1e-6, max_iter=80, n=32):
        grid = TorusGrid(dim=1, n=n, nt=nt, T=T)
        m0 = cosine_density(grid, amplitude)
        report = picard_solve(
            linear_counterexample_model(alpha=-3.0, dim=1),
            final_cost_scaled_identity(-3.0), m0, grid,
            tol=tol, max_iter=max_iter,
        )
        return grid, report

    def test_matches_eigenfunction_solution_within_scheme_error(self):
        T = 0.005
        grid, report = self.run(T, nt=64)
        assert report.status == "converged"
        sol = solve_spectral(-3.0, [(0, 1.0), (1, 0.25)], T)
        u_exact, m_exact = synthesize_fields(sol, grid)
        bound = 5.0 * (grid.h**2 + grid.dt)
        err_u = np.max(np.abs(report.final_state.u.values - u_exact.values))
        err_m = np.max(np.abs(report.final_state.m.values - m_exact.values))
        assert err_u <= bound
        assert err_m <= bound

    def test_contraction_factor_approaches_mode_gain(self):
        # After the constant mode settles, the sweep differences live on
        # the first cosine mode, whose gain is 3 (1 - e^{-2 lam T}) / 2.
        T = 0.005
        lam = 4.0 * math.pi**2
        gain = 1.5 * (1.0 - math.exp(-2.0 * lam * T))
        _, report = self.run(T, nt=64)
        assert report.status == "converged"
        assert report.gamma_history[-1] == pytest.approx(gain, abs=0.01)
        assert report.is_contraction

    def test_diverges_past_the_critical_horizon(self):
        _, report = self.run(1.2 * T_CRIT, nt=32, tol=1e-12, max_iter=60)
        assert report.status == "diverged"
        assert report.iterations <= 15
        assert not report.is_contraction

    def test_converged_iterate_outside_clamps_is_reported(self):
        # Below the critical horizon the iteration still converges, but the
        # amplified final gradient exceeds the threshold derived from the
        # data, and the run must say so rather than claim a full solution.
        _, report = self.run(0.8 * T_CRIT, nt=205, tol=0.05, max_iter=90)
        assert report.status == "converged"
        assert not report.detrunc_ok
        assert any("Du" in f for f in report.detrunc_failures)
        assert report.bounds["max_Du"] > report.K

    def test_small_data_stays_inside_clamps(self):
        _, report = self.run(0.8 * T_CRIT, nt=205, amplitude=0.05,
                             tol=0.02, max_iter=90)
        assert report.status == "converged"
        assert report.detrunc_ok
        assert report.detrunc_failures == ()

    def test_a_priori_ball_monitor_flags_amplified_solution(self):
        # With a large cosine component the converged value function leaves
        # the monitored ball; that is recorded but does not change status.
        _, report = self.run(0.8 * T_CRIT, nt=205, amplitude=0.9,
                             tol=0.25, max_iter=90)
        assert report.status == "converged"
        assert report.m1_violations != ()
        assert report.rows[report.m1_violations[0] - 1].iteration == report.m1_violations[0]


class TestQuadraticCoupling:
    def test_short_horizon_contraction_with_smoothing_cost(self):
        grid = TorusGrid(dim=1, n=16, nt=32, T=0.05)
        m0 = cosine_density(grid, 0.2)
        report = picard_solve(
            quadratic_mfg_model(dim=1), final_cost_convolution(grid), m0, grid,
            tol=1e-8, max_iter=40,
        )
        assert report.status == "converged"
        assert report.is_contraction
        assert report.max_gamma < 1.0
        assert report.detrunc_ok
        assert report.m1_violations == ()
        assert report.regularizing_final_cost
        assert np.all(report.final_state.m.values > 0.0)

    def test_equation_residuals_are_round_off_at_both_resolutions(self):
        # Each residual is taken at its march's implicit level (value
        # equation at slices 0..nt-1, density equation at 1..nt), where the
        # discrete equations coincide with the scheme; at a converged fixed
        # point both are round-off, at any resolution.
        for n, nt in ((16, 32), (32, 128)):
            grid = TorusGrid(dim=1, n=n, nt=nt, T=0.05)
            m0 = cosine_density(grid, 0.2)
            report = picard_solve(
                quadratic_mfg_model(dim=1), final_cost_convolution(grid),
                m0, grid, tol=1e-10, max_iter=60,
            )
            assert report.status == "converged"
            assert report.residuals["u"] < 1e-9
            assert report.residuals["m"] < 1e-9

    @pytest.mark.parametrize("model", [quadratic_mfg_model(dim=3), congestion_model(dim=3)],
                             ids=["quadratic", "congestion"])
    def test_3d_solve_converges_inside_the_clamps(self, model):
        grid = TorusGrid(dim=3, n=8, nt=16, T=0.02)
        m0 = Field.from_function(grid, lambda x, y, z: 1.0 + 0.2 * np.cos(2.0 * np.pi * x)
                                 * np.sin(2.0 * np.pi * z) + 0.1 * np.cos(2.0 * np.pi * y))
        report = picard_solve(model, final_cost_convolution(grid), m0, grid)
        assert report.status == "converged" and report.is_contraction
        assert report.detrunc_ok and report.p == 6.0
        assert report.residuals["u"] < 1e-11
        assert report.residuals["m"] < 1e-8


class TestResiduals:
    """Residual certificates of exactly solved discrete pairs are round-off."""

    @staticmethod
    def x_diffusion_model() -> CouplingModel:
        def diffusion(grid):
            (x,) = grid.coordinates()
            return (1.0 + 0.3 * np.sin(2.0 * np.pi * x))[None, None]

        return CouplingModel(
            name="x-diffusion", dim=1,
            F=lambda u, m, Du, Dm, x, t: np.zeros(np.shape(u)),
            G=lambda u, m, Du, Dm, D2u, x, t: np.zeros(np.shape(u)),
            diffusion_u=diffusion, diffusion_m=diffusion,
        )

    @pytest.mark.parametrize("which", ["decoupled", "x-dependent-diffusion"])
    def test_source_free_pair_1d(self, which):
        # Two heat equations, on this coarse step: a forward difference
        # against the backward-Euler density march would leave an O(1)
        # residual, and so would a diffusion contracted in the wrong layout.
        model = decoupled_heat_model(dim=1) if which == "decoupled" else self.x_diffusion_model()
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        m0 = cosine_density(grid, 0.25)
        report = picard_solve(
            model, final_cost_convolution(grid), m0, grid, tol=1e-12, max_iter=10,
        )
        assert report.status == "converged"
        assert report.residuals["u"] < 1e-9
        assert report.residuals["m"] < 1e-9

    @staticmethod
    def x_dependent_hamiltonian_model(A_calls=None, div_calls=None) -> CouplingModel:
        """A callable A with a mixed entry; ``A_calls``, ``div_calls`` count calls."""
        tau = 2.0 * np.pi

        def A(x, t):
            if A_calls is not None:
                A_calls.append(np.shape(x[0]))
            a = 0.5 + 0.1 * np.sin(tau * x[0]) + 0.05 * np.cos(tau * x[1])
            b = 0.05 * np.sin(tau * (x[0] + x[1]))
            return np.stack([np.stack([a, b]), np.stack([b, a])])

        def A_div1(x, t):
            if div_calls is not None:
                div_calls.append(np.shape(x[0]))
            b_x = 0.05 * tau * np.cos(tau * (x[0] + x[1]))
            return np.stack([
                0.1 * tau * np.cos(tau * x[0]) + b_x,
                b_x - 0.05 * tau * np.sin(tau * x[1]),
            ])

        def A_div2(x, t):
            return -tau**2 * (
                0.1 * np.sin(tau * x[0]) + 0.05 * np.cos(tau * x[1])
                + 0.1 * np.sin(tau * (x[0] + x[1]))
            )

        spec = HamiltonianSpec(
            H=lambda x, t, p, m: 0.5 * np.sum(p * p, axis=0) - m,
            H_p=lambda x, t, p, m: p,
            H_pp=lambda x, t, p, m: np.broadcast_to(
                np.eye(2).reshape((2, 2) + (1,) * (p.ndim - 1)), (2, 2) + p.shape[1:]
            ),
            A=A, A_div1=A_div1, A_div2=A_div2,
        )
        return build_mfg_coupling(spec, dim=2)

    @staticmethod
    def hamiltonian_problem():
        grid = TorusGrid(dim=2, n=16, nt=8, T=0.01)
        m0 = Field.from_function(
            grid,
            lambda x, y: 1.0 + 0.2 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y),
        )
        return grid, m0, final_cost_convolution(grid)

    def test_x_dependent_hamiltonian_diffusion_2d(self):
        # Its divergences enter G, and A, A_div1, A_div2 and H all receive
        # the stacked x and t.
        grid, m0, cost = self.hamiltonian_problem()
        report = picard_solve(
            self.x_dependent_hamiltonian_model(), cost, m0, grid, tol=1e-12, max_iter=40,
        )
        assert report.status == "converged"
        assert report.detrunc_ok
        assert report.residuals["u"] < 1e-9
        assert report.residuals["m"] < 1e-9


    def test_callable_diffusion_is_evaluated_once_per_solve(self):
        grid, m0, cost = self.hamiltonian_problem()
        per_solve = []
        for sweeps in (3, 13):
            calls = []
            model = self.x_dependent_hamiltonian_model(calls)
            calls.clear()  # the build-time derivative probes
            report = picard_solve(model, cost, m0, grid, tol=0.0, max_iter=sweeps)
            assert report.iterations == sweeps
            assert all(shape == (grid.nt + 1, *grid.shape) for shape in calls)
            per_solve.append(len(calls))
        assert per_solve[0] == per_solve[1] <= 2

    def test_divergences_are_evaluated_once_per_solve(self):
        # Every sweep and the residual certificate get the solve's one (x, t),
        # so G evaluates A_div1 and A_div2 on the first sweep only.
        grid, m0, cost = self.hamiltonian_problem()
        calls = []
        model = self.x_dependent_hamiltonian_model(div_calls=calls)
        reports = []
        for sweeps in (1, 4):
            calls.clear()  # the build-time probes, or the solve before
            reports.append(picard_solve(model, cost, m0, grid, tol=0.0, max_iter=sweeps))
            assert calls == [(grid.nt + 1, *grid.shape)]
        # The first sweep of either solve is the same sweep.
        assert reports[0].rows[0] == reports[1].rows[0]

    def test_divergences_are_evaluated_once_per_slab_and_solve(self, monkeypatch):
        # A slice per slab: G keeps each slab's divergences, so a solve
        # evaluates them once per slab however many sweeps it makes.
        monkeypatch.setattr(torus_grid, "_SLAB_BYTES", 1)
        grid, m0, cost = self.hamiltonian_problem()
        calls = []
        model = self.x_dependent_hamiltonian_model(div_calls=calls)
        for sweeps in (1, 4):
            calls.clear()
            picard_solve(model, cost, m0, grid, tol=0.0, max_iter=sweeps)
            assert calls == [(1, *grid.shape)] * (grid.nt + 1)

    @staticmethod
    def reference_residual_stacks(model, state):
        """The residual stacks by the tensor formulas, each with its largest term.

        A full ``D2m`` and one product stack each; the terms are the time
        difference, the diffusion term and the source on the slices the
        equation samples.
        """
        grid = state.grid
        u, m = state.u.values, state.m.values
        x, t = grid.space_time_coordinates()
        Du, Dm = (gradient_values(f, grid.h, grid.dim) for f in (u, m))
        D2u, D2m = (hessian_values(f, grid.h, grid.dim) for f in (u, m))
        c_u, c_m = (
            ParabolicProblem(grid, model.diffusion_values(grid, eq)).coefficients()
            for eq in ("u", "m")
        )
        F = model.F(u, m, Du, Dm, x, t)
        G = model.G(u, m, Du, Dm, D2u, x, t)
        terms_u = (-time_derivative(state.u)[:-1],
                   -np.sum(c_u * D2u, axis=(0, 1))[:-1], F[:-1])
        terms_m = (time_derivative(state.m)[:-1], -np.sum(c_m * D2m, axis=(0, 1))[1:], G[1:])
        return tuple((sum(terms), max(np.max(np.abs(term)) for term in terms))
                     for terms in (terms_u, terms_m))

    @pytest.mark.parametrize("case", ["quadratic-1d", "quadratic-2d", "quadratic-3d",
                                      "congestion-2d", "x-dependent-mixed-2d", "t-dependent-1d"])
    def test_residual_stacks_are_the_step_residuals_over_dt(self, case):
        # Bitwise the march check's step residual with the untruncated
        # sources over dt, and the tensor formulas up to rounding.
        kind, dim = case.rsplit("-", 1)
        dim = int(dim[0])
        grid = TorusGrid(dim=dim, n=16 if dim < 3 else 8, nt=8, T=0.01)
        m0 = Field.from_function(grid, lambda *x: 1.0 + 0.2 * np.prod(
            [np.cos(2.0 * np.pi * (xi + 0.1 * i)) for i, xi in enumerate(x)], axis=0))
        model = {
            "quadratic": lambda: quadratic_mfg_model(dim),
            "congestion": lambda: congestion_model(dim=dim, alpha=0.5),
            "x-dependent-mixed": self.x_dependent_hamiltonian_model,
            "t-dependent": lambda: replace(
                quadratic_mfg_model(1),
                diffusion_u=lambda g: (1.0 + g.times())[:, None, None],
                diffusion_m=lambda g: (1.0 + 2.0 * g.times())[:, None, None],
            ),
        }[kind]()
        report = picard_solve(model, final_cost_convolution(grid), m0, grid, tol=0.0, max_iter=3)
        assert report.iterations == 3
        state = report.final_state
        u, m = state.u.values, state.m.values
        got = _pde_residual_stacks(model, state)
        x, t = grid.space_time_coordinates()
        Du, Dm = (gradient_values(f, grid.h, grid.dim) for f in (u, m))
        D2u = hessian_values(u, grid.h, grid.dim)
        c_u, c_m = (
            ParabolicProblem(grid, model.diffusion_values(grid, eq)).coefficients()
            for eq in ("u", "m")
        )
        # Each equation's steps: the value equation's, slices 0 .. nt-1, as
        # the reversed views of a backward march; the density's, 1 .. nt.
        def rows(c, s):  # the time-dependent coefficients of the slices s
            return c[:, :, s] if c.shape[2] > 1 else c

        F, G = model.F(u, m, Du, Dm, x, t), model.G(u, m, Du, Dm, D2u, x, t)
        steps = (
            parabolic._step_residuals(grid, rows(c_u, slice(None, -1))[:, :, ::-1],
                                      F[:-1][::-1], u[::-1])[0],
            parabolic._step_residuals(grid, rows(c_m, slice(1, None)), G[1:], m)[0],
        )
        assert all(np.array_equal(a, b / grid.dt) for a, b in zip(got, steps))
        expected = self.reference_residual_stacks(model, state)
        for a, (b, largest) in zip(got, expected):
            assert np.max(np.abs(a - b)) <= 1e-12 * largest
        assert 0.0 < np.max(np.abs(got[1]))

    def test_residual_stacks_do_not_depend_on_the_memory_layout(self):
        # Only the reversed view of u is read as a backward march: a pair
        # held in time-reversed memory gives the same stacks.
        grid, m0, cost = self.hamiltonian_problem()
        model = self.x_dependent_hamiltonian_model()
        report = picard_solve(model, cost, m0, grid, tol=0.0, max_iter=2)
        u, m = report.final_state.u, report.final_state.m
        flipped = IterateState(*(SpaceTimeField(grid, f.values[::-1].copy()[::-1]) for f in (u, m)))
        assert flipped.u.values.strides[0] < 0
        expected = _pde_residual_stacks(model, IterateState(u, m))
        got = _pde_residual_stacks(model, flipped)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_callable_diffusion_is_factored_once_per_march(self, monkeypatch):
        # The model broadcasts A(x, t) over time; equal slices collapse, so
        # neither march refactors per step.
        grid, m0, cost = self.hamiltonian_problem()
        calls = []
        factor = parabolic._factor
        monkeypatch.setattr(parabolic, "_factor", lambda A: calls.append(1) or factor(A))
        report = picard_solve(
            self.x_dependent_hamiltonian_model(), cost, m0, grid, tol=0.0, max_iter=3,
        )
        assert report.iterations == 3
        assert len(calls) == 2 * report.iterations


class TestResidualFailures:
    @staticmethod
    def state_with_density(grid: TorusGrid, m: np.ndarray) -> IterateState:
        u = np.zeros((grid.nt + 1, *grid.shape))
        return IterateState(SpaceTimeField(grid, u), SpaceTimeField(grid, m))

    def test_nonpositive_density_gives_nan_and_a_reason(self):
        grid = TorusGrid(dim=2, n=8, nt=4, T=0.01)
        m = np.ones((grid.nt + 1, *grid.shape))
        m[-1, 0, 0] = -0.5
        residuals = _pde_residuals(
            congestion_model(dim=2, alpha=1.0), self.state_with_density(grid, m)
        )
        assert math.isnan(residuals["u"]) and math.isnan(residuals["m"])
        assert residuals["reason"].startswith("ValueError")

    def test_a_finite_pair_has_no_reason(self):
        grid = TorusGrid(dim=2, n=8, nt=4, T=0.01)
        residuals = _pde_residuals(
            congestion_model(dim=2, alpha=1.0),
            self.state_with_density(grid, np.ones((grid.nt + 1, *grid.shape))),
        )
        assert set(residuals) == {"u", "m"}
        assert math.isfinite(residuals["u"]) and math.isfinite(residuals["m"])

    def test_other_model_errors_propagate(self):
        def G(u, m, Du, Dm, D2u, x, t):
            raise TypeError("G takes no stacked arguments")

        grid = TorusGrid(dim=1, n=8, nt=4, T=0.01)
        state = self.state_with_density(grid, np.ones((grid.nt + 1, grid.n)))
        with pytest.raises(TypeError, match="stacked"):
            _pde_residuals(model_with_sources(G=G), state)


def nan_once_u_moves(u, m, Du, Dm, D2u, x, t):
    """Density source that is zero on the starting pair (u = 0), NaN after."""
    return np.full(np.shape(u), np.nan if np.any(u != 0.0) else 0.0)


class TestSweepFailures:
    """A sweep that raises ends the run in status "error", history kept."""

    @staticmethod
    def assert_history_of_one_sweep(report, model, cost, m0, grid):
        first = picard_solve(model, cost, m0, grid, max_iter=1)
        assert report.status == "error"
        assert report.iterations == 1
        assert report.rows == first.rows
        assert report.distance_history == first.distance_history
        assert np.array_equal(report.final_state.u.values, first.final_state.u.values)
        assert np.array_equal(report.final_state.m.values, first.final_state.m.values)
        assert report.bounds == first.bounds

    def test_final_cost_leaving_its_domain(self):
        grid = TorusGrid(dim=1, n=32, nt=16, T=0.05)
        m0 = Field.from_function(grid, lambda x: 1.0 + 0.3 * np.cos(2.0 * np.pi * x))
        R, a = norm_C1(m0), 5.0
        # h0(s) = -a s^2 has certified bounds only on the C1 ball of m0.
        cost = final_cost_convolution(
            grid, h0=lambda s: -a * s * s,
            derivative_bounds=(2.0 * a * R, 2.0 * a, 0.0), input_range=R,
        )
        model = quadratic_mfg_model(1)
        report = picard_solve(model, cost, m0, grid, max_iter=20)
        assert report.error.startswith("sweep 2: ValueError: density has C1 norm")
        self.assert_history_of_one_sweep(report, model, cost, m0, grid)

    @pytest.mark.parametrize("slot", ["F writes Du", "G writes D2u"])
    def test_model_writing_into_a_derivative_is_an_error(self, slot):
        # A clamp that cuts nothing hands the slab's Du on as a read-only
        # view, and D2u is always one: the write fails instead of corrupting
        # the derivatives the sweep shares between G, F and the row.
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        m0 = cosine_density(grid, 0.25)

        def F(u, m, Du, Dm, x, t):
            Du[0] = 1.0
            return np.zeros(np.shape(u))

        def G(u, m, Du, Dm, D2u, x, t):
            D2u[0, 0] = 1.0
            return np.zeros(np.shape(u))

        model = model_with_sources(F=F) if slot == "F writes Du" else model_with_sources(G=G)
        report = picard_solve(model, final_cost_convolution(grid), m0, grid)
        assert report.status == "error" and report.iterations == 0
        assert report.error.startswith("sweep 1: ValueError:")
        assert "read-only" in report.error

    def test_nonfinite_source_is_a_solver_error(self):
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        m0 = cosine_density(grid, 0.25)
        model = model_with_sources(G=nan_once_u_moves)
        cost = final_cost_convolution(grid)
        report = picard_solve(model, cost, m0, grid, max_iter=20)
        assert report.error == (
            "sweep 2: SolverError: non-finite values produced by the march"
        )
        self.assert_history_of_one_sweep(report, model, cost, m0, grid)
        row, = horizon_sweep(model, cost, m0, [grid.T], dt=grid.dt, max_iter=20)
        assert (row.status, row.iterations, row.error) == ("error", 1, report.error)


class TestHorizonSweep:
    def test_statuses_flip_across_the_critical_horizon(self):
        grid = TorusGrid(dim=1, n=32, nt=8, T=T_CRIT)
        m0 = cosine_density(grid, 0.25)
        rows = horizon_sweep(
            linear_counterexample_model(alpha=-3.0, dim=1),
            final_cost_scaled_identity(-3.0), m0,
            [0.5 * T_CRIT, 1.2 * T_CRIT],
            dt=T_CRIT / 256.0, tol=1e-4, max_iter=80,
        )
        assert [r.status for r in rows] == ["converged", "diverged"]
        assert rows[0].nt == 128
        assert rows[1].nt == 307
        assert rows[0].detrunc_ok
        assert rows[0].max_gamma < 1.0

    def test_one_final_cost_serves_every_horizon(self):
        # A cost built on the configured grid gives every horizon the row
        # that a cost built on the horizon's own grid gives.
        grid = TorusGrid(dim=1, n=32, nt=8, T=0.04)
        m0 = cosine_density(grid, 0.25)
        model = quadratic_mfg_model(dim=1)
        rows = horizon_sweep(
            model, final_cost_convolution(grid), m0,
            [0.02, 0.04], dt=0.005, tol=1e-8, max_iter=100,
        )
        expected = []
        for T, nt in ((0.02, 4), (0.04, 8)):
            g = TorusGrid(dim=1, n=32, nt=nt, T=T)
            report = picard_solve(model, final_cost_convolution(g), m0.with_grid(g), g,
                                  tol=1e-8, max_iter=100)
            expected.append(SweepRow(
                T=T, nt=nt, status=report.status, iterations=report.iterations,
                final_distance=report.final_distance, max_gamma=report.max_gamma,
                min_m=report.bounds["min_m"], detrunc_ok=report.detrunc_ok,
            ))
        assert rows == expected
        assert [r.status for r in rows] == ["converged", "converged"]

    def test_failures_are_captured_per_row(self):
        def boom(u, m, Du, Dm, x, t):
            raise RuntimeError("boom")

        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        m0 = cosine_density(grid, 0.25)
        rows = horizon_sweep(
            model_with_sources(F=boom),
            final_cost_scaled_identity(1.0), m0,
            [0.01, 0.02], dt=0.0025, tol=1e-6, max_iter=5,
        )
        assert all(r.status == "error" for r in rows)
        assert all("RuntimeError: boom" in r.error for r in rows)

    def test_rejects_empty_list_and_bad_step(self):
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        m0 = cosine_density(grid, 0.25)
        model = decoupled_heat_model(dim=1)
        cost = final_cost_scaled_identity(1.0)
        with pytest.raises(ValueError, match="T_list"):
            horizon_sweep(model, cost, m0, [], dt=0.01)
        with pytest.raises(ValueError, match="dt"):
            horizon_sweep(model, cost, m0, [0.01], dt=0.0)
        # 1e308 / dt overflows: the sweep raises before the first horizon
        # runs, not with an OverflowError on the second.
        with pytest.raises(ValueError, match="too small"):
            horizon_sweep(model, cost, m0, [0.01, 1e308], dt=0.0025)
        # dt is positive, but the horizon's own step T/nt underflows to 0.
        with pytest.raises(ValueError, match="underflows"):
            horizon_sweep(model, cost, m0, [5e-324], dt=5e-324)
        # An infinite dt used to run every horizon at nt=2, and an infinite
        # horizon to overflow int(round(T / dt)) after the finite ones ran.
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            horizon_sweep(model, cost, m0, [0.01], dt=math.inf)
        with pytest.raises(ValueError, match="every horizon must be positive and finite"):
            horizon_sweep(model, cost, m0, [0.01, math.inf], dt=0.01)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(tol=-1.0), "tol must be nonnegative"),
        (dict(max_iter=0), "max_iter must be an integer"),
        (dict(p=1.5), "exponent p must be >= 2"),
        (dict(K=0.5), "must reach the admissible threshold"),
        (dict(delta=2.0), "initial density violates its floor"),
        (dict(tol=math.inf), "tol must be nonnegative and finite"),
        (dict(K=math.inf), "K=inf must be finite"),
        (dict(m0=np.inf), "initial density must be finite"),
        (dict(m0=0.0), "initial density must be strictly positive"),
    ])
    def test_rejects_what_picard_solve_rejects_before_any_horizon(self, kwargs, message):
        grid = TorusGrid(dim=1, n=16, nt=8, T=0.01)
        m0 = cosine_density(grid, 0.25)
        if "m0" in kwargs:
            m0.values[3] = kwargs.pop("m0")
        with pytest.raises(ValueError, match=message):
            horizon_sweep(decoupled_heat_model(dim=1), final_cost_convolution(grid), m0,
                          [0.01, 0.02], dt=0.0025, **kwargs)

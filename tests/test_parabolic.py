from __future__ import annotations

from dataclasses import replace
from functools import reduce
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from fbmfg import parabolic
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

    def test_mixed_diffusion_oracle(self):
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
        "C, crosses",
        [
            ([[1.0, 0.0], [0.0, 0.6]], 0),
            ([[1.0, 0.25], [0.25, 1.0]], 1),
            # One cross stencil per axis pair with a nonzero coefficient.
            ([[1.0, 0.0, 0.0], [0.0, 0.8, 0.2], [0.0, 0.2, 0.9]], 1),
            ([[1.0, 0.1, -0.2], [0.1, 0.8, 0.2], [-0.2, 0.2, 0.9]], 3),
        ],
    )
    def test_march_check_builds_the_cross_stencil_only_when_needed(
        self, monkeypatch, C, crosses
    ):
        calls = []
        cross = torus_grid._cross_difference

        def counted(*args):
            calls.append(args)
            return cross(*args)

        monkeypatch.setattr(torus_grid, "_cross_difference", counted)
        g = TorusGrid(dim=len(C), n=16 if len(C) == 2 else 8, nt=8, T=0.001)
        v0 = np.random.default_rng(29).normal(size=g.shape)
        solve_forward(ParabolicProblem(grid=g, diffusion=np.array(C), initial=Field(g, v0)))
        assert len(calls) == crosses


def check_march(problem, v):
    """Check the finished march ``v`` (march order) as a march checks itself, slab by slab."""
    march = parabolic._March(problem, v)
    for steps in torus_grid._time_slabs(problem.grid, 1):
        parabolic._check_march(march, steps, problem.source[steps])
    march.finish()


def step_inputs(problem):
    """``(coefficients, source)`` of the steps ``1 .. nt`` of a problem, in march order."""
    c = problem.coefficients()
    return (c[:, :, 1:] if problem.time_dependent else c), problem.source[1:]


class TestMarchCheck:
    """The march check passes an exact march and rejects a corrupted one.

    dt/h^2 is about one, so a zero-mean perturbation ``δ`` of slice ``j``
    leaves the residual ``(I + dt L) δ`` at step ``j`` clearly above the
    ``-δ`` it leaves at step ``j + 1``: the check must name slice ``j``.
    """

    @staticmethod
    def diffusion(kind, g):
        x, y = g.coordinates()
        growth = 1.0 + g.times()  # the factor of the t-dependent kinds
        space = np.array([[1.0 + 0.3 * np.sin(TWO_PI * x), 0.2 * np.cos(TWO_PI * y)],
                          [0.2 * np.cos(TWO_PI * y), 0.8 + 0.2 * np.cos(TWO_PI * y)]])
        if kind == "constant":
            return np.diag([1.0, 0.6])
        if kind == "mixed":
            return np.array([[1.0, 0.25], [0.25, 0.8]])
        if kind == "x-dependent":
            return space * np.eye(2)[:, :, None, None]
        if kind == "t-dependent":
            return growth[:, None, None] * np.diag([1.0, 0.6])
        return growth[:, None, None, None, None] * space  # mixed, x- and t-dependent

    KINDS = ["constant", "mixed", "x-dependent", "t-dependent", "mixed-xt"]

    def exact_march(self, kind):
        g = TorusGrid(dim=2, n=8, nt=8, T=0.1)
        rng = np.random.default_rng(59)
        problem = ParabolicProblem(
            grid=g, diffusion=self.diffusion(kind, g),
            source=rng.normal(size=(g.nt + 1, *g.shape)),
            initial=Field(g, 1.0 + 0.3 * rng.normal(size=g.shape)),
        )
        return problem, solve_forward(problem).values.copy()

    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_march_passes(self, kind):
        problem, v = self.exact_march(kind)
        check_march(problem, v)

    @pytest.mark.parametrize("j", [1, 4, 7, 8])
    @pytest.mark.parametrize("kind", KINDS)
    def test_perturbed_slice_is_rejected(self, kind, j):
        problem, v = self.exact_march(kind)
        noise = np.random.default_rng(61 + j).normal(size=v[j].shape)
        v[j] += 1e-6 * np.max(np.abs(v[j])) * (noise - noise.mean())
        with pytest.raises(SolverError, match=rf"march residual .* at slice {j}$"):
            check_march(problem, v)

    def backward_march(self, kind):
        """A backward solve's reversed problem and its output in march order (a reversed view)."""
        problem, _ = self.exact_march(kind)
        problem = replace(problem, initial=None, final=problem.initial)
        values = solve_backward(problem).values.copy()
        return parabolic._reverse_in_time(problem), values[::-1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_reversed_views_pass_and_take_no_copy(self, monkeypatch, kind):
        reversed_problem, v = self.backward_march(kind)
        assert v.strides[0] < 0 and reversed_problem.source.strides[0] < 0
        contiguous = []
        periodic = torus_grid._Periodic
        monkeypatch.setattr(torus_grid, "_Periodic", lambda values, h, dim: (
            contiguous.append(values.flags.c_contiguous) or periodic(values, h, dim)))
        check_march(reversed_problem, v)
        assert contiguous == [True]

    @pytest.mark.parametrize("j", [1, 4, 8])
    @pytest.mark.parametrize("kind", ["constant", "mixed-xt"])
    def test_perturbed_slice_of_a_reversed_march_is_named_in_march_order(self, kind, j):
        reversed_problem, v = self.backward_march(kind)
        noise = np.random.default_rng(67 + j).normal(size=v[j].shape)
        v[j] += 1e-6 * np.max(np.abs(v[j])) * (noise - noise.mean())
        with pytest.raises(SolverError, match=rf"march residual .* at slice {j}$"):
            check_march(reversed_problem, v)

    def test_one_dimensional_march(self):
        g, problem = make_problem_1d(n=16, nt=8, T=0.01)
        problem.initial = Field.from_function(g, lambda x: heat_exact_1d(x, 0.0))
        v = solve_forward(problem).values.copy()
        check_march(problem, v)
        v[3, 5] *= 1.0 + 1e-6
        with pytest.raises(SolverError, match=r"march residual .* at slice 3$"):
            check_march(problem, v)


class TestSlabs:
    """A march gives the same bits whatever its slabs: a slice at a time or the whole stack."""

    @pytest.mark.parametrize("kind", TestMarchCheck.KINDS)
    def test_marches_are_bitwise_the_same_for_any_slab_size(self, monkeypatch, kind):
        problem, _ = TestMarchCheck().exact_march(kind)
        backward = replace(problem, initial=None, final=problem.initial)
        runs = []
        for slab_bytes in (1, 10**12):
            monkeypatch.setattr(torus_grid, "_SLAB_BYTES", slab_bytes)
            runs.append((solve_forward(problem).values, solve_backward(backward).values))
        assert len(torus_grid._time_slabs(problem.grid, 1)) == 1
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    @pytest.mark.parametrize("j", [1, 4, 8])
    @pytest.mark.parametrize("kind", ["constant", "mixed-xt"])
    def test_the_check_names_the_slice_a_slice_at_a_time(self, monkeypatch, kind, j):
        monkeypatch.setattr(torus_grid, "_SLAB_BYTES", 1)
        check = TestMarchCheck()
        for problem, v in (check.exact_march(kind), check.backward_march(kind)):
            noise = np.random.default_rng(71 + j).normal(size=v[j].shape)
            v[j] += 1e-6 * np.max(np.abs(v[j])) * (noise - noise.mean())
            with pytest.raises(SolverError, match=rf"march residual .* at slice {j}$"):
                check_march(problem, v)


class TestStepResiduals:
    """``_step_residuals`` is the arithmetic the march check has always reduced.

    The reference writes that formula out per direction on memory-order
    arrays: a forward march's step ``j`` at row ``j - 1``, a backward
    march's (reversed problem, reversed view) at row ``nt - j``.
    """

    @staticmethod
    def reference(problem, v):
        g = problem.grid
        c = problem.coefficients()
        if v.strides[0] < 0:
            u, source, new, old = v[::-1], problem.source[::-1], slice(None, -1), slice(1, None)
            c = c[:, :, ::-1]
        else:
            u, source, new, old = v, problem.source, slice(1, None), slice(None, -1)
        if problem.time_dependent:
            c = c[:, :, new]
        rhs = u[old] - g.dt * source[new]
        res = u[new] - rhs
        torus_grid.subtract_second_order(u[new], g.dt * c, g.h, g.dim, out=res)
        return res, rhs

    @pytest.mark.parametrize("kind", TestMarchCheck.KINDS)
    def test_forward_march(self, kind):
        problem, v = TestMarchCheck().exact_march(kind)
        got = parabolic._step_residuals(problem.grid, *step_inputs(problem), v)
        expected = self.reference(problem, v)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.parametrize("kind", TestMarchCheck.KINDS)
    def test_backward_march(self, kind):
        reversed_problem, v = TestMarchCheck().backward_march(kind)
        got = parabolic._step_residuals(reversed_problem.grid, *step_inputs(reversed_problem), v)
        expected = self.reference(reversed_problem, v)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        # Row nt - j is backward step j: its right-hand side reads u_{nt-j+1}.
        g = reversed_problem.grid
        u, F = v[::-1], reversed_problem.source[::-1]
        assert np.array_equal(got[1][0], u[1] - g.dt * F[0])


# ---------------------------------------------------------------------------
# Reference matrices built the old way, from periodic shift matrices with
# kron/diags: S @ vec(v) == vec(np.roll(v, s, axis)).
# ---------------------------------------------------------------------------


def reference_shift(n, dim, axis, s):
    rows = np.arange(n)
    s1 = sp.csr_matrix((np.ones(n), (rows, (rows - s) % n)), shape=(n, n))
    eye = sp.identity(n, format="csr")
    factors = [s1 if k == axis else eye for k in range(dim)]
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), factors).tocsr()


def reference_second_diff(n, dim, axis, h):
    plus, minus = reference_shift(n, dim, axis, -1), reference_shift(n, dim, axis, 1)
    return (plus + minus - 2.0 * sp.identity(n**dim, format="csr")) / (h * h)


def reference_first_diff(n, dim, axis, h):
    return (reference_shift(n, dim, axis, -1) - reference_shift(n, dim, axis, 1)) / (2.0 * h)


def reference_spatial_operator(n, dim, h, c):
    L = sp.csr_matrix((n**dim, n**dim))
    for i in range(dim):
        L = L - sp.diags(np.ravel(c[i, i])) @ reference_second_diff(n, dim, i, h)
    for i, j in combinations(range(dim), 2):
        cross = reference_first_diff(n, dim, i, h) @ reference_first_diff(n, dim, j, h)
        L = L - 2.0 * sp.diags(np.ravel(c[i, j])) @ cross
    return L


def reference_conservative_matrix(n, dim, h, dt, c, velocity):
    """``I - dt (D + adv)`` for one step (``c``: ``(dim, dim) + spatial``)."""
    eye = sp.identity(n**dim, format="csr")
    D = sum(reference_second_diff(n, dim, i, h) @ sp.diags(np.ravel(c[i, i])) for i in range(dim))
    adv = sp.csr_matrix((n**dim, n**dim))
    for ax in range(dim):
        face = 0.5 * (velocity[ax] + np.roll(velocity[ax], -1, axis=ax))
        flux = sp.diags(np.ravel(np.maximum(face, 0.0))) + sp.diags(
            np.ravel(np.minimum(face, 0.0))
        ) @ reference_shift(n, dim, ax, -1)
        adv = adv - (1.0 / h) * ((eye - reference_shift(n, dim, ax, 1)) @ flux)
    return eye - dt * (D + adv)


def relative_gap(new, ref):
    new, ref = new.toarray(), ref.toarray()
    return np.max(np.abs(new - ref)) / np.max(np.abs(ref))


def small_grid(dim, n, dt=1e-3):
    # TorusGrid asks for n >= 8; the assemblers read only these attributes.
    return SimpleNamespace(dim=dim, n=n, h=1.0 / n, dt=dt, shape=(n,) * dim)


def random_diffusion(rng, dim, n, mixed, lead=()):
    c = np.zeros((dim, dim) + lead + (n,) * dim)
    for i in range(dim):
        c[i, i] = rng.uniform(0.5, 1.5, lead + (n,) * dim)
    for i, j in combinations(range(dim), 2) if mixed else ():
        c[i, j] = c[j, i] = rng.uniform(-0.2, 0.2, lead + (n,) * dim)
    return c


def coo_assembly(data, rows, columns, size, kind):
    """The canonical ``kind`` matrix that scipy's COO conversion makes of the entries."""
    coo = sp.coo_matrix((np.ravel(data), (np.ravel(rows), np.ravel(columns))), shape=(size, size))
    return coo.tocsr() if kind == "csr" else coo.tocsc()


def assert_same_arrays(new, ref):
    assert new.format == ref.format
    for name in ("indptr", "indices", "data"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestStencilAssembler:
    """The stencil matrices against the shift-matrix reference.

    ``n = 2`` puts the ``-e_i`` and ``+e_i`` entries of a row (and all four
    corners) on one column: the builder keeps them as duplicate entries,
    which every scipy operation (and ``splu``) sums.
    """

    CASES = [(1, 2, False), (1, 3, False), (1, 8, False),
             (2, 2, False), (2, 3, False), (2, 8, False),
             (2, 2, True), (2, 3, True), (2, 8, True),
             (3, 2, False), (3, 3, True), (3, 8, False), (3, 8, True)]
    # Every entry on a column of its own.
    DISTINCT = [case for case in CASES if case[1] > 2]

    @pytest.mark.parametrize("dim, n, mixed", CASES)
    def test_spatial_operator_matches_reference(self, dim, n, mixed):
        rng = np.random.default_rng(100 * dim + n)
        grid = small_grid(dim, n)
        c = random_diffusion(rng, dim, n, mixed)
        new = parabolic._spatial_operator(grid, c)
        assert new.format == "csr"
        assert relative_gap(new, reference_spatial_operator(n, dim, grid.h, c)) <= 1e-14

    @pytest.mark.parametrize("dim, n, cross",
                             DISTINCT + [(1, 9, False), (2, 9, True), (3, 9, True)])
    def test_builder_equals_the_coo_assembly(self, dim, n, cross):
        columns = parabolic._shifted_points(n, dim, cross, 1)
        data = np.random.default_rng(500 * dim + n).normal(size=columns.shape)
        rows = np.broadcast_to(np.arange(n**dim), columns.shape)
        assert_same_arrays(parabolic._stencil_matrix(data, columns),
                           coo_assembly(data, rows, columns, n**dim, "csr"))

    @staticmethod
    def conservative_case(dim, n, mixed, seed, steps=3):
        # The audit takes no mixed term: its matrices ignore c_01.
        rng = np.random.default_rng(seed)
        grid = small_grid(dim, n)
        c = random_diffusion(rng, dim, n, mixed, lead=(steps,))
        velocity = rng.normal(size=(steps, dim) + grid.shape)
        refs = [reference_conservative_matrix(n, dim, grid.h, grid.dt, c[:, :, j], velocity[j])
                for j in range(steps)]
        return rng, grid, parabolic._conservative_rates(grid, c, velocity), refs

    @staticmethod
    def step_matrices(columns, n, dim):
        """The CSC matrix of every step as the audit factors it: the transpose of A^T's CSR."""
        targets = parabolic._shifted_points(n, dim, False, 1)
        return [parabolic._stencil_matrix(column, targets).T for column in columns]

    @staticmethod
    def flat_index(n, dim):
        """Where row p gathers entry k: at k n^dim + p - offset_k of the flat products."""
        sources = parabolic._shifted_points(n, dim, False, -1)
        return sources + n**dim * np.arange(len(sources))[:, np.newaxis]

    @pytest.mark.parametrize("dim, n, mixed", CASES)
    def test_conservative_matrices_match_reference(self, dim, n, mixed):
        _, grid, columns, refs = self.conservative_case(dim, n, mixed, 200 * dim + n)
        assert len(columns) == len(refs)
        for new, ref in zip(self.step_matrices(columns, n, dim), refs):
            assert new.format == "csc"
            assert relative_gap(new, ref) <= 1e-14

    @pytest.mark.parametrize("dim, n, mixed", DISTINCT)
    def test_step_matrix_equals_the_column_assembly(self, dim, n, mixed):
        # Transposed from A^T's CSR, a step's matrix is bitwise the CSC matrix
        # its columns assemble to.
        _, grid, columns, _ = self.conservative_case(dim, n, mixed, 600 * dim + n)
        targets = parabolic._shifted_points(n, dim, False, 1)
        sources = np.broadcast_to(np.arange(n**dim), targets.shape)
        for new, column in zip(self.step_matrices(columns, n, dim), columns):
            assert_same_arrays(new, coo_assembly(column, targets, sources, n**dim, "csc"))

    @pytest.mark.parametrize("dim, n, mixed", CASES)
    def test_column_apply_matches_reference(self, dim, n, mixed):
        # A x straight from the columns, as the audit applies each step.
        rng, grid, columns, refs = self.conservative_case(dim, n, mixed, 300 * dim + n)
        index = self.flat_index(n, dim)
        for column, ref in zip(columns, refs):
            x = rng.normal(size=n**dim)
            new = parabolic._column_apply(column, index, x)
            expected = ref @ x
            assert np.max(np.abs(new - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("dim, n, mixed", DISTINCT)
    def test_column_apply_of_a_unit_vector_is_its_column(self, dim, n, mixed):
        # The gather loses nothing: A e_q holds column q's entries at its targets.
        _, grid, columns, _ = self.conservative_case(dim, n, mixed, 400 * dim + n)
        index = self.flat_index(n, dim)
        targets = parabolic._shifted_points(n, dim, False, 1)
        for column in columns:
            for q in range(n**dim):
                unit, expected = np.zeros(n**dim), np.zeros(n**dim)
                unit[q] = 1.0
                expected[targets[:, q]] = column[:, q]
                assert np.array_equal(parabolic._column_apply(column, index, unit), expected)

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 16), (3, 8)])
    def test_conservative_columns_sum_to_one(self, dim, n):
        rng = np.random.default_rng(7 + dim)
        grid = small_grid(dim, n, dt=2e-4)
        c = random_diffusion(rng, dim, n, False, lead=(1,))
        velocity = rng.normal(scale=3.0, size=(2, dim) + grid.shape)
        columns = parabolic._conservative_rates(grid, c, velocity)
        for matrix in self.step_matrices(columns, n, dim):
            dense = matrix.toarray()
            assert np.max(np.abs(dense.sum(axis=0) - 1.0)) <= 1e-15
            off = dense - np.diag(np.diag(dense))
            # An M-matrix: the generator D + adv moves mass only outwards.
            assert np.all(off <= 0.0)
            assert np.all(np.diag(dense) > 0.0)


def reference_splu_march(problem):
    """The ``splu`` march as it was factored before: SuperLU's default ordering."""
    from scipy.sparse.linalg import splu

    g = problem.grid
    eye = sp.identity(g.num_points, format="csr")
    out = np.empty((g.nt + 1, *g.shape))
    out[0] = problem.initial.values
    for j in range(1, g.nt + 1):
        L = reference_spatial_operator(g.n, g.dim, g.h, problem.diffusion_slice(j))
        rhs = np.ravel(out[j - 1]) - g.dt * np.ravel(problem.source[j])
        out[j] = splu((eye + g.dt * L).tocsc()).solve(rhs).reshape(g.shape)
    return out


class TestSpluOrdering:
    """Both direct-solver paths factor through ``parabolic._factor``.

    The march's minimum-degree ordering moves its output only at round-off
    against the default-ordering factorization it replaced.
    """

    @staticmethod
    def problem(mixed, time_dependent=False):
        g = TorusGrid(dim=2, n=32, nt=6, T=0.002)
        rng = np.random.default_rng(41 + mixed + 2 * time_dependent)
        lead = (g.nt + 1,) if time_dependent else ()
        c = random_diffusion(rng, 2, g.n, mixed, lead=lead)
        if time_dependent:
            c = np.moveaxis(c, 2, 0)
        return ParabolicProblem(
            grid=g, diffusion=c, source=rng.normal(size=(g.nt + 1, *g.shape)),
            initial=Field(g, rng.normal(size=g.shape)),
        )

    @pytest.mark.parametrize("mixed, time_dependent",
                             [(False, False), (True, False), (False, True), (True, True)])
    def test_march_matches_the_default_ordering(self, mixed, time_dependent):
        problem = self.problem(mixed, time_dependent)
        ref = reference_splu_march(problem)
        new = solve_forward(problem).values
        assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_every_factorization_takes_the_minimum_degree_ordering(self, monkeypatch):
        import scipy.sparse.linalg as spla

        calls = []
        splu = spla.splu

        def recorded(A, **kwargs):
            calls.append(kwargs)
            return splu(A, **kwargs)

        monkeypatch.setattr(spla, "splu", recorded)
        problem = self.problem(mixed=True)
        solve_forward(problem)
        assert len(calls) == 1  # x-dependent only: one factorization per march
        solve_forward(self.problem(mixed=False, time_dependent=True))
        assert len(calls) == 1 + problem.grid.nt
        drift = np.zeros((problem.grid.nt + 1, 2, *problem.grid.shape))
        # A constant diffusion would refine the audit on its Fourier solve.
        diagonal = self.problem(mixed=False).diffusion
        solve_fp_conservative(replace(problem, diffusion=diagonal), drift)
        assert len(calls) == 2 + problem.grid.nt  # equal audit steps: one factorization
        expected = dict(permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
        assert all(kwargs == expected for kwargs in calls)


class TestFourierAgainstSplu:
    """The splu step loop is the reference for the Fourier march.

    The same constant matrix goes in once as ``(dim, dim)`` (Fourier march)
    and once broadcast to a ``(nt+1, dim, dim) + spatial`` stack (splu).
    """

    MIXED = [[1.0, 0.25], [0.25, 1.0]]
    CASES = {
        "1d": (1, 16, [[1.0]]),
        "2d-diagonal": (2, 16, [[1.0, 0.0], [0.0, 0.6]]),
        "2d-mixed": (2, 16, MIXED),
        "3d-mixed": (3, 8, [[1.0, 0.2, -0.3], [0.2, 0.8, 0.25], [-0.3, 0.25, 0.9]]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_paths_agree(self, case):
        dim, n, C = self.CASES[case]
        C = np.array(C)
        g = TorusGrid(dim=dim, n=n, nt=16, T=0.01)
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
                        grid=g, diffusion=diffusion, source=source, **{key: datum}
                    )
                )
                for diffusion in (C, stack)
            )
            assert np.max(np.abs(fourier.values - splu.values)) <= 1e-12


class TestEqualSliceStacks:
    """A time stack whose slices are all equal marches as its one slice.

    The problem stores slice 0, so the march, its check and the time
    reversal all see a diffusion constant in time: bitwise the same output,
    one factorization per march, and the Fourier march for a constant one.
    """

    @staticmethod
    def solve_both(g, diffusion, stack):
        rng = np.random.default_rng(17)
        source = rng.normal(size=(g.nt + 1, *g.shape))
        datum = Field(g, rng.normal(size=g.shape))
        for solve, key in ((solve_forward, "initial"), (solve_backward, "final")):
            yield tuple(
                solve(ParabolicProblem(grid=g, diffusion=c, source=source, **{key: datum}))
                for c in (diffusion, stack)
            )

    @pytest.mark.parametrize("dim, mixed", [(1, False), (2, False), (2, True)])
    def test_x_dependent_stack_matches_its_slice(self, monkeypatch, dim, mixed):
        g = TorusGrid(dim=dim, n=16, nt=8, T=0.01)
        c = random_diffusion(np.random.default_rng(5 + dim + mixed), dim, g.n, mixed)
        stack = np.repeat(c[np.newaxis], g.nt + 1, axis=0)
        calls = []
        factor = parabolic._factor
        monkeypatch.setattr(parabolic, "_factor", lambda A: calls.append(1) or factor(A))
        for plain, stacked in self.solve_both(g, c, stack):
            assert np.array_equal(plain.values, stacked.values)
        assert len(calls) == 4  # one per march

    @pytest.mark.parametrize("C", [[[1.0]], [[1.0, 0.25], [0.25, 0.8]]])
    def test_constant_stack_takes_the_fourier_march(self, C):
        C = np.array(C)
        dim = len(C)
        g = TorusGrid(dim=dim, n=16, nt=8, T=0.01)
        stack = np.repeat(C[np.newaxis], g.nt + 1, axis=0)
        assert ParabolicProblem(grid=g, diffusion=stack).diffusion.shape == (dim, dim)
        for plain, stacked in self.solve_both(g, C, stack):
            assert np.array_equal(plain.values, stacked.values)

    def test_unequal_or_nonfinite_stacks_stay_stacked(self):
        g = TorusGrid(dim=1, n=8, nt=4, T=0.01)
        stack = np.ones((g.nt + 1, 1, 1))
        stack[-1] = 2.0
        assert ParabolicProblem(grid=g, diffusion=stack).time_dependent
        stack[:] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ParabolicProblem(grid=g, diffusion=stack)


def reference_conservative_audit(problem, drift):
    """The audit as it was solved before refinement: a factorization per step."""
    from scipy.sparse.linalg import splu

    g = problem.grid
    out = np.empty((g.nt + 1, *g.shape))
    out[0] = problem.initial.values
    for j in range(1, g.nt + 1):
        A = reference_conservative_matrix(
            g.n, g.dim, g.h, g.dt, problem.diffusion_slice(j), -drift[j]
        )
        out[j] = splu(A.tocsc()).solve(np.ravel(out[j - 1])).reshape(g.shape)
    return out


def checked_audit(monkeypatch, problem, drift):
    """Run a 2D audit, check it against the reference; return its factorizations.

    Refined on kept factors or refactored, every step must match the
    per-step direct solve, keep its mass and keep the density positive.
    """
    calls = []
    factor = parabolic._factor
    monkeypatch.setattr(parabolic, "_factor", lambda A: calls.append(1) or factor(A))
    values = solve_fp_conservative(problem, drift).values
    ref = reference_conservative_audit(problem, drift)
    assert np.max(np.abs(values - ref)) <= 1e-11 * np.max(np.abs(ref))
    mass = np.sum(values, axis=(1, 2))
    assert np.max(np.abs(np.diff(mass))) <= 1e-12 * mass[0]
    assert np.min(values) > 0.0
    return len(calls)


class TestConservativeFP:
    def test_audit_peak_within_budget(self, traced_peak):
        # In stacks of (nt + 1) n^2 floats: measured 12.8 at 2D n=16, nt=32
        # (it was 14.6 with both the columns and the rows of every step
        # held); the budget is that in whole stacks plus one.  The rows are
        # five stacks; the negated drift two.
        g = TorusGrid(dim=2, n=16, nt=32, T=0.02)
        x, y = g.coordinates()
        m0 = Field(g, 1.0 + 0.1 * np.cos(TWO_PI * x) * np.cos(TWO_PI * (y - 0.2)))
        drift = 0.5 * np.random.default_rng(3).normal(size=(g.nt + 1, 2, *g.shape))
        problem = ParabolicProblem(grid=g, diffusion=0.5 * np.eye(2), initial=m0)
        audit, peak = traced_peak(lambda: solve_fp_conservative(problem, drift))
        mass = np.sum(audit.values, axis=(1, 2))
        assert np.max(np.abs(np.diff(mass))) <= 1e-12 * mass[0]
        stack = (g.nt + 1) * g.num_points * 8
        assert peak <= 14 * stack, f"peak {peak / stack:.2f} stacks"

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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mass_conserved_and_positive_with_a_drift_along_every_axis(self, dim):
        g = TorusGrid(dim=dim, n=8 if dim == 3 else 16, nt=8, T=0.02)
        x = g.coordinates()
        prob = ParabolicProblem(
            grid=g,
            diffusion=np.diag([1.0, 0.7, 0.5][:dim]),
            initial=Field(g, 1.0 + 0.4 * np.cos(TWO_PI * x[0]) * np.sin(TWO_PI * x[-1])),
        )
        drift = np.stack([3.0 * np.sin(TWO_PI * x[(i + 1) % dim]) for i in range(dim)])
        sol = solve_fp_conservative(prob, np.broadcast_to(drift, (g.nt + 1, *drift.shape)))
        mass = np.sum(sol.values, axis=tuple(range(1, dim + 1)))
        assert np.max(np.abs(np.diff(mass))) <= 1e-12 * mass[0]
        assert np.min(sol.values) > 0.0

    @pytest.mark.parametrize("kind", ["constant", "x-dependent"])
    def test_rejects_a_mixed_coefficient(self, kind):
        # The audit has no mixed term; the marches treat it implicitly, so
        # solve_forward takes the same problem at a step far above h^2.
        g = TorusGrid(dim=2, n=16, nt=4, T=1.0)
        C = np.array([[1.0, 0.4], [0.4, 1.0]])
        if kind == "x-dependent":
            x, y = g.coordinates()
            C = C[:, :, None, None] * (1.0 + 0.2 * np.sin(TWO_PI * x) * np.cos(TWO_PI * y))
        prob = ParabolicProblem(grid=g, diffusion=C, initial=Field.full(g, 1.0))
        with pytest.raises(ValueError, match="mixed coefficient"):
            solve_fp_conservative(prob, np.zeros((g.nt + 1, 2, g.n, g.n)))
        assert np.allclose(solve_forward(prob).values, 1.0, rtol=0, atol=1e-12)

    def test_rejects_a_mixed_coefficient_of_any_axis_pair(self):
        g = TorusGrid(dim=3, n=8, nt=4, T=0.1)
        C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3], [0.0, 0.3, 1.0]])
        prob = ParabolicProblem(grid=g, diffusion=C, initial=Field.full(g, 1.0))
        with pytest.raises(ValueError, match="mixed coefficient"):
            solve_fp_conservative(prob, np.zeros((g.nt + 1, 3, *g.shape)))

    def test_time_dependent_diagonal_diffusion_conserves_mass(self, monkeypatch):
        g = TorusGrid(dim=2, n=16, nt=12, T=0.01)
        x, y = g.coordinates()
        t = g.times().reshape(-1, 1, 1)
        C = np.zeros((g.nt + 1, 2, 2, *g.shape))
        C[:, 0, 0] = 1.0 + 0.5 * np.sin(TWO_PI * (x + t))
        C[:, 1, 1] = 0.7 + 0.3 * np.cos(TWO_PI * y) * (1.0 + t)
        rng = np.random.default_rng(31)
        drift = rng.normal(size=(g.nt + 1, 2, *g.shape))
        prob = ParabolicProblem(
            grid=g, diffusion=C, initial=Field(g, 1.0 + 0.5 * np.cos(TWO_PI * x))
        )
        # A drift this sharp between steps defeats refinement: the audit refactors.
        assert checked_audit(monkeypatch, prob, drift) > 1

    def test_x_dependent_audit_factors_once(self, monkeypatch):
        g = TorusGrid(dim=2, n=16, nt=12, T=0.01)
        x, y = g.coordinates()
        C = np.zeros((2, 2, *g.shape))
        C[0, 0] = 1.0 + 0.5 * np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
        C[1, 1] = 0.7
        t = g.times().reshape(-1, 1, 1)
        drift = np.stack([np.sin(TWO_PI * (y + t)), np.cos(TWO_PI * x) * (1.0 + t)], axis=1)
        prob = ParabolicProblem(
            grid=g, diffusion=C, initial=Field(g, 1.0 + 0.5 * np.cos(TWO_PI * x))
        )
        # No Fourier solve fits an x-dependent diffusion: the first step is factored.
        assert checked_audit(monkeypatch, prob, drift) == 1

    def test_factored_step_matrix_equals_the_column_assembly(self, monkeypatch):
        # The audit factors the transpose of its columns' CSR matrix: bitwise
        # the CSC matrix that the step's columns assemble to.
        g = TorusGrid(dim=2, n=8, nt=3, T=0.01)
        x, y = g.coordinates()
        C = np.eye(2)[:, :, None, None] * (1.0 + 0.5 * np.sin(TWO_PI * x) * np.cos(TWO_PI * y))
        drift = np.random.default_rng(37).normal(size=(g.nt + 1, 2, *g.shape))
        prob = ParabolicProblem(grid=g, diffusion=C, initial=Field.full(g, 1.0))
        factored = []
        factor = parabolic._factor
        monkeypatch.setattr(parabolic, "_factor", lambda A: factored.append(A) or factor(A))
        solve_fp_conservative(prob, drift)
        # A drift this sharp between steps defeats refinement: every step is factored.
        assert len(factored) == g.nt
        columns = parabolic._conservative_rates(g, prob.coefficients(), -drift[1:])
        targets = parabolic._shifted_points(g.n, g.dim, False, 1)
        sources = np.broadcast_to(np.arange(g.num_points), targets.shape)
        for matrix, column in zip(factored, columns):
            assert_same_arrays(matrix, coo_assembly(column, targets, sources, g.num_points, "csc"))

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 15), (2, 16), (3, 9)])
    def test_constant_diffusion_step_keeps_its_mass_on_one_fourier_update(self, dim, n):
        g = TorusGrid(dim=dim, n=n, nt=4, T=0.01)
        prob = ParabolicProblem(grid=g, diffusion=np.diag([1.0, 0.6, 0.8][:dim]))
        y = np.random.default_rng(23).uniform(0.5, 1.5, g.num_points)
        v = parabolic._fourier_inverse(prob)(y)
        assert abs(np.sum(v) - np.sum(y)) <= 1e-14 * np.sum(y)
        assert not np.allclose(v, y)

    @pytest.mark.parametrize("diffusion", ["constant", "x-dependent"])
    @pytest.mark.parametrize("scale, message", [
        (np.nan, "non-finite values produced at fp slice 1$"),
        (1.0 + 1e-6, "linear solve residual 1.00e-06 exceeds 1e-10 at fp slice 1$"),
    ])
    def test_a_failed_step_names_its_slice(self, monkeypatch, diffusion, scale, message):
        # A Fourier solve that refinement gives up on, then factors whose
        # solve is off by ``scale``: the direct step fails its own check.
        g = TorusGrid(dim=2, n=8, nt=4, T=0.01)
        x, y = g.coordinates()
        C = np.eye(2) if diffusion == "constant" else np.eye(2)[:, :, None, None] * (
            1.0 + 0.5 * np.sin(TWO_PI * x))
        m0 = Field(g, 1.0 + 0.5 * np.cos(TWO_PI * x) * np.sin(TWO_PI * y))
        prob = ParabolicProblem(grid=g, diffusion=C, initial=m0)
        factor = parabolic._factor
        monkeypatch.setattr(parabolic, "_fourier_inverse", lambda problem: lambda r: np.nan * r)
        monkeypatch.setattr(parabolic, "_factor", lambda A: SimpleNamespace(
            solve=lambda r, lu=factor(A): scale * lu.solve(r)))
        with pytest.raises(SolverError, match=message):
            solve_fp_conservative(prob, np.ones((g.nt + 1, 2, *g.shape)))

    def test_congestion_audit_refines_on_the_fourier_solve(self, monkeypatch):
        from fbmfg import congestion_model, final_cost_convolution, picard_solve
        from fbmfg.torus_grid import gradient_values

        g = TorusGrid(dim=2, n=16, nt=16, T=0.02)
        x, y = g.coordinates()
        model = congestion_model(dim=2, alpha=1.0)
        m0 = Field(g, 1.0 + 0.2 * np.cos(TWO_PI * x) * np.sin(TWO_PI * (x + y)))
        report = picard_solve(model, final_cost_convolution(g), m0, g, tol=1e-8, max_iter=60)
        assert report.status == "converged"
        u, m = report.final_state.u.values, report.final_state.m.values
        Du, Dm = gradient_values(u, g.h, g.dim), gradient_values(m, g.h, g.dim)
        drift = np.stack([
            model.optimal_drift(u[j], m[j], Du[:, j], Dm[:, j], (x, y), float(t))
            for j, t in enumerate(g.times())
        ])
        prob = ParabolicProblem(
            g, diffusion=model.diffusion_values(g, "m"), initial=Field(g, m[0])
        )
        assert checked_audit(monkeypatch, prob, drift) == 0

    def test_rejects_a_nonfinite_initial_density(self):
        g = TorusGrid(dim=1, n=16, nt=4, T=0.01)
        m0 = np.ones(g.shape)
        m0[3] = np.nan
        prob = ParabolicProblem(grid=g, diffusion=constant_diffusion(1, 1.0), initial=Field(g, m0))
        with pytest.raises(ValueError, match="non-finite"):
            solve_fp_conservative(prob, np.zeros((g.nt + 1, 1, g.n)))


def reference_fourier_march(problem, out):
    """The Fourier march's step loop as it was, on complex rows."""
    g = problem.grid
    axes = tuple(range(1, g.dim + 1))
    denom = 1.0 + g.dt * parabolic._fourier_symbol(g, problem.diffusion)
    hat = np.fft.rfftn(problem.source, axes=axes)
    hat *= -g.dt
    hat[0] = np.fft.rfftn(out[0])
    for j in range(1, g.nt + 1):
        hat[j] += hat[j - 1]
        hat[j] /= denom
    out[1:] = np.fft.irfftn(hat[1:], s=g.shape, axes=axes)


class TestFourierDenominator:
    """``1 + dt λ̂_k`` is computed once per grid and diffusion matrix."""

    def test_marches_of_one_solve_share_it(self, monkeypatch):
        parabolic._fourier_denominator.cache_clear()
        calls = []
        symbol = parabolic._fourier_symbol
        monkeypatch.setattr(parabolic, "_fourier_symbol",
                            lambda grid, c: calls.append(c.copy()) or symbol(grid, c))
        g = TorusGrid(dim=2, n=8, nt=4, T=0.01)
        C = np.array([[1.0, 0.25], [0.25, 0.8]])
        datum = Field(g, np.random.default_rng(2).normal(size=g.shape))
        for _ in range(3):
            solve_forward(ParabolicProblem(grid=g, diffusion=C, initial=datum))
            solve_backward(ParabolicProblem(grid=g, diffusion=C, final=datum))
        assert len(calls) == 1 and np.array_equal(calls[0], C)
        solve_forward(ParabolicProblem(grid=g, diffusion=2.0 * C, initial=datum))
        solve_forward(ParabolicProblem(grid=replace(g, T=0.02), diffusion=C, initial=datum))
        assert len(calls) == 3

    def test_it_is_read_only_and_the_symbol_it_was(self):
        g = TorusGrid(dim=3, n=8, nt=4, T=0.01)
        C = np.array([[1.0, 0.1, 0.2], [0.1, 0.9, 0.3], [0.2, 0.3, 1.1]])
        denom = parabolic._fourier_denominator(g, C.tobytes())
        assert not denom.flags.writeable
        assert np.array_equal(denom, 1.0 + g.dt * parabolic._fourier_symbol(g, C))


class TestFourierMarchLoop:
    """The step loop on the real view of the modes gives the same bits."""

    @pytest.mark.parametrize("dim, n, C", [
        (1, 17, [[1.0]]),
        (2, 16, [[1.0, 0.0], [0.0, 0.6]]),
        (2, 15, [[1.0, 0.3], [0.3, 0.8]]),
        (3, 9, [[1.0, 0.3, -0.1], [0.3, 0.8, 0.2], [-0.1, 0.2, 0.7]]),
    ])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_march_is_bitwise_the_complex_loop(self, dim, n, C, symmetric):
        g = TorusGrid(dim=dim, n=n, nt=9, T=0.01)
        rng = np.random.default_rng(n + dim)
        if symmetric:  # even data: every mode has a zero imaginary part
            x = g.coordinates()[0]
            initial = np.cos(TWO_PI * x)
            source = np.broadcast_to(-initial, (g.nt + 1, *g.shape)).copy()
        else:
            initial = rng.normal(size=g.shape)
            source = rng.normal(size=(g.nt + 1, *g.shape))
        problem = ParabolicProblem(
            grid=g, diffusion=np.array(C), source=source, initial=Field(g, initial)
        )
        ref = np.empty((g.nt + 1, *g.shape))
        ref[0] = initial
        reference_fourier_march(problem, ref)
        new = solve_forward(problem).values
        assert np.array_equal(new, ref)
        assert np.array_equal(np.signbit(new), np.signbit(ref))

    def test_source_slice_zero_is_not_read(self):
        # Slice 0 of the source (in march order) holds no step, so a NaN
        # there changes nothing, forward or backward.
        g = TorusGrid(dim=2, n=8, nt=5, T=0.01)
        rng = np.random.default_rng(3)
        datum = Field(g, rng.normal(size=g.shape))
        source = rng.normal(size=(g.nt + 1, *g.shape))
        C = np.array([[1.0, 0.2], [0.2, 0.7]])
        for solve, slot, unread in ((solve_forward, "initial", 0), (solve_backward, "final", -1)):
            poisoned = source.copy()
            poisoned[unread] = np.nan
            runs = [solve(ParabolicProblem(grid=g, diffusion=C, source=s, **{slot: datum}))
                    for s in (source, poisoned)]
            assert np.array_equal(runs[0].values, runs[1].values)


class TestValidation:
    def test_rejects_nonelliptic_diffusion(self):
        g = TorusGrid(dim=2, n=8, nt=2, T=0.1)
        C = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
        with pytest.raises(ValueError, match="elliptic"):
            ParabolicProblem(grid=g, diffusion=C)

    def test_ellipticity_holds_down_to_the_floor(self):
        g = TorusGrid(dim=1, n=8, nt=2, T=0.1)
        floor = parabolic.ELLIPTICITY_FLOOR
        ParabolicProblem(grid=g, diffusion=np.array([[floor]]))
        with pytest.raises(ValueError, match=f"min eigenvalue {0.5 * floor} < {floor}"):
            ParabolicProblem(grid=g, diffusion=np.array([[0.5 * floor]]))

    @pytest.mark.parametrize("where", ["constant", "one point", "one slice"])
    def test_rejects_a_3d_diffusion_whose_leading_minors_are_positive(self, where):
        # Positive diagonal and 2x2 leading minor, but the determinant is
        # negative: the smallest eigenvalue is 1 - 2 * 0.9 = -0.8.
        g = TorusGrid(dim=3, n=8, nt=2, T=0.1)
        bad = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        assert np.linalg.eigvalsh(bad)[0] < 0.0 < np.linalg.det(bad[:2, :2])
        C = bad
        if where == "one point":
            C = np.repeat(np.eye(3)[:, :, None], g.num_points, axis=2)
            C[:, :, 17] = bad
            C = C.reshape(3, 3, *g.shape)
        elif where == "one slice":
            C = np.repeat(np.eye(3)[None], g.nt + 1, axis=0)
            C[1] = bad
        with pytest.raises(ValueError, match=r"min eigenvalue -0\.[78]"):
            ParabolicProblem(grid=g, diffusion=C)

    @pytest.mark.parametrize("shape", ["constant", "x-dependent", "t-dependent"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rejects_a_nonsymmetric_diffusion(self, dim, shape):
        # The marches read c_ij only for i <= j: a lower triangle that
        # differs, even at one point or slice, would be solved as its mirror.
        g = TorusGrid(dim=dim, n=8, nt=2, T=0.1)
        C = 0.5 * np.eye(dim)
        if shape == "constant":
            C[0, dim - 1] = 0.2
        elif shape == "x-dependent":
            C = np.repeat(C[:, :, None], g.num_points, axis=2)
            C[dim - 1, 0, 17] = 0.1
            C = C.reshape(dim, dim, *g.shape)
        else:
            C = np.repeat(C[None], g.nt + 1, axis=0)
            C[1, 1, 0] = -0.1
        message = r"diffusion is not symmetric: max \|c_ij - c_ji\| = 0\.[12]"
        with pytest.raises(ValueError, match=message):
            ParabolicProblem(grid=g, diffusion=C)
        mirrored = C.swapaxes(*((1, 2) if shape == "t-dependent" else (0, 1)))
        ParabolicProblem(grid=g, diffusion=0.5 * (C + mirrored))

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("kind", ["constant", "x-dependent", "t-dependent"])
    def test_omitted_source_is_a_zero_view_that_marches_as_explicit_zeros(self, kind, direction):
        g = TorusGrid(dim=2, n=8, nt=4, T=0.01)
        x, y = g.coordinates()
        C = np.array([[1.0, 0.2], [0.2, 0.8]])
        if kind == "x-dependent":
            C = C[:, :, None, None] * (1.0 + 0.3 * np.sin(TWO_PI * x) * np.cos(TWO_PI * y))
        elif kind == "t-dependent":
            C = C * (1.0 + g.times())[:, None, None]
        data = Field(g, 1.0 + 0.5 * np.cos(TWO_PI * x) * np.sin(TWO_PI * y))
        slot, solve = (("initial", solve_forward) if direction == "forward"
                       else ("final", solve_backward))
        omitted = ParabolicProblem(grid=g, diffusion=C, **{slot: data})
        assert not omitted.source.flags.writeable and omitted.source.strides == (0, 0, 0)
        assert np.array_equal(omitted.source, np.zeros((g.nt + 1, *g.shape)))
        explicit = replace(omitted, source=np.zeros((g.nt + 1, *g.shape)))
        assert np.array_equal(solve(omitted).values, solve(explicit).values)

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

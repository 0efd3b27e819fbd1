"""Tests for coupling models and final costs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fbmfg import models
from fbmfg.models import (
    HamiltonianSpec,
    build_congestion_coupling,
    build_mfg_coupling,
    congestion_model,
    final_cost_constant,
    final_cost_convolution,
    final_cost_scaled_identity,
    periodic_gaussian_kernel,
    quadratic_mfg_model,
)
from fbmfg.torus_grid import (
    Field,
    TorusGrid,
    gradient_values,
    hessian_values,
    norm_C1,
    norm_C2,
)


def random_batch(rng, dim, size, m_low=0.5, m_high=2.0):
    u = rng.uniform(-1.0, 1.0, size)
    m = rng.uniform(m_low, m_high, size)
    Du = rng.uniform(-1.5, 1.5, (dim, size))
    Dm = rng.uniform(-1.5, 1.5, (dim, size))
    P = rng.uniform(-2.0, 2.0, (dim, dim, size))
    D2u = 0.5 * (P + np.swapaxes(P, 0, 1))
    x = tuple(rng.uniform(0.0, 1.0, size) for _ in range(dim))
    return u, m, Du, Dm, D2u, x


class TestQuadraticModel:
    def test_source_formulas(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2):
            model = quadratic_mfg_model(dim)
            u, m, Du, Dm, D2u, x = random_batch(rng, dim, 40)
            F = model.F(u, m, Du, Dm, x, 0.2)
            assert np.allclose(F, 0.5 * np.sum(Du * Du, axis=0) - m, atol=1e-13)
            G = model.G(u, m, Du, Dm, D2u, x, 0.2)
            lap = np.trace(D2u, axis1=0, axis2=1)
            expected = -np.sum(Du * Dm, axis=0) - m * lap
            assert np.allclose(G, expected, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_undeclared_terms_are_skipped_exactly(self, dim):
        # The formula with the undeclared H_xp_div and H_mp evaluated as zero
        # stacks, on (nt+1,) + spatial stacks.
        rng = np.random.default_rng(12)
        shape = (5,) + (8,) * dim
        u, m = rng.normal(size=shape), rng.uniform(0.5, 2.0, shape)
        Du, Dm = rng.normal(size=(dim, *shape)), rng.normal(size=(dim, *shape))
        D2u = rng.normal(size=(dim, dim, *shape))
        x = tuple(rng.uniform(0.0, 1.0, shape) for _ in range(dim))
        t = rng.uniform(0.0, 1.0, shape)
        Hpp = np.broadcast_to(
            np.eye(dim).reshape((dim, dim) + (1,) * len(shape)), (dim, dim, *shape)
        )
        div_term = (
            np.zeros(shape)
            + np.sum(Hpp * D2u, axis=(0, 1))
            + np.sum(np.zeros((dim, *shape)) * Dm, axis=0)
        )
        expected = -np.sum(Du * Dm, axis=0) - m * div_term
        G = quadratic_mfg_model(dim).G(u, m, Du, Dm, D2u, x, t)
        assert np.array_equal(G, expected)

    def test_declared_mixed_terms_enter_G(self):
        # H = |p|^2/2 - m + m b.p + sin(2 pi x) p_0: H_mp = b and
        # H_xp_div = 2 pi cos(2 pi x).
        b = np.array([0.3, -0.2])
        tau = 2.0 * np.pi

        def H_p(x, t, p, m):
            shift = np.stack([np.sin(tau * x[0]), np.zeros_like(x[0])])
            return p + m * b.reshape((2,) + (1,) * np.ndim(m)) + shift

        spec = HamiltonianSpec(
            H=lambda x, t, p, m: (
                0.5 * np.sum(p * p, axis=0) - m + m * (b[0] * p[0] + b[1] * p[1])
                + np.sin(tau * x[0]) * p[0]
            ),
            H_p=H_p,
            H_pp=lambda x, t, p, m: np.broadcast_to(
                np.eye(2).reshape((2, 2) + (1,) * (p.ndim - 1)), (2, 2) + p.shape[1:]
            ),
            H_mp=lambda x, t, p, m: np.broadcast_to(
                b.reshape((2,) + (1,) * np.ndim(m)), (2,) + np.shape(m)
            ),
            H_xp_div=lambda x, t, p, m: tau * np.cos(tau * x[0]) + 0.0 * m,
        )
        model = build_mfg_coupling(spec, dim=2)
        u, m, Du, Dm, D2u, x = random_batch(np.random.default_rng(13), 2, 30)
        G = model.G(u, m, Du, Dm, D2u, x, 0.0)
        div_term = (
            tau * np.cos(tau * x[0]) + np.trace(D2u, axis1=0, axis2=1)
            + b[0] * Dm[0] + b[1] * Dm[1]
        )
        expected = -np.sum(H_p(x, 0.0, Du, m) * Dm, axis=0) - m * div_term
        assert np.allclose(G, expected, rtol=0, atol=1e-12)

    def test_diffusion_and_drift(self):
        model = quadratic_mfg_model(2)
        grid = TorusGrid(dim=2, n=8, nt=2, T=0.1)
        assert np.allclose(model.diffusion_values(grid, "u"), 0.5 * np.eye(2))
        assert np.allclose(model.diffusion_values(grid, "m"), 0.5 * np.eye(2))
        rng = np.random.default_rng(4)
        u, m, Du, Dm, _, x = random_batch(rng, 2, 10)
        assert np.array_equal(model.optimal_drift(u, m, Du, Dm, x, 0.0), Du)

    def test_derivative_validation_catches_wrong_gradient(self):
        spec = HamiltonianSpec(
            H=lambda x, t, p, m: 0.5 * np.sum(p * p, axis=0),
            H_p=lambda x, t, p, m: 2.0 * p,  # wrong by a factor of two
            H_pp=lambda x, t, p, m: np.broadcast_to(
                np.eye(p.shape[0]).reshape((p.shape[0],) * 2 + (1,) * (p.ndim - 1)),
                (p.shape[0],) * 2 + p.shape[1:],
            ),
        )
        with pytest.raises(ValueError, match="H_p"):
            build_mfg_coupling(spec, dim=1)

    def test_divergence_form_identity(self):
        # The pointwise G must match the discrete divergence-form transport
        # c : D2m - d_ij(A_ij m) - div(m H_p) up to the stencil error O(h^2).
        def residual(n):
            grid = TorusGrid(dim=1, n=n, nt=2, T=0.01)
            (x,) = grid.coordinates()
            u = 0.3 * np.cos(2 * np.pi * x)
            m = 1.0 + 0.4 * np.sin(2 * np.pi * x)
            Du = gradient_values(u, grid.h, 1)
            Dm = gradient_values(m, grid.h, 1)
            D2u = hessian_values(u, grid.h, 1)
            model = quadratic_mfg_model(1)
            G = model.G(u, m, Du, Dm, D2u, (x,), 0.0)
            # constant A = I/2: c:D2m and d_ij(A_ij m) cancel discretely
            div = gradient_values(m * Du[0], grid.h, 1)[0]
            return float(np.max(np.abs(G + div)))

        coarse, fine = residual(32), residual(64)
        assert fine > 0
        assert coarse / fine > 3.4


def test_the_package_exports_the_spec_its_factory_takes():
    import fbmfg
    from fbmfg import HamiltonianSpec as exported

    assert exported is HamiltonianSpec
    assert "HamiltonianSpec" in fbmfg.__all__
    assert set(fbmfg.__all__) <= set(dir(fbmfg))


class TestVariableDiffusionCoupling:
    def _model(self, div_calls=None):
        """The 1D model; ``div_calls`` records each ``A_div1``/``A_div2`` call."""
        def A(x, t):
            a = 1.0 + 0.3 * np.sin(2.0 * np.pi * x[0])
            return a[np.newaxis, np.newaxis]

        def A_div1(x, t):
            if div_calls is not None:
                div_calls.append("A_div1")
            return (0.6 * np.pi * np.cos(2.0 * np.pi * x[0]))[np.newaxis]

        def A_div2(x, t):
            if div_calls is not None:
                div_calls.append("A_div2")
            return -1.2 * np.pi**2 * np.sin(2.0 * np.pi * x[0])

        spec = HamiltonianSpec(
            H=lambda x, t, p, m: 0.5 * np.sum(p * p, axis=0) - m,
            H_p=lambda x, t, p, m: p,
            H_pp=lambda x, t, p, m: np.ones((1, 1) + p.shape[1:]),
            A=A, A_div1=A_div1, A_div2=A_div2,
        )
        return build_mfg_coupling(spec, dim=1)

    def test_fd_validation_accepts_consistent_divergences(self):
        self._model()  # would raise if the declared A derivatives were off

    def test_fd_validation_rejects_wrong_divergence(self):
        def A(x, t):
            a = 1.0 + 0.3 * np.sin(2.0 * np.pi * x[0])
            return a[np.newaxis, np.newaxis]

        spec = HamiltonianSpec(
            H=lambda x, t, p, m: 0.5 * np.sum(p * p, axis=0),
            H_p=lambda x, t, p, m: p,
            H_pp=lambda x, t, p, m: np.ones((1, 1) + p.shape[1:]),
            A=A,
            A_div1=lambda x, t: np.zeros((1,) + np.shape(x[0])),  # wrong: A varies
            A_div2=lambda x, t: np.zeros(np.shape(x[0])),
        )
        with pytest.raises(ValueError, match="A_div1"):
            build_mfg_coupling(spec, dim=1)

    def test_divergence_form_identity_with_varying_A(self):
        model = self._model()

        def residual(n):
            grid = TorusGrid(dim=1, n=n, nt=2, T=0.01)
            (x,) = grid.coordinates()
            a = 1.0 + 0.3 * np.sin(2.0 * np.pi * x)
            u = 0.3 * np.cos(2.0 * np.pi * x)
            m = 1.0 + 0.4 * np.sin(2.0 * np.pi * x)
            Du = gradient_values(u, grid.h, 1)
            Dm = gradient_values(m, grid.h, 1)
            D2u = hessian_values(u, grid.h, 1)
            G = model.G(u, m, Du, Dm, D2u, (x,), 0.0)
            c_d2m = a * hessian_values(m, grid.h, 1)[0, 0]
            dd_am = hessian_values(a * m, grid.h, 1)[0, 0]
            div = gradient_values(m * Du[0], grid.h, 1)[0]
            return float(np.max(np.abs(G - (c_d2m - dd_am - div))))

        coarse, fine = residual(32), residual(64)
        assert fine > 0
        assert coarse / fine > 3.2

    def test_G_reuses_its_divergences_for_the_same_coordinates(self):
        # An identity check on the (x, t) objects: a solve hands the same
        # pair to every sweep; equal values in new objects are evaluated anew.
        calls = []
        model = self._model(calls)
        grid = TorusGrid(dim=1, n=16, nt=3, T=0.05)
        rng = np.random.default_rng(4)
        u = rng.normal(size=(grid.nt + 1, grid.n))
        m = 1.0 + 0.1 * rng.random((grid.nt + 1, grid.n))
        args = (u, m, gradient_values(u, grid.h, 1), gradient_values(m, grid.h, 1),
                hessian_values(u, grid.h, 1))
        x, t = grid.space_time_coordinates()
        calls.clear()  # the build-time probes
        first = model.G(*args, x, t)
        assert calls == ["A_div1", "A_div2"]
        assert np.array_equal(model.G(*args, x, t), first)
        assert np.array_equal(model.G(2.0 * u, *args[1:], x, t), first)  # u does not enter G
        assert len(calls) == 2
        assert np.array_equal(model.G(*args, *grid.space_time_coordinates()), first)
        assert len(calls) == 4

    def test_diffusion_values_stacks_time_slices(self):
        model = self._model()
        grid = TorusGrid(dim=1, n=16, nt=3, T=0.05)
        arr = model.diffusion_values(grid, "m")
        assert arr.shape == (1, 1, 4, 16)  # the layout of ParabolicProblem
        (x,) = grid.coordinates()
        assert np.allclose(arr[0, 0, 0], 1.0 + 0.3 * np.sin(2 * np.pi * x))


@pytest.mark.parametrize("shape", [(1, 9, 16), (2, 9, 8, 8), (3, 5, 4, 4, 4), (2,)])
def test_half_square_is_the_numpy_sum_bitwise(shape):
    # The quadratic H and the default congestion H1: components squared one
    # at a time, summed in numpy's order.
    rng = np.random.default_rng(len(shape))
    p = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
    got = models._half_square(p)
    assert np.array_equal(got, 0.5 * np.sum(p * p, axis=0))
    assert np.shape(got) == shape[1:]


class TestCongestion:
    def test_alpha_one_reduces_to_backward_laplacian(self):
        rng = np.random.default_rng(5)
        model = congestion_model(dim=2, alpha=1.0)
        u, m, Du, Dm, D2u, x = random_batch(rng, 2, 30)
        G = model.G(u, m, Du, Dm, D2u, x, 0.1)
        assert np.allclose(G, -np.trace(D2u, axis1=0, axis2=1), atol=1e-12)

    def test_source_values(self):
        rng = np.random.default_rng(6)
        model = congestion_model(dim=1, alpha=1.0)
        u, m, Du, Dm, D2u, x = random_batch(rng, 1, 30)
        F = model.F(u, m, Du, Dm, x, 0.0)
        assert np.allclose(F, 0.5 * Du[0] ** 2 / m - m, atol=1e-13)

    def test_rejects_nonpositive_density(self):
        model = congestion_model(dim=1, alpha=0.5)
        bad_m = np.array([0.5, 0.0, 1.0])
        args = (np.zeros(3), bad_m, np.zeros((1, 3)), np.zeros((1, 3)))
        x = (np.linspace(0, 1, 3, endpoint=False),)
        with pytest.raises(ValueError, match="positive"):
            model.F(*args, x, 0.0)
        with pytest.raises(ValueError, match="positive"):
            model.G(*args[:4], np.zeros((1, 1, 3)), x, 0.0)

    def test_small_alpha_limit_matches_hamiltonian_coupling(self):
        rng = np.random.default_rng(7)
        cong = congestion_model(dim=1, alpha=1e-8)
        mfg = build_mfg_coupling(
            HamiltonianSpec(
                H=lambda x, t, p, m: 0.5 * np.sum(p * p, axis=0) - m,
                H_p=lambda x, t, p, m: p,
                H_pp=lambda x, t, p, m: np.ones((1, 1) + p.shape[1:]),
            ),
            dim=1,
        )
        u, m, Du, Dm, D2u, x = random_batch(rng, 1, 50)
        assert np.max(np.abs(cong.F(u, m, Du, Dm, x, 0.0) - mfg.F(u, m, Du, Dm, x, 0.0))) < 1e-6
        assert np.max(np.abs(
            cong.G(u, m, Du, Dm, D2u, x, 0.0) - mfg.G(u, m, Du, Dm, D2u, x, 0.0)
        )) < 1e-6

    def test_transport_divergence_identity(self):
        # G must be -div(m H1_p(Du / m^alpha)) up to the stencil error.
        alpha = 0.7
        model = congestion_model(dim=1, alpha=alpha)

        def residual(n):
            grid = TorusGrid(dim=1, n=n, nt=2, T=0.01)
            (x,) = grid.coordinates()
            u = 0.3 * np.cos(2.0 * np.pi * x)
            m = 1.0 + 0.4 * np.sin(2.0 * np.pi * x)
            Du = gradient_values(u, grid.h, 1)
            Dm = gradient_values(m, grid.h, 1)
            D2u = hessian_values(u, grid.h, 1)
            G = model.G(u, m, Du, Dm, D2u, (x,), 0.0)
            v = model.optimal_drift(u, m, Du, Dm, (x,), 0.0)
            div = gradient_values(m * v[0], grid.h, 1)[0]
            return float(np.max(np.abs(G + div)))

        coarse, fine = residual(32), residual(64)
        assert fine > 0
        assert coarse / fine > 3.4

    @staticmethod
    def general_G(alpha, H1_pp, m, Du, Dm, D2u):
        """G by the general formula, with its Hessian products formed."""
        ma = np.power(m, alpha)
        q = Du / ma
        Hpp = H1_pp(q)
        out = -np.sum(q * Dm, axis=0)
        out = out - np.power(m, 1.0 - alpha) * np.sum(Hpp * D2u, axis=(0, 1))
        hess_dot_du = np.sum(Hpp * Du[np.newaxis], axis=1)
        return out + (alpha / ma) * np.sum(hess_dot_du * Dm, axis=0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_quadratic_H1_contracts_the_identity_exactly(self, dim, alpha):
        # The default H1 takes the trace of D2u instead of forming I : D2u;
        # on stacked 2D n=32 nt=64 inputs the result is bitwise the same,
        # for the default H1 and for the same H1 passed in as a custom one.
        rng = np.random.default_rng(40 + dim)
        grid = TorusGrid(dim=dim, n=32, nt=64, T=0.02)
        stack = (grid.nt + 1, *grid.shape)
        u = rng.normal(size=stack)
        m = 1.0 + 0.5 * rng.uniform(size=stack)
        Du, Dm = gradient_values(u, grid.h, dim), gradient_values(m, grid.h, dim)
        D2u = hessian_values(u, grid.h, dim)
        x, t = grid.space_time_coordinates()
        eye = lambda q: np.broadcast_to(
            np.eye(dim).reshape((dim, dim) + (1,) * (q.ndim - 1)), (dim, dim) + q.shape[1:]
        )
        expected = self.general_G(alpha, eye, m, Du, Dm, D2u)
        custom = build_congestion_coupling(
            alpha, dim=dim, H1=lambda q: 0.5 * np.sum(q * q, axis=0), H1_p=lambda q: q,
            H1_pp=eye,
        )
        for model in (congestion_model(dim=dim, alpha=alpha), custom):
            assert np.array_equal(model.G(u, m, Du, Dm, D2u, x, t), expected)

    def test_custom_H1_needs_both_derivatives(self):
        H1 = lambda q: np.cosh(q[0])
        H1_p = lambda q: np.sinh(q)[...]
        H1_pp = lambda q: np.cosh(q)[np.newaxis]
        with pytest.raises(ValueError, match="H1_p"):
            build_congestion_coupling(0.5, dim=1, H1=H1)
        with pytest.raises(ValueError, match="H1_pp"):
            build_congestion_coupling(0.5, dim=1, H1=H1, H1_p=H1_p)
        model = build_congestion_coupling(0.5, dim=1, H1=H1, H1_p=H1_p, H1_pp=H1_pp)
        assert model.name == "congestion"

    def test_custom_H1_derivative_check(self):
        with pytest.raises(ValueError, match="H1_p"):
            build_congestion_coupling(
                0.5, dim=1,
                H1=lambda q: np.cosh(q[0]),
                H1_p=lambda q: 2.0 * np.sinh(q),  # wrong factor
                H1_pp=lambda q: np.cosh(q)[np.newaxis],
            )

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            build_congestion_coupling(-0.1, dim=1)


TWO_PI = 2.0 * np.pi


def _mixed_2d_spec():
    """A 2D Hamiltonian with every term declared, and an A with a mixed entry."""
    def s(x):  # the p-linear part of H; its divergence is H_xp_div
        return np.stack([0.3 * np.sin(TWO_PI * x[0]), 0.2 * np.cos(TWO_PI * x[1])])

    def A(x, t):
        off = 0.1 * np.sin(TWO_PI * (x[0] + x[1]))
        return np.array([[1.0 + 0.2 * np.sin(TWO_PI * x[0]), off],
                         [off, 1.0 + 0.2 * np.cos(TWO_PI * x[1])]])

    def A_div1(x, t):
        c = 0.2 * np.pi * np.cos(TWO_PI * (x[0] + x[1]))
        return np.stack([0.4 * np.pi * np.cos(TWO_PI * x[0]) + c,
                         c - 0.4 * np.pi * np.sin(TWO_PI * x[1])])

    def A_div2(x, t):
        return -0.8 * np.pi**2 * (
            np.sin(TWO_PI * x[0]) + np.cos(TWO_PI * x[1]) + np.sin(TWO_PI * (x[0] + x[1]))
        )

    return dict(
        H=lambda x, t, p, m: 0.5 * (1.0 + 0.1 * m) * np.sum(p * p, axis=0)
        + np.sum(s(x) * p, axis=0) - (1.0 + t) * m,
        H_p=lambda x, t, p, m: (1.0 + 0.1 * m) * p + s(x),
        H_pp=lambda x, t, p, m: (1.0 + 0.1 * m) * np.eye(2)[:, :, np.newaxis] + 0.0 * p[0],
        H_mp=lambda x, t, p, m: 0.1 * p,
        H_xp_div=lambda x, t, p, m: 0.6 * np.pi * np.cos(TWO_PI * x[0])
        - 0.4 * np.pi * np.sin(TWO_PI * x[1]),
        A=A, A_div1=A_div1, A_div2=A_div2,
    )


def _mixed_H1():
    """A 2D congestion Hamiltonian ``cosh q0 + cosh q1 + q0 q1 / 5``."""
    return dict(
        H1=lambda q: np.cosh(q[0]) + np.cosh(q[1]) + 0.2 * q[0] * q[1],
        H1_p=lambda q: np.sinh(q) + 0.2 * q[::-1],
        H1_pp=lambda q: np.array([[np.cosh(q[0]), 0.2 + 0.0 * q[0]],
                                  [0.2 + 0.0 * q[0], np.cosh(q[1])]]),
    )


class TestDerivativeProbes:
    """Each declared derivative is checked against central differences."""

    def build(self, corrupt=None):
        spec, h1 = _mixed_2d_spec(), _mixed_H1()
        for parts in (spec, h1):
            if corrupt in parts:
                good = parts[corrupt]
                parts[corrupt] = lambda *args: 1.01 * np.asarray(good(*args)) + 0.05
        build_mfg_coupling(HamiltonianSpec(**spec), dim=2)
        build_congestion_coupling(0.5, dim=2, **h1)

    def test_consistent_model_is_accepted(self):
        self.build()

    @pytest.mark.parametrize(
        "name", ["H_p", "H_pp", "H_mp", "H_xp_div", "A_div1", "A_div2", "H1_p", "H1_pp"]
    )
    def test_each_corrupted_derivative_is_named(self, name):
        with pytest.raises(ValueError, match=rf"^{name}: declared derivative differs"):
            self.build(corrupt=name)

    def test_undeclared_terms_are_checked_against_zero(self):
        spec = _mixed_2d_spec()
        for name in ("H_mp", "H_xp_div"):
            with pytest.raises(ValueError, match=rf"^{name}: "):
                build_mfg_coupling(HamiltonianSpec(**{**spec, name: None}), dim=2)
        with pytest.raises(ValueError, match=r"^A_div1: "):
            build_mfg_coupling(
                HamiltonianSpec(**{**spec, "A_div1": None, "A_div2": None}), dim=2
            )


class TestFinalCostConvolution:
    def test_kernel_mass_and_sign(self):
        for dim in (1, 2, 3):
            grid = TorusGrid(dim=dim, n=32 if dim < 3 else 8, nt=2, T=0.1)
            kern = periodic_gaussian_kernel(grid)
            assert np.all(kern >= 0)
            assert abs(np.sum(kern) * grid.h**dim - 1.0) < 1e-13

    def test_kernel_is_a_product_of_one_axis_profiles(self):
        profile = periodic_gaussian_kernel(TorusGrid(dim=1, n=8, nt=2, T=0.1))
        kern = periodic_gaussian_kernel(TorusGrid(dim=3, n=8, nt=2, T=0.1))
        expected = np.einsum("i,j,k->ijk", profile, profile, profile)
        assert np.allclose(kern, expected, rtol=1e-14, atol=0.0)

    def test_fft_matches_direct_sum(self):
        grid = TorusGrid(dim=1, n=32, nt=2, T=0.1)
        cost = final_cost_convolution(grid)
        rng = np.random.default_rng(11)
        m = rng.uniform(0.2, 2.0, 32)
        out = cost(Field(grid, m)).values
        direct = np.zeros(32)
        for i in range(32):
            for j in range(32):
                direct[i] += m[j] * cost.kernel[(i - j) % 32]
        direct *= grid.h
        assert np.max(np.abs(out - direct)) < 1e-12

    def test_fft_matches_direct_sum_2d(self):
        grid = TorusGrid(dim=2, n=12, nt=2, T=0.1)
        cost = final_cost_convolution(grid)
        rng = np.random.default_rng(12)
        m = rng.uniform(0.2, 2.0, (12, 12))
        out = cost(Field(grid, m)).values
        direct = np.zeros((12, 12))
        for j in range(12):
            for k in range(12):
                direct += m[j, k] * np.roll(cost.kernel, (j, k), axis=(0, 1))
        direct *= grid.h**2
        assert np.max(np.abs(out - direct)) < 1e-12

    def test_single_mode_attenuation(self):
        # Convolving 1 + cos(2 pi x)/2 with the Gaussian scales the wave by
        # exp(-2 pi^2 sigma^2) and leaves the constant untouched.
        grid = TorusGrid(dim=1, n=64, nt=2, T=0.1)
        cost = final_cost_convolution(grid)
        (x,) = grid.coordinates()
        sigma = 4.0 * grid.h
        out = cost(Field(grid, 1.0 + 0.5 * np.cos(2 * np.pi * x))).values
        expected = 1.0 + 0.5 * math.exp(-2.0 * np.pi**2 * sigma**2) * np.cos(2 * np.pi * x)
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_affine_constants(self):
        grid = TorusGrid(dim=1, n=48, nt=2, T=0.1)
        cost = final_cost_convolution(grid, c0=0.7, c1=2.0)
        assert cost.regularizing
        assert abs(cost.C0 - 0.7) < 1e-13
        flat = cost(Field.full(grid, 1.5)).values
        assert np.max(np.abs(flat - (0.7 + 3.0))) < 1e-12

    def test_smoothing_estimate_on_rough_fields(self):
        # |h[m1] - h[m2]|_C2 <= L_h |m1 - m2|_C1 must hold for arbitrary
        # grid functions, white noise included.
        grid = TorusGrid(dim=1, n=48, nt=2, T=0.1)
        cost = final_cost_convolution(grid, c0=0.3, c1=1.7)
        rng = np.random.default_rng(13)
        for _ in range(100):
            m1 = Field(grid, rng.uniform(-1.0, 1.0, 48))
            m2 = Field(grid, rng.uniform(-1.0, 1.0, 48))
            lhs = norm_C2(Field(grid, cost(m1).values - cost(m2).values))
            w = Field(grid, m1.values - m2.values)
            assert lhs <= cost.L_h * norm_C1(w) * (1.0 + 1e-9)

    def test_smoothing_estimate_2d(self):
        grid = TorusGrid(dim=2, n=16, nt=2, T=0.1)
        cost = final_cost_convolution(grid)
        rng = np.random.default_rng(14)
        for _ in range(25):
            m1 = Field(grid, rng.uniform(-1.0, 1.0, (16, 16)))
            m2 = Field(grid, rng.uniform(-1.0, 1.0, (16, 16)))
            lhs = norm_C2(Field(grid, cost(m1).values - cost(m2).values))
            w = Field(grid, m1.values - m2.values)
            assert lhs <= cost.L_h * norm_C1(w) * (1.0 + 1e-9)

    def test_nonlinear_outer_function(self):
        grid = TorusGrid(dim=1, n=48, nt=2, T=0.1)
        cost = final_cost_convolution(
            grid, h0=np.sin, derivative_bounds=(1.0, 1.0, 1.0), input_range=2.0
        )
        rng = np.random.default_rng(15)
        (x,) = grid.coordinates()

        def smooth_sample():
            vals = rng.uniform(-0.5, 0.5) * np.ones(48)
            for k in (1, 2, 3):
                vals += rng.uniform(-0.5, 0.5) * np.cos(2 * np.pi * k * x)
                vals += rng.uniform(-0.5, 0.5) * np.sin(2 * np.pi * k * x)
            f = Field(grid, vals)
            return Field(grid, vals * (1.8 / norm_C1(f)))

        for _ in range(50):
            m1, m2 = smooth_sample(), smooth_sample()
            lhs = norm_C2(Field(grid, cost(m1).values - cost(m2).values))
            w = Field(grid, m1.values - m2.values)
            assert lhs <= cost.L_h * norm_C1(w) * (1.0 + 1e-9)

    def test_nonlinear_range_enforced(self):
        grid = TorusGrid(dim=1, n=32, nt=2, T=0.1)
        cost = final_cost_convolution(
            grid, h0=np.sin, derivative_bounds=(1.0, 1.0, 1.0), input_range=0.5
        )
        with pytest.raises(ValueError, match="range"):
            cost(Field.full(grid, 5.0))

    @pytest.mark.parametrize("sigma", [0.0, -0.1, math.inf, math.nan])
    def test_kernel_width_must_be_positive_and_finite(self, sigma):
        # A zero width would be the identity, which smooths nothing.
        grid = TorusGrid(dim=1, n=32, nt=2, T=0.1)
        for build in (periodic_gaussian_kernel, final_cost_convolution):
            message = f"^sigma must be positive and finite, got {sigma}$"
            with pytest.raises(ValueError, match=message):
                build(grid, sigma=sigma)

    @staticmethod
    def mode_11_multiplier(n, sigma=None):
        """The factor by which smoothing scales Fourier mode ``(1, 1)`` on the 2D grid of size n."""
        grid = TorusGrid(dim=2, n=n, nt=2, T=0.1)
        return np.fft.fftn(periodic_gaussian_kernel(grid, sigma))[1, 1].real * grid.h**2

    @pytest.mark.parametrize("sigma", [None, 0.125])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_mode_11_multiplier_is_the_gaussian_symbol(self, n, sigma):
        # exp(-sigma^2 |k|^2 / 2) with |k|^2 = 8 pi^2, the default sigma being 4h.
        width = 4.0 / n if sigma is None else sigma
        expected = math.exp(-width**2 * 8.0 * math.pi**2 / 2.0)
        assert self.mode_11_multiplier(n, sigma) == pytest.approx(expected, rel=1e-12)

    def test_default_width_changes_the_problem_with_the_grid(self):
        # sigma = 4h: the multiplier, and with it the observed Picard factor,
        # tends to one under refinement; a fixed width keeps it put.
        default = [self.mode_11_multiplier(n) for n in (16, 32, 64)]
        assert default[0] < 0.09 < 0.5 < default[1] < 0.55 < 0.85 < default[2]
        fixed = [self.mode_11_multiplier(n, 0.125) for n in (16, 32, 64)]
        assert max(fixed) - min(fixed) <= 1e-12

    def test_shape_mismatch_rejected(self):
        grid = TorusGrid(dim=1, n=32, nt=2, T=0.1)
        other = TorusGrid(dim=1, n=64, nt=2, T=0.1)
        cost = final_cost_convolution(grid)
        with pytest.raises(ValueError, match="does not match"):
            cost(Field.zeros(other))


class TestOtherFinalCosts:
    def test_constant_cost(self):
        grid = TorusGrid(dim=1, n=32, nt=4, T=0.2)
        (x,) = grid.coordinates()
        u_T = Field(grid, 0.3 * np.sin(2 * np.pi * x))
        cost = final_cost_constant(u_T)
        assert cost.L_h == 0.0
        assert abs(cost.C0 - norm_C2(u_T)) < 1e-14
        assert cost.regularizing
        m = Field.full(grid, 7.0)
        assert np.array_equal(cost(m).values, u_T.values)

    def test_scaled_identity(self):
        grid = TorusGrid(dim=1, n=16, nt=2, T=0.1)
        cost = final_cost_scaled_identity(-3.0)
        assert cost.L_h == 3.0
        assert cost.C0 == 0.0
        assert not cost.regularizing
        m = Field.full(grid, 2.0)
        assert np.array_equal(cost(m).values, -6.0 * np.ones(16))



class TestComponentwiseSources:
    """The sources take their dot products one component at a time, in place.

    Each must be bitwise the tensor formula it replaced, which forms the
    product stacks and sums their leading axes; the inputs span many
    decades, so that a reordered sum shows.
    """

    @staticmethod
    def inputs(dim, seed):
        rng = np.random.default_rng(seed)
        shape = (5,) + (6,) * dim

        def spread(*lead):
            return rng.normal(size=lead + shape) * 10.0 ** rng.integers(-4, 4, size=lead + shape)

        u, Du, Dm, D2u = spread(), spread(dim), spread(dim), spread(dim, dim)
        m = rng.uniform(0.5, 2.0, shape)
        x = tuple(rng.uniform(0.0, 1.0, shape) for _ in range(dim))
        return u, m, Du, Dm, D2u, x, rng.uniform(0.0, 1.0, shape)

    @staticmethod
    def varying_spec(dim):
        """``H = a |p|^2 / 2 - m`` with ``a = 1 + 0.2 sin 2 pi x_0 + 0.1 m`` and a callable A."""
        k = 2.0 * np.pi

        def a(x, m):
            return 1.0 + 0.2 * np.sin(k * x[0]) + 0.1 * m

        def diagonal(values, shape):
            out = np.zeros((dim, dim) + shape)
            for i, value in enumerate(values):
                out[i, i] = value
            return out

        def A(x, t):
            shape = np.shape(x[0])
            return diagonal([0.5 + 0.1 * np.sin(k * x[0])] + [0.5] * (dim - 1), shape)

        def A_div1(x, t):
            out = np.zeros((dim,) + np.shape(x[0]))
            out[0] = 0.1 * k * np.cos(k * x[0])
            return out

        return HamiltonianSpec(
            H=lambda x, t, p, m: 0.5 * a(x, m) * np.sum(p * p, axis=0) - m,
            H_p=lambda x, t, p, m: a(x, m) * p,
            H_pp=lambda x, t, p, m: diagonal([a(x, m)] * dim, np.shape(p)[1:]),
            H_mp=lambda x, t, p, m: 0.1 * p,
            H_xp_div=lambda x, t, p, m: 0.2 * k * np.cos(k * x[0]) * p[0],
            A=A, A_div1=A_div1,
            A_div2=lambda x, t: -0.1 * k * k * np.sin(k * x[0]),
        )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("varying", [False, True], ids=["quadratic", "callable-A"])
    def test_mfg_G_is_the_tensor_formula(self, dim, varying):
        u, m, Du, Dm, D2u, x, t = self.inputs(dim, 60 + dim)
        if varying:
            spec = self.varying_spec(dim)
            model = build_mfg_coupling(spec, dim=dim)
        else:
            model = quadratic_mfg_model(dim)
            spec = HamiltonianSpec(H=None, H_p=lambda x, t, p, m: p,
                                   H_pp=lambda x, t, p, m: models._eye_like(dim, np.shape(m)))
        Hp, Hpp = spec.H_p(x, t, Du, m), spec.H_pp(x, t, Du, m)
        div_term = np.einsum("ij...,ij...->...", Hpp, D2u)
        if varying:
            div_term = spec.H_xp_div(x, t, Du, m) + div_term
            div_term = div_term + np.sum(spec.H_mp(x, t, Du, m) * Dm, axis=0)
        expected = -np.sum(Hp * Dm, axis=0) - m * div_term
        if varying:
            expected = expected - 2.0 * np.sum(spec.A_div1(x, t) * Dm, axis=0)
            expected = expected - spec.A_div2(x, t) * m
        assert np.array_equal(model.G(u, m, Du, Dm, D2u, x, t), expected)

    @staticmethod
    def root_H1(dim):
        """``H1 = sqrt(1 + |q|^2)``, whose Hessian has off-diagonal entries."""
        def H1_pp(q):
            s = np.sqrt(1.0 + np.sum(q * q, axis=0))
            eye = np.eye(dim).reshape((dim, dim) + (1,) * (q.ndim - 1))
            return (eye * s * s - q[:, np.newaxis] * q[np.newaxis]) / s**3

        return dict(H1=lambda q: np.sqrt(1.0 + np.sum(q * q, axis=0)),
                    H1_p=lambda q: q / np.sqrt(1.0 + np.sum(q * q, axis=0)), H1_pp=H1_pp)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("custom", [False, True], ids=["quadratic-H1", "root-H1"])
    def test_congestion_sources_are_the_tensor_formulas(self, dim, alpha, custom):
        u, m, Du, Dm, D2u, x, t = self.inputs(dim, 70 + dim)
        H1 = self.root_H1(dim) if custom else dict(
            H1=lambda q: 0.5 * np.sum(q * q, axis=0), H1_p=lambda q: q, H1_pp=None)
        model = build_congestion_coupling(alpha, dim=dim, **H1) if custom else congestion_model(
            dim=dim, alpha=alpha)
        ma = np.power(m, alpha)
        q = Du / ma
        if custom:
            Hpp = H1["H1_pp"](q)
            div, hess_dot_du = np.sum(Hpp * D2u, axis=(0, 1)), np.sum(Hpp * Du[np.newaxis], axis=1)
        else:
            div, hess_dot_du = np.trace(D2u), Du
        if alpha != 1.0:
            div = np.power(m, 1.0 - alpha) * div
        G = -np.sum(H1["H1_p"](q) * Dm, axis=0) - div
        G = G + (alpha / ma) * np.sum(hess_dot_du * Dm, axis=0)
        assert np.array_equal(model.G(u, m, Du, Dm, D2u, x, t), G)
        F = ma * H1["H1"](q) - m
        assert np.array_equal(model.F(u, m, Du, Dm, x, t), F)

from __future__ import annotations

import itertools

import numpy as np
import pytest

from fbmfg.torus_grid import (
    Field,
    SpaceTimeField,
    TorusGrid,
    gradient,
    gradient_magnitude,
    gradient_values,
    hessian,
    hessian_contraction,
    hessian_magnitude,
    hessian_values,
    norm_C1,
    norm_C10,
    norm_C10_values,
    norm_C2,
    norm_W21p,
    norm_W21p_values,
    stack_norms,
    subtract_second_order,
    time_derivative,
)
from fbmfg import torus_grid

TWO_PI = 2.0 * np.pi


def grid1d(n=64, nt=8, T=1.0):
    return TorusGrid(dim=1, n=n, nt=nt, T=T)


def grid2d(n=32, nt=8, T=1.0):
    return TorusGrid(dim=2, n=n, nt=nt, T=T)


class TestTorusGrid:
    def test_spacing_and_shape(self):
        g = grid1d(n=64)
        assert g.h == 1.0 / 64
        assert g.shape == (64,)
        assert grid2d(n=32).shape == (32, 32)
        g3 = TorusGrid(dim=3, n=8, nt=4, T=1.0)
        assert g3.shape == (8, 8, 8) and g3.num_points == 512

    def test_coordinates_in_three_dimensions(self):
        g = TorusGrid(dim=3, n=8, nt=4, T=1.0)
        x, y, z = g.coordinates()
        assert x.shape == y.shape == z.shape == (8, 8, 8)
        assert x[3, 0, 5] == y[0, 3, 5] == z[5, 0, 3] == 3 / 8
        f = Field.from_function(g, lambda x, y, z: x + 10 * y + 100 * z)
        assert f.values[1, 2, 3] == (1 + 20 + 300) / 8
        assert np.array_equal(grid1d(n=16).coordinates()[0], np.arange(16) / 16)

    def test_time_axis(self):
        g = grid1d(nt=10, T=0.5)
        t = g.times()
        assert t[0] == 0.0
        assert abs(g.dt * g.nt - g.T) <= np.finfo(float).eps * g.T
        assert len(t) == 11

    def test_space_time_coordinates_broadcast_every_slice(self):
        g = grid2d(n=16, nt=3)
        x, t = g.space_time_coordinates()
        assert t.shape == (4, 16, 16)
        assert all(xi.shape == (4, 16, 16) for xi in x)
        for j, tj in enumerate(g.times()):
            assert np.all(t[j] == tj)
            assert all(np.array_equal(xi[j], ci) for xi, ci in zip(x, g.coordinates()))
        assert not t.flags.writeable and not x[0].flags.writeable

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=0, n=16, nt=4, T=1.0),
            dict(dim=1, n=4, nt=4, T=1.0),
            dict(dim=1, n=16, nt=1, T=1.0),
            dict(dim=1, n=32.5, nt=8, T=1.0),
            dict(dim=1, n=32, nt=8.5, T=1.0),
            dict(dim=1, n=16, nt=4, T=-1.0),
            # A non-finite size is a ValueError, not int()'s OverflowError.
            dict(dim=1, n=float("inf"), nt=8, T=1.0),
            dict(dim=1, n=16, nt=float("inf"), T=1.0),
            dict(dim=1, n=float("nan"), nt=8, T=1.0),
            # T is positive but T/nt underflows to a zero time step.
            dict(dim=1, n=16, nt=8, T=5e-324),
            dict(dim=1.5, n=16, nt=4, T=1.0),
            # T/nt = 1.25e-321 is subnormal: 1/dt overflows in the norms.
            dict(dim=1, n=16, nt=8, T=1e-320),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            TorusGrid(**kwargs)

    @pytest.mark.parametrize("n, nt", [(32.0, 8), (32, 8.0), (np.float64(32.0), np.int64(8))])
    def test_integral_sizes_are_stored_as_int(self, n, nt):
        g = TorusGrid(dim=2, n=n, nt=nt, T=0.1)
        assert type(g.n) is int and type(g.nt) is int
        assert type(TorusGrid(dim=2.0, n=n, nt=nt, T=0.1).dim) is int
        assert g == TorusGrid(dim=2, n=32, nt=8, T=0.1)
        assert hash(g) == hash(TorusGrid(dim=2, n=32, nt=8, T=0.1))
        assert Field.zeros(g).values.shape == (32, 32)
        assert SpaceTimeField.zeros(g).values.shape == (9, 32, 32)

    def test_field_shape_validation(self):
        g = grid1d(n=16)
        with pytest.raises(ValueError):
            Field(g, np.zeros(8))
        with pytest.raises(ValueError):
            SpaceTimeField(g, np.zeros((3, 16)))


class TestGradient:
    def test_constant_is_flat(self):
        f = Field.full(grid1d(), 3.7)
        assert np.all(gradient(f) == 0.0)

    def test_cosine_matches_analytic_derivative(self):
        # Taylor remainder of the centered stencil: |error| <= (2*pi)^3 h^2 / 6.
        g = grid1d(n=64)
        f = Field.from_function(g, lambda x: np.cos(TWO_PI * x))
        exact = -TWO_PI * np.sin(TWO_PI * g.coordinates()[0])
        err = np.max(np.abs(gradient(f)[0] - exact))
        assert err <= TWO_PI**3 * g.h**2 / 6.0

    def test_axis_independence_in_2d(self):
        g = grid2d()
        f = Field.from_function(g, lambda x, y: np.sin(TWO_PI * x))
        grad = gradient(f)
        assert np.all(grad[1] == 0.0)

    def test_linearity(self):
        g = grid2d(n=16)
        rng = np.random.default_rng(7)
        a = rng.normal(size=g.shape)
        b = rng.normal(size=g.shape)
        lhs = gradient(Field(g, 2.0 * a - 3.0 * b))
        rhs = 2.0 * gradient(Field(g, a)) - 3.0 * gradient(Field(g, b))
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-13)


class TestHessian:
    def test_constant_is_zero_matrix(self):
        assert np.all(hessian(Field.full(grid2d(), -2.0)) == 0.0)

    def test_1d_second_derivative(self):
        g = grid1d(n=64)
        f = Field.from_function(g, lambda x: np.cos(TWO_PI * x))
        exact = -TWO_PI**2 * np.cos(TWO_PI * g.coordinates()[0])
        err = np.max(np.abs(hessian(f)[0, 0] - exact))
        assert err <= 5.0 * g.h**2 * TWO_PI**4  # O(h^2) with a generous constant

    def test_mixed_derivative(self):
        g = grid2d(n=64)
        f = Field.from_function(g, lambda x, y: np.sin(TWO_PI * x) * np.sin(TWO_PI * y))
        x, y = g.coordinates()
        exact = TWO_PI**2 * np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
        err = np.max(np.abs(hessian(f)[0, 1] - exact))
        assert err <= 5.0 * g.h**2 * TWO_PI**4

    def test_symmetry_exact(self):
        g = grid2d(n=16)
        v = np.random.default_rng(3).normal(size=g.shape)
        H = hessian(Field(g, v))
        assert np.all(H[0, 1] == H[1, 0])

    def test_refinement_factor(self):
        # Doubling n should shrink the max error by at least 3.5 (asymptotically 4).
        def max_err(n):
            g = grid1d(n=n)
            f = Field.from_function(g, lambda x: np.sin(TWO_PI * x))
            exact_g = TWO_PI * np.cos(TWO_PI * g.coordinates()[0])
            exact_h = -TWO_PI**2 * np.sin(TWO_PI * g.coordinates()[0])
            return (
                np.max(np.abs(gradient(f)[0] - exact_g)),
                np.max(np.abs(hessian(f)[0, 0] - exact_h)),
            )

        for n in (32, 64):
            coarse = max_err(n)
            fine = max_err(2 * n)
            assert coarse[0] / fine[0] >= 3.5
            assert coarse[1] / fine[1] >= 3.5


def roll_gradient(values, h, dim):
    """Reference gradient from one ``np.roll`` copy per shift."""
    axes = range(values.ndim - dim, values.ndim)
    out = np.empty((dim, *values.shape))
    for i, ax in enumerate(axes):
        out[i] = (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2.0 * h)
    return out


def roll_hessian(values, h, dim):
    """Reference Hessian from one ``np.roll`` copy per shift."""
    axes = tuple(range(values.ndim - dim, values.ndim))
    out = np.empty((dim, dim, *values.shape))
    h2 = h * h
    for i, ax in enumerate(axes):
        out[i, i] = (
            np.roll(values, -1, axis=ax) - 2.0 * values + np.roll(values, 1, axis=ax)
        ) / h2
    for i in range(dim):
        for j in range(i + 1, dim):
            ai, aj = axes[i], axes[j]
            cross = (
                np.roll(values, (-1, -1), axis=(ai, aj))
                + np.roll(values, (1, 1), axis=(ai, aj))
                - np.roll(values, (-1, 1), axis=(ai, aj))
                - np.roll(values, (1, -1), axis=(ai, aj))
            ) / (4.0 * h2)
            out[i, j] = cross
            out[j, i] = cross
    return out


class TestGhostLayerStencils:
    """The periodic stencils are bitwise equal to shifted copies."""

    SHAPES = {
        "1d-slice": (1, (16,)),
        "1d-stack": (1, (9, 16)),
        "1d-leading-3x5": (1, (3, 5, 12)),
        "2d-slice": (2, (16, 16)),
        "2d-stack": (2, (9, 16, 16)),
        "2d-leading-3x5-nonsquare": (2, (3, 5, 12, 10)),
        "3d-stack": (3, (5, 8, 8, 8)),
        "3d-nonsquare": (3, (9, 10, 8)),
    }

    @pytest.mark.parametrize("case", list(SHAPES))
    def test_equal_to_np_roll(self, case):
        dim, shape = self.SHAPES[case]
        rng = np.random.default_rng(5)
        # Magnitudes spread over many decades, so a reordered sum would show.
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
        h = 1.0 / shape[-1]
        grad = gradient_values(values, h, dim)
        hess = hessian_values(values, h, dim)
        assert grad.shape == (dim, *shape) and hess.shape == (dim, dim, *shape)
        assert np.array_equal(grad, roll_gradient(values, h, dim))
        assert np.array_equal(hess, roll_hessian(values, h, dim))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_magnitudes_equal_numpy_sums(self, dim):
        rng = np.random.default_rng(6)
        shape = (7,) + (12,) * dim
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
        grad = gradient_values(values, 0.1, dim)
        hess = hessian_values(values, 0.1, dim)
        assert np.array_equal(gradient_magnitude(grad), np.sqrt(np.sum(grad * grad, axis=0)))
        assert np.array_equal(
            hessian_magnitude(hess), np.sqrt(np.sum(hess * hess, axis=(0, 1)))
        )

    def test_norms_from_magnitudes_equal_the_field_norms(self):
        g = grid2d(n=16, nt=6, T=0.3)
        values = np.random.default_rng(8).normal(size=(g.nt + 1, *g.shape))
        f = SpaceTimeField(g, values)
        grad_mag = gradient_magnitude(gradient_values(values, g.h, g.dim))
        hess_mag = hessian_magnitude(hessian_values(values, g.h, g.dim))
        assert norm_C10_values(values, grad_mag) == norm_C10(f)
        assert norm_W21p_values(values, grad_mag[:-1], hess_mag[:-1], g, 5.0) == norm_W21p(f, 5.0)


def spread(rng, shape):
    """Samples whose magnitudes span many decades, so a reordered sum shows."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)


class TestFlatStencils:
    """The flat-buffer kernels at n = 8, against ``np.roll`` and on strided input.

    Every shifted difference is one 1-D pass over the contiguous buffer plus
    patches on the wrapped lines; the outputs must be bitwise the reference.
    """

    LAYOUTS = ["contiguous", "reversed", "every-other"]

    @staticmethod
    def values(dim, lead, layout):
        """An ``lead + (8,) * dim`` array stored as ``layout`` says."""
        rng = np.random.default_rng(10 * dim + len(lead))
        shape = lead + (8,) * dim
        if layout == "contiguous":
            return spread(rng, shape)
        if layout == "reversed":
            return spread(rng, shape)[::-1]
        return spread(rng, shape[:-1] + (2 * shape[-1],))[..., ::2]  # every other column

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equal_to_np_roll(self, dim, lead, layout):
        values = self.values(dim, lead, layout)
        assert values.shape == lead + (8,) * dim
        assert values.flags.c_contiguous == (layout == "contiguous")
        h = 1.0 / 8
        hess = hessian_values(values, h, dim)
        assert np.array_equal(gradient_values(values, h, dim), roll_gradient(values, h, dim))
        assert np.array_equal(hess, roll_hessian(values, h, dim))
        copy = np.ascontiguousarray(values)
        assert np.array_equal(hessian_values(copy, h, dim), hess)

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_subtract_second_order_against_the_hessian(self, dim, mixed):
        rng = np.random.default_rng(13 + dim + mixed)
        values = rng.normal(size=(5,) + (8,) * dim)
        coeffs = rng.uniform(0.5, 1.5, size=(dim, dim, 5) + (8,) * dim)
        for i, j in itertools.combinations(range(dim), 2):
            coeffs[j, i] = coeffs[i, j] = 0.3 * coeffs[i, j] if mixed else 0.0
        hess = hessian_values(values, 0.125, dim)
        expected = 1.0 - np.einsum("ij...,ij...->...", coeffs, hess)
        out = np.ones_like(values)
        subtract_second_order(values, coeffs, 0.125, dim, out=out)
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestIntegerPowers:
    """``norm_W21p_values`` raises integer exponents by repeated squaring."""

    @staticmethod
    def inputs(p):
        g = grid2d(n=8, nt=6, T=0.3)
        values = spread(np.random.default_rng(int(10 * p)), (g.nt + 1, *g.shape))
        grad_mag = gradient_magnitude(gradient_values(values[:-1], g.h, g.dim))
        hess_mag = hessian_magnitude(hessian_values(values[:-1], g.h, g.dim))
        return g, values, grad_mag, hess_mag

    @staticmethod
    def power_formula(values, grad_mag, hess_mag, g, p):
        vals = values[:-1]
        ft = (values[1:] - vals) / g.dt
        integrand = np.abs(vals) ** p + grad_mag**p + hess_mag**p + np.abs(ft) ** p
        return (float(np.sum(integrand)) * g.dt * g.h**g.dim) ** (1.0 / p)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7])
    def test_within_four_ulp_of_the_power_formula(self, p):
        g, values, grad_mag, hess_mag = self.inputs(p)
        for exponent in (p, float(p)):
            got = norm_W21p_values(values, grad_mag, hess_mag, g, exponent)
            ref = self.power_formula(values, grad_mag, hess_mag, g, exponent)
            assert abs(got - ref) <= 4 * np.spacing(ref)

    def test_non_integer_exponent_is_the_power_formula(self):
        g, values, grad_mag, hess_mag = self.inputs(2.5)
        assert norm_W21p_values(values, grad_mag, hess_mag, g, 2.5) == self.power_formula(
            values, grad_mag, hess_mag, g, 2.5
        )

    @pytest.mark.parametrize("p", [2, 2.5, 3, 4, 5, 7])
    def test_field_norm_equals_the_values_norm(self, p):
        g, values, grad_mag, hess_mag = self.inputs(p)
        f = SpaceTimeField(g, values)
        assert norm_W21p(f, p) == norm_W21p_values(values, grad_mag, hess_mag, g, p)

    def test_inputs_are_not_modified(self):
        g, values, grad_mag, hess_mag = self.inputs(5)
        saved = [a.copy() for a in (values, grad_mag, hess_mag)]
        norm_W21p_values(values, grad_mag, hess_mag, g, 5)
        assert all(np.array_equal(a, b) for a, b in zip((values, grad_mag, hess_mag), saved))


class TestNorms:
    def test_zero_field(self):
        g = grid1d(n=16, nt=4)
        z = SpaceTimeField.zeros(g)
        assert norm_C10(z) == 0.0
        assert norm_W21p(z, 3.0) == 0.0

    def test_constant_field_sup_norm(self):
        g = grid1d(n=16, nt=4)
        f = SpaceTimeField(g, np.full((g.nt + 1, g.n), 5.0))
        assert norm_C10(f) == 5.0

    def test_cosine_sup_norms(self):
        g = grid1d(n=64, nt=4)
        f = SpaceTimeField.from_function(g, lambda x, t: np.cos(TWO_PI * x))
        # sup|f| = 1 on the grid; sup|Df| = 2*pi up to the stencil's O(h^2) bias.
        assert abs(norm_C10(f) - (1.0 + TWO_PI)) <= TWO_PI**3 * g.h**2 / 6.0

    def test_w21p_of_unit_constant_is_one(self):
        g = grid1d(n=16, nt=8, T=1.0)
        f = SpaceTimeField(g, np.ones((g.nt + 1, g.n)))
        assert norm_W21p(f, 4.0) == pytest.approx(1.0, abs=1e-13)

    def test_w21p_rejects_small_exponent(self):
        g = grid1d(n=16, nt=4)
        with pytest.raises(ValueError):
            norm_W21p(SpaceTimeField.zeros(g), 1.5)

    def test_w21p_horizon_scaling_for_constant_field(self):
        # For a constant-in-time bounded field only |f|^p contributes, so the
        # norm over [0, T] is exactly T^(1/p); the log-log slope over several
        # horizons must come out as 1/p.
        p = 4.0
        norms, horizons = [], [0.25, 0.5, 1.0]
        for T in horizons:
            g = grid1d(n=16, nt=16, T=T)
            f = SpaceTimeField(g, np.full((g.nt + 1, g.n), 1.0))
            norms.append(norm_W21p(f, p))
        slope = np.polyfit(np.log(horizons), np.log(norms), 1)[0]
        assert slope == pytest.approx(1.0 / p, abs=1e-10)

    def test_homogeneity_and_triangle(self):
        g = grid1d(n=32, nt=6, T=0.5)
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = SpaceTimeField(g, rng.normal(size=(g.nt + 1, g.n)))
            b = SpaceTimeField(g, rng.normal(size=(g.nt + 1, g.n)))
            c = rng.normal()
            for norm in (norm_C10, lambda f: norm_W21p(f, 4.0)):
                na, nb = norm(a), norm(b)
                nsum = norm(SpaceTimeField(g, a.values + b.values))
                assert nsum <= na + nb + 1e-12 * (na + nb)
                assert norm(SpaceTimeField(g, c * a.values)) == pytest.approx(
                    abs(c) * na, rel=1e-12
                )

    def test_single_slice_norms(self):
        g = grid1d(n=64)
        f = Field.from_function(g, lambda x: np.cos(TWO_PI * x))
        assert abs(norm_C1(f) - (1.0 + TWO_PI)) <= 2e-2
        assert abs(norm_C2(f) - (1.0 + TWO_PI + TWO_PI**2)) <= 5e-2


class TestNormKernel:
    """``stack_norms`` and ``hessian_contraction`` against the tensor formulas, bit for bit.

    The magnitudes and contractions built straight from the stencils must
    be the same operations on the same operands, summed in the same order,
    as those of the ``gradient_values``/``hessian_values`` tensors.
    """

    LAYOUTS = ["contiguous", "reversed"]

    @staticmethod
    def stack(dim, layout, seed=0, nt=5):
        g = TorusGrid(dim=dim, n=8, nt=nt, T=0.3)
        values = spread(np.random.default_rng(seed + dim), (g.nt + 1, *g.shape))
        return g, (values if layout == "contiguous" else values[::-1].copy()[::-1])

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stencil_magnitudes_equal_the_tensor_magnitudes(self, dim, layout):
        g, values = self.stack(dim, layout)
        periodic = torus_grid._Periodic(values, g.h, dim)
        assert np.array_equal(
            gradient_magnitude(periodic),
            gradient_magnitude(gradient_values(values, g.h, dim)),
        )
        assert np.array_equal(
            hessian_magnitude(periodic),
            hessian_magnitude(hessian_values(values, g.h, dim)),
        )

    @pytest.mark.parametrize("p", [2, 2.5, 5.0, 6])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_kernel_equals_the_tensor_norms(self, dim, p):
        g, values = self.stack(dim, "contiguous", seed=int(4 * p))
        grad_mag = gradient_magnitude(gradient_values(values, g.h, dim))
        hess_mag = hessian_magnitude(hessian_values(values[:-1], g.h, dim))
        expected = (norm_C10_values(values, grad_mag),
                    norm_W21p_values(values, grad_mag[:-1], hess_mag, g, p))
        assert stack_norms(values, g, p) == expected
        assert stack_norms(values, g, p, grad_mag=grad_mag, hess_mag=hess_mag) == expected
        assert stack_norms(values, g) == expected[:1]
        f = SpaceTimeField(g, values)
        assert (norm_C10(f), norm_W21p(f, p)) == expected

    def test_single_slice_norm_equals_the_tensor_norm(self):
        g = grid2d(n=16)
        f = Field(g, spread(np.random.default_rng(3), g.shape))
        grad = gradient_values(f.values, g.h, g.dim)
        assert norm_C1(f) == norm_C10_values(f.values, gradient_magnitude(grad))

    @pytest.mark.parametrize("shape", ["constant", "x", "t", "xt"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_contraction_equals_the_product_sum(self, dim, shape):
        g, values = self.stack(dim, "contiguous", seed=7)
        rng = np.random.default_rng(11 + dim)
        lead = (g.nt + 1 if "t" in shape else 1,) + (g.shape if "x" in shape else (1,) * dim)
        coeffs = spread(rng, (dim, dim) + lead)  # not symmetric: each term is its own
        hess = hessian_values(values, g.h, dim)
        expected = np.sum(coeffs * hess, axis=(0, 1))
        assert np.array_equal(hessian_contraction(coeffs, values, g.h, dim), expected)
        assert np.array_equal(hessian_contraction(coeffs, values, g.h, dim, hess=hess), expected)

    def test_power_into_a_buffer(self):
        base = spread(np.random.default_rng(5), (4, 6))
        base = np.abs(base)
        for p in (2, 3, 5, 6, 7, 2.5):
            out = np.empty_like(base)
            assert torus_grid._power(base, p, out) is out
            if float(p).is_integer():
                assert np.allclose(out, base**p, rtol=4 * np.finfo(float).eps, atol=0)
            else:
                assert np.array_equal(out, base**p)


class TestTimeDerivative:
    def test_linear_ramp(self):
        g = grid1d(n=16, nt=4, T=2.0)
        f = SpaceTimeField.from_function(g, lambda x, t: 3.0 * t + 0.0 * x)
        dtf = time_derivative(f)
        assert np.allclose(dtf, 3.0, rtol=0, atol=1e-12)

    def test_last_slice_uses_backward_difference(self):
        g = grid1d(n=8, nt=4, T=1.0)
        vals = np.zeros((g.nt + 1, g.n))
        vals[-1] = 1.0
        dtf = time_derivative(SpaceTimeField(g, vals))
        assert np.allclose(dtf[-1], 1.0 / g.dt)
        assert np.allclose(dtf[-2], 1.0 / g.dt)
        assert np.all(dtf[:-2] == 0.0)

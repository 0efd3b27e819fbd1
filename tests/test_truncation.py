import numpy as np
import pytest

from fbmfg.models import quadratic_mfg_model
from fbmfg.torus_grid import Field, TorusGrid, gradient_magnitude
from fbmfg.truncation import (
    TruncationParams,
    clamp_positive,
    clamp_symmetric,
    clamp_vector,
    select_K,
    wrap_model,
)


# The clamp formulas before pass-through, kept as the oracle: the clamps
# must reproduce them bit for bit, cutting or not.
def reference_positive(x, K):
    return np.minimum(np.maximum(x, 1.0 / K), K)


def reference_symmetric(x, K):
    return np.minimum(np.maximum(x, -K), K)


def reference_vector(p, K):
    p = np.asarray(p, dtype=float)
    mag = np.sqrt(np.sum(p * p, axis=0))
    factor = np.ones_like(mag)
    over = mag > K
    factor[over] = K / mag[over]
    return p * factor


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def flat_density(value=1.0, n=16):
    g = TorusGrid(dim=1, n=n, nt=2, T=1.0)
    return Field.full(g, value)


class TestSelectK:
    def test_unit_density_no_cost(self):
        params = select_K(flat_density(1.0), L_h=0.0, C0=0.0, delta=1.0)
        assert params.K == 2.0  # max(2*1, 0, 2)

    def test_cost_term_dominates(self):
        params = select_K(flat_density(1.0), L_h=1.0, C0=1.0, delta=1.0)
        assert params.K == 4.0  # middle term 2*(1*1 + 1)

    def test_floor_term_dominates(self):
        params = select_K(flat_density(1.0), L_h=0.0, C0=0.0, delta=0.01)
        assert params.K == 200.0

    def test_rejects_density_below_floor(self):
        with pytest.raises(ValueError, match="floor"):
            select_K(flat_density(0.4), L_h=0.0, C0=0.0, delta=0.5)

    def test_params_reject_undersized_K(self):
        with pytest.raises(ValueError):
            TruncationParams(K=1.0, delta=1.0, L_h=0.0, C0=0.0, m0_norm_C1=1.0)

    def test_rejects_an_infinite_K(self):
        # Every clamp at K = inf is the identity: nothing would be certified.
        with pytest.raises(ValueError, match="K=inf must be finite"):
            select_K(flat_density(1.0), L_h=0.0, C0=0.0, delta=1.0, K=np.inf)
        with pytest.raises(ValueError, match="must be finite"):
            TruncationParams(K=np.inf, delta=1.0, L_h=0.0, C0=0.0, m0_norm_C1=1.0)


class TestClamps:
    def test_positive_identity_region(self):
        assert clamp_positive(1.0, 2.0) == 1.0

    def test_positive_lower_edge(self):
        assert clamp_positive(0.0, 2.0) == 0.5

    def test_positive_upper_edge(self):
        assert clamp_positive(10.0, 2.0) == 2.0

    def test_positive_requires_K_at_least_one(self):
        with pytest.raises(ValueError):
            clamp_positive(1.0, 0.5)

    def test_symmetric_identity_region(self):
        assert clamp_symmetric(-0.3, 1.0) == -0.3

    def test_vector_inside_and_boundary(self):
        p = np.array([3.0, 4.0])  # |p| = 5, exactly on the boundary
        assert np.all(clamp_vector(p, 5.0) == p)

    def test_vector_radial_retraction(self):
        p = np.array([6.0, 8.0])  # |p| = 10 -> scaled by 1/2
        assert np.allclose(clamp_vector(p, 5.0), [3.0, 4.0])

    def test_idempotence_and_lipschitz(self):
        # 1000 random pairs per clamp; hard clamps are exactly 1-Lipschitz
        # and idempotent, so no tolerance is needed on the first property.
        rng = np.random.default_rng(42)
        K = 2.5
        x = rng.uniform(-20, 20, size=1000)
        y = rng.uniform(-20, 20, size=1000)
        for clamp in (lambda v: clamp_positive(v, K), lambda v: clamp_symmetric(v, K)):
            cx, cy = clamp(x), clamp(y)
            assert np.all(clamp(cx) == cx)
            assert np.all(np.abs(cx - cy) <= np.abs(x - y) + 1e-15)
        px = rng.uniform(-20, 20, size=(2, 1000))
        py = rng.uniform(-20, 20, size=(2, 1000))
        cpx, cpy = clamp_vector(px, K), clamp_vector(py, K)
        assert np.allclose(clamp_vector(cpx, K), cpx, rtol=0, atol=1e-14)
        dist = np.sqrt(np.sum((cpx - cpy) ** 2, axis=0))
        assert np.all(dist <= np.sqrt(np.sum((px - py) ** 2, axis=0)) + 1e-12)


class TestClampOracle:
    """Pass-through clamps against the reference formulas, bit for bit."""

    K = 2.0
    rng = np.random.default_rng(23)
    # Scalars spread over [-2K, 2K] (about half clamped) or inside the range;
    # (2, 9, 8, 8) gradient stacks with half the magnitudes above K or none.
    scalar_stacks = {
        "half": rng.uniform(-2.0 * K, 2.0 * K, (9, 8, 8)),
        "none": rng.uniform(1.0 / K, K, (9, 8, 8)),
    }
    wide = rng.normal(size=(2, 9, 8, 8))
    vector_stacks = {
        "half": wide * (K / np.median(np.sqrt(np.sum(wide * wide, axis=0)))),
        "none": wide * (0.99 * K / np.max(np.sqrt(np.sum(wide * wide, axis=0)))),
    }

    @pytest.mark.parametrize("case", ["half", "none"])
    def test_scalar_clamps_on_stacks(self, case):
        x = self.scalar_stacks[case]
        for clamp, reference in ((clamp_positive, reference_positive),
                                 (clamp_symmetric, reference_symmetric)):
            assert_bitwise(clamp(x, self.K), reference(x, self.K))
        if case == "half":
            assert np.mean(np.abs(x) > self.K) > 0.3

    @pytest.mark.parametrize("case", ["half", "none"])
    def test_vector_clamp_on_stacks(self, case):
        p = self.vector_stacks[case]
        expected = reference_vector(p, self.K)
        assert_bitwise(clamp_vector(p, self.K), expected)
        assert_bitwise(clamp_vector(p, self.K, gradient_magnitude(p)), expected)
        share = np.mean(gradient_magnitude(p) > self.K)
        assert (0.4 < share < 0.6) if case == "half" else share == 0.0

    def test_entries_exactly_at_the_levels(self):
        K = self.K
        x = np.array([1.0 / K, K, -K, 0.0, 1.0])
        for clamp, reference in ((clamp_positive, reference_positive),
                                 (clamp_symmetric, reference_symmetric)):
            assert_bitwise(clamp(x, K), reference(x, K))
        p = np.array([[3.0, 0.6, 3.0], [4.0, 0.8, 4.1]])  # |p| = 5, 1, > 5
        for given in (None, gradient_magnitude(p)):
            assert_bitwise(clamp_vector(p, 5.0, given), reference_vector(p, 5.0))

    def test_zero_vectors_and_nan_entries(self):
        K = self.K
        p = np.array([[0.0, 0.0, np.nan, 10.0, 1.0],
                      [0.0, -0.0, 1.0, 0.0, np.nan]])
        for given in (None, gradient_magnitude(p)):
            assert_bitwise(clamp_vector(p, K, given), reference_vector(p, K))
        inside = np.array([[0.0, np.nan], [-0.0, 0.5]])
        assert_bitwise(clamp_vector(inside, K), reference_vector(inside, K))
        x = np.array([np.nan, 0.5, 3.0, -0.0])
        for clamp, reference in ((clamp_positive, reference_positive),
                                 (clamp_symmetric, reference_symmetric)):
            assert_bitwise(clamp(x, K), reference(x, K))
            assert_bitwise(clamp(x[1:2], K), reference(x[1:2], K))

    def test_single_vector_and_python_floats(self):
        K = self.K
        for p in ([0.3, -0.4], [3.0, 4.0], np.array([1.2, 1.6]), np.zeros(2)):
            assert_bitwise(clamp_vector(p, K), reference_vector(p, K))
        for x in (0.0, 0.25, 1.0, -1.5, 3.0, -0.0, float("nan")):
            assert_bitwise(clamp_positive(x, K), reference_positive(x, K))
            assert_bitwise(clamp_symmetric(x, K), reference_symmetric(x, K))

    def test_pass_through_is_a_read_only_view(self):
        x = self.scalar_stacks["none"].copy()
        p = self.vector_stacks["none"].copy()
        for out, source in ((clamp_positive(x, self.K), x), (clamp_symmetric(x, self.K), x),
                            (clamp_vector(p, self.K), p),
                            (clamp_vector(p, self.K, gradient_magnitude(p)), p)):
            assert out.base is source and not out.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                out[...] = 0.0
        assert x.flags.writeable and p.flags.writeable

    def test_hats_given_magnitudes_equal_hats_without(self):
        model = quadratic_mfg_model(dim=2)
        grid = TorusGrid(dim=2, n=8, nt=8, T=0.05)
        F_hat, G_hat = wrap_model(model.F, model.G, TestWrapModel.params(K=self.K))
        rng = np.random.default_rng(4)
        u = rng.uniform(-2.0 * self.K, 2.0 * self.K, (9, 8, 8))
        m = rng.uniform(0.1, 2.0 * self.K, (9, 8, 8))
        Du, Dm = self.vector_stacks["half"], self.vector_stacks["none"]
        D2u = rng.normal(size=(2, 2, 9, 8, 8))
        x, t = grid.space_time_coordinates()
        mags = {"Du_mag": gradient_magnitude(Du), "Dm_mag": gradient_magnitude(Dm)}
        assert_bitwise(F_hat(u, m, Du, Dm, x, t, **mags), F_hat(u, m, Du, Dm, x, t))
        assert_bitwise(G_hat(u, m, Du, Dm, D2u, x, t, **mags),
                       G_hat(u, m, Du, Dm, D2u, x, t))


class TestWrapModel:
    @staticmethod
    def params(K=2.0):
        return TruncationParams(K=K, delta=1.0, L_h=0.0, C0=0.0, m0_norm_C1=K / 2.0)

    def test_density_slot_clamped(self):
        F = lambda u, m, Du, Dm, x, t: m
        G = lambda u, m, Du, Dm, D2u, x, t: 0.0 * m
        F_hat, _ = wrap_model(F, G, self.params(K=2.0))
        out = F_hat(0.0, 1e6, np.zeros((1, 1)), np.zeros((1, 1)), (0.0,), 0.0)
        assert out == 2.0

    def test_identity_on_core_region(self):
        # Inside [1/K,K] x [-K,K] x {|p|<=K}^2 the wrapped functions must
        # coincide with the originals -- this is what de-truncation relies on.
        rng = np.random.default_rng(5)
        K = 3.0
        F = lambda u, m, Du, Dm, x, t: u * m + Du[0] - Dm[0] ** 2
        G = lambda u, m, Du, Dm, D2u, x, t: m * D2u[0, 0] + u
        F_hat, G_hat = wrap_model(F, G, self.params(K=K))
        for _ in range(50):
            u = rng.uniform(-K, K)
            m = rng.uniform(1.0 / K, K)
            Du = rng.uniform(-K / 2, K / 2, size=(1,))
            Dm = rng.uniform(-K / 2, K / 2, size=(1,))
            D2u = rng.normal(size=(1, 1)) * 100.0
            assert F_hat(u, m, Du, Dm, (0.0,), 0.0) == F(u, m, Du, Dm, (0.0,), 0.0)
            assert G_hat(u, m, Du, Dm, D2u, (0.0,), 0.0) == G(u, m, Du, Dm, D2u, (0.0,), 0.0)

    def test_second_derivative_slot_untouched(self):
        # The wrapped G must stay affine in the Hessian slot with the
        # original slope even when every other argument is far out of range.
        slope = 4.0
        G = lambda u, m, Du, Dm, D2u, x, t: slope * D2u[0, 0] + u + m
        _, G_hat = wrap_model(lambda *a: 0.0, G, self.params(K=2.0))
        args = (1e9, -1e9, np.array([1e9]), np.array([1e9]))
        H1 = np.array([[100.0]])
        H2 = np.array([[-300.0]])
        d = G_hat(*args, H1, (0.0,), 0.0) - G_hat(*args, H2, (0.0,), 0.0)
        assert d == slope * (H1[0, 0] - H2[0, 0])

    def test_wrapped_F_globally_bounded(self):
        # With clamped arguments, |F_hat| over unbounded inputs can never
        # exceed the sup of |F| on the truncated box.
        K = 2.0
        F = lambda u, m, Du, Dm, x, t: u**2 + m + np.sum(Du**2, axis=0)
        F_hat, _ = wrap_model(F, lambda *a: 0.0, self.params(K=K))
        bound = K**2 + K + K**2
        rng = np.random.default_rng(9)
        for _ in range(200):
            val = F_hat(
                rng.normal() * 1e4,
                rng.normal() * 1e4,
                rng.normal(size=(2,)) * 1e4,
                rng.normal(size=(2,)) * 1e4,
                (0.0,),
                0.0,
            )
            assert abs(val) <= bound + 1e-9

"""Problem-defining couplings and final costs.

The solver core treats the coupled pair

    -u_t - a_ij u_{x_i x_j} + F(u, m, Du, Dm, x, t) = 0,
     m_t - c_ij m_{x_i x_j} + G(u, m, Du, Dm, D2u, x, t) = 0,

as abstract data: two source callables, two diffusions and a
final-condition map m(T) -> u(T).  This module supplies that data for the
built-in problem families and checks the derivative callables a model is
built from against central differences.  One helper takes every such
probe (step 1e-3, relative tolerance 1e-4, times 0 and 0.37);
:class:`HamiltonianSpec` and :func:`build_congestion_coupling` say what
each derivative is checked against.

Three families are built here.

* Mean-field couplings derived from a Hamiltonian ``H(x, t, p, m)`` and a
  diffusion ``A``: F is H evaluated on the value gradient, and G collects
  the terms that turn the density equation into the transport equation
  ``m_t = d_ij (A_ij m) + div(m H_p)``.  Derivative callables are
  checked against central differences before a model is returned.
* Congestion couplings ``F = m^alpha H1(Du / m^alpha) - f(x, t, m)`` with
  the matching transport terms; the effective drift weakens where the
  density is large.
* The linear backward-forward pair used by the eigenfunction solver
  (``F = 0``, ``G = -Lap u``) whose scaled-identity final condition is the
  canonical non-regularizing example.

Final conditions are represented by :class:`FinalCost`: the map itself plus
constants ``(L_h, C0)`` for the smoothing estimate

    |h[m1] - h[m2]|_C2 <= L_h |m1 - m2|_C1,        C0 = |h[0]|_C2,

and a ``regularizing`` flag.  The convolution cost derives its constants
from an explicit discrete Young/commutation argument (documented at
:func:`final_cost_convolution`), so they are honest bounds at the working
resolution rather than fitted numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .parabolic import constant_diffusion
from .torus_grid import Field, TorusGrid, hessian_values, norm_C1, norm_C2

__all__ = [
    "CouplingModel",
    "FinalCost",
    "HamiltonianSpec",
    "build_mfg_coupling",
    "build_congestion_coupling",
    "decoupled_heat_model",
    "quadratic_mfg_model",
    "congestion_model",
    "linear_counterexample_model",
    "final_cost_convolution",
    "final_cost_constant",
    "final_cost_scaled_identity",
    "periodic_gaussian_kernel",
]


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CouplingModel:
    """A coupled backward-forward problem in source form.

    Attributes
    ----------
    F : callable
        Source of the backward equation, ``F(u, m, Du, Dm, x, t)``.  Array
        arguments carry a leading component axis where applicable (``Du``,
        ``Dm`` have shape ``(dim,) + shape``); ``x`` is a tuple of
        coordinate arrays.  ``shape`` is the trailing shape of the field
        arguments, and ``x`` and ``t`` arrive broadcast against it: the
        solver passes one time slab of a space-time stack at a time,
        ``shape = (slices,) + spatial``, with ``t`` an array of slice
        times.  F must be pointwise, returning an array of that shape.  F must not write into
        its arguments: the solver hands on an iterate's own arrays, as
        read-only views wherever a clamp cuts nothing, so such a write
        raises ``ValueError`` there.
    G : callable
        Source of the forward equation, ``G(u, m, Du, Dm, D2u, x, t)`` with
        ``D2u`` of shape ``(dim, dim) + shape`` and the same conventions.
        The existence theorem assumes G affine in ``D2u``; nothing checks
        it.  G must not write into its arguments either.
    diffusion_u, diffusion_m : ndarray or callable
        A coefficient array accepted by the stepper (a constant ``(dim,
        dim)`` matrix, say) or a callable mapping a :class:`TorusGrid` to
        one; ``picard_solve`` evaluates a callable once per solve and
        rejects a diffusion that is not symmetric or not uniformly
        elliptic before the first sweep.
    optimal_drift : callable, optional
        Velocity ``b(u, m, Du, Dm, x, t)`` such that the forward equation
        is equivalent to ``m_t = d_ij (c_ij m) + div(m b)``; None when the
        model has no divergence form.
    """

    name: str
    dim: int
    F: Callable
    G: Callable
    diffusion_u: object
    diffusion_m: object
    optimal_drift: Optional[Callable] = None

    def diffusion_values(self, grid: TorusGrid, equation: str = "u") -> np.ndarray:
        """Coefficient array for the stepper (``equation`` is 'u' or 'm')."""
        if equation not in ("u", "m"):
            raise ValueError(f"equation must be 'u' or 'm', got {equation!r}")
        src = self.diffusion_u if equation == "u" else self.diffusion_m
        return np.asarray(src(grid) if callable(src) else src, dtype=float)


def _eye_like(dim: int, spatial: tuple[int, ...]) -> np.ndarray:
    eye = np.eye(dim).reshape((dim, dim) + (1,) * len(spatial))
    return np.broadcast_to(eye, (dim, dim) + tuple(spatial))


def _dot(a, b) -> np.ndarray:
    """``sum_k a_k b_k`` over two sequences of arrays, one product at a time.

    The products are summed in order, into the first: for ``(dim,) +
    shape`` stacks this is bitwise ``np.sum(a * b, axis=0)``, without its
    stack-sized product.
    """
    pairs = zip(a, b)
    x, y = next(pairs)
    total = np.asarray(x * y)  # an array, so that it updates in place
    for x, y in pairs:
        total += x * y  # each product is freed before the next is formed
    return total


def _entries(tensor: np.ndarray):
    """The entries ``tensor[i, j]`` of a ``(dim, dim) + shape`` stack, row by row.

    :func:`_dot` of two such sequences is bitwise ``np.sum(a * b, axis=(0, 1))``.
    """
    return (entry for row in tensor for entry in row)


def _half_square(p: np.ndarray) -> np.ndarray:
    """``|p|^2 / 2`` along the leading axis, with one component squared at a time.

    Bitwise what ``0.5 * np.sum(p * p, axis=0)`` gives (see :func:`_dot`).
    """
    return 0.5 * _dot(p, p)


# ---------------------------------------------------------------------------
# Hamiltonian-driven mean-field couplings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Callables defining ``H(x, t, p, m)`` and the diffusion ``A``.

    ``x`` is a tuple of coordinate arrays, ``p`` has a leading ``(dim,)``
    axis, and every callable is vectorized over the trailing shape, against
    which ``x`` and ``t`` arrive broadcast (the solver passes time slabs,
    ``(slices,) + spatial`` blocks of a space-time stack with an array
    ``t``; the derivative probes pass sample points and a float ``t``).  The derivative fields are
    the ones the transport terms need; each must match central differences
    of the callable named last:

    * ``H_p``  -> ``(dim,) + shape``   gradient in p; of H,
    * ``H_pp`` -> ``(dim, dim) + shape`` Hessian in p; of H_p in p,
    * ``H_mp`` -> ``(dim,) + shape``   mixed m,p derivative (None = 0); of H_p in m,
    * ``H_xp_div`` -> ``shape``        the summed trace ``sum_i d^2 H / dx_i dp_i``
      (None = 0); of H_p in x.

    ``A`` is a constant matrix (scalar, ``(dim, dim)`` array, or None for
    the identity) or a callable ``A(x, t) -> (dim, dim) + shape``.  For a
    spatially varying A the divergence callables ``A_div1(x, t) ->
    (dim,) + shape`` (``sum_i d_i A_ij``; of A) and ``A_div2(x, t) -> shape``
    (``sum_ij d_i d_j A_ij``; of that numeric ``A_div1``) must be supplied.
    The matches are checked when the model is built, an undeclared term
    against zero.  No callable may write into its arguments: in the solver
    ``p`` and ``m`` are an iterate's own arrays, passed as read-only views
    wherever the clamps cut nothing, so a write raises ``ValueError``.
    """

    H: Callable
    H_p: Callable
    H_pp: Callable
    H_mp: Optional[Callable] = None
    H_xp_div: Optional[Callable] = None
    A: object = None
    A_div1: Optional[Callable] = None
    A_div2: Optional[Callable] = None


# Derivative probes: difference step, relative tolerance, samples, times.
_FD_STEP = 1e-3
_FD_TOL = 1e-4
_FD_SAMPLES = 24
_FD_TIMES = (0.0, 0.37)


def _partials(f: Callable, v: np.ndarray) -> np.ndarray:
    """Central differences of ``f`` along each row of the ``(k, S)`` samples ``v``.

    ``f`` maps such an array to ``(...) + (S,)``; entry ``[..., j, s]`` of
    the result approximates ``d f[..., s] / d v[j, s]``.
    """
    cols = []
    for j in range(v.shape[0]):
        dv = np.zeros_like(v)
        dv[j] = _FD_STEP
        cols.append(np.asarray(f(v + dv), dtype=float) - np.asarray(f(v - dv), dtype=float))
    return np.stack(cols, axis=-2) / (2 * _FD_STEP)


def _assert_close(label: str, analytic, numeric) -> None:
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    if analytic.shape != numeric.shape:
        raise ValueError(
            f"{label}: declared callable returned shape {analytic.shape}, "
            f"expected {numeric.shape}"
        )
    scale = max(1.0, float(np.max(np.abs(analytic))))
    err = float(np.max(np.abs(analytic - numeric)))
    if not math.isfinite(err) or err > _FD_TOL * scale:
        raise ValueError(
            f"{label}: declared derivative differs from a central-difference "
            f"probe by {err:.3e} (allowed {_FD_TOL * scale:.3e}); "
            "check the supplied callables"
        )


def _fd_validate_hamiltonian(
    spec: HamiltonianSpec, H_mp: Callable, H_xp_div: Callable, dim: int
) -> None:
    """Probe H_p, H_pp, H_mp and H_xp_div against differences of H and H_p."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (dim, _FD_SAMPLES))
    p = rng.uniform(-2.0, 2.0, (dim, _FD_SAMPLES))
    m = rng.uniform(0.6, 1.8, _FD_SAMPLES)
    x = tuple(X)
    for t in _FD_TIMES:
        _assert_close("H_p", spec.H_p(x, t, p, m), _partials(lambda v: spec.H(x, t, v, m), p))
        _assert_close("H_pp", spec.H_pp(x, t, p, m),
                      _partials(lambda v: spec.H_p(x, t, v, m), p))
        _assert_close("H_mp", H_mp(x, t, p, m),
                      _partials(lambda v: spec.H_p(x, t, p, v[0]), m[np.newaxis])[:, 0])
        _assert_close("H_xp_div", H_xp_div(x, t, p, m),
                      np.trace(_partials(lambda v: spec.H_p(tuple(v), t, p, m), X)))


def _fd_validate_diffusion(A: Callable, A_div1: Callable, A_div2: Callable, dim: int) -> None:
    """Probe ``A_div1_j = sum_i d_i A_ij`` and ``A_div2`` = the divergence of that."""
    X = np.random.default_rng(1).uniform(0.0, 1.0, (dim, _FD_SAMPLES))
    for t in _FD_TIMES:
        def A_at(v):
            A_v = np.asarray(A(tuple(v), t), dtype=float)
            return np.broadcast_to(A_v, (dim, dim, v.shape[1]))

        def div1(v):
            return np.trace(_partials(A_at, v), axis1=0, axis2=2)

        _assert_close("A_div1", A_div1(tuple(X), t), div1(X))
        _assert_close("A_div2", A_div2(tuple(X), t), np.trace(_partials(div1, X)))


def build_mfg_coupling(
    spec: HamiltonianSpec,
    *,
    dim: int,
    name: str = "mfg-coupling",
) -> CouplingModel:
    """Assemble the coupled sources from a Hamiltonian.

    The backward source is ``F = H(x, t, Du, m)``; the forward source is

        G = -(sum_ij d_i d_j A_ij) m - 2 sum_j (sum_i d_i A_ij) Dm_j
            - H_p . Dm - m (H_xp_div + H_pp : D2u + H_mp . Dm),

    which is exactly ``c_ij m_ij - d_ij(A_ij m) - div(m H_p)``, so the
    forward equation transports the density along ``H_p``.  Both equations
    use ``A`` as diffusion.  Every declared derivative is probed against
    central differences on fixed sample points, as listed at
    :class:`HamiltonianSpec`, and the build raises ``ValueError`` naming
    the first one that disagrees.
    """
    H_mp = spec.H_mp or (lambda x, t, p, m: np.zeros((dim,) + np.shape(m)))
    H_xp_div = spec.H_xp_div or (lambda x, t, p, m: np.zeros(np.shape(m)))
    A_is_callable = callable(spec.A)
    if not A_is_callable and (spec.A_div1 is not None or spec.A_div2 is not None):
        raise ValueError("divergence callables only make sense for a callable A")
    if A_is_callable and (spec.A_div1 is None) != (spec.A_div2 is None):
        raise ValueError("a callable A needs both A_div1 and A_div2 (or neither)")
    A_div1 = spec.A_div1 or (lambda x, t: np.zeros((dim,) + np.shape(x[0])))
    A_div2 = spec.A_div2 or (lambda x, t: np.zeros(np.shape(x[0])))

    _fd_validate_hamiltonian(spec, H_mp, H_xp_div, dim)
    if A_is_callable:
        _fd_validate_diffusion(spec.A, A_div1, A_div2, dim)

    def F(u, m, Du, Dm, x, t):
        return np.asarray(spec.H(x, t, Du, m), dtype=float)

    # (x, t, A_div1, A_div2) of each (x, t) G saw, keyed by the objects: a
    # solve hands the same views of each time slab to every sweep, so they
    # are evaluated once per slab and solve.  Coordinates that start at t = 0
    # begin a new set, and the entries of the last one are dropped.
    held: dict[tuple[int, int], tuple] = {}

    def divergences(x, t):
        entry = held.get((id(x), id(t)))  # one read: a concurrent caller cannot swap it
        if entry is None or entry[0] is not x or entry[1] is not t:
            if np.asarray(t).flat[0] == 0.0:
                held.clear()
            entry = held[id(x), id(t)] = (x, t, np.asarray(spec.A_div1(x, t), dtype=float),
                                          np.asarray(spec.A_div2(x, t), dtype=float))
        return entry[2:]

    # Terms the spec leaves undeclared are zero and are skipped.  Every dot
    # product is taken one component at a time and every update is in place,
    # each bitwise the operation of the formula above.
    def G(u, m, Du, Dm, D2u, x, t):
        out = _dot(np.asarray(spec.H_p(x, t, Du, m), dtype=float), Dm)
        np.negative(out, out=out)
        div_term = _dot(_entries(np.asarray(spec.H_pp(x, t, Du, m), dtype=float)),
                        _entries(D2u))
        if spec.H_xp_div is not None:
            div_term += np.asarray(spec.H_xp_div(x, t, Du, m), dtype=float)
        if spec.H_mp is not None:
            div_term += _dot(np.asarray(spec.H_mp(x, t, Du, m), dtype=float), Dm)
        div_term *= m
        out -= div_term
        del div_term
        if spec.A_div1 is not None:
            div1, div2 = divergences(x, t)
            transport = _dot(div1, Dm)
            transport *= 2.0
            out -= transport
            del transport
            out -= div2 * m
        return out

    def drift(u, m, Du, Dm, x, t):
        return np.asarray(spec.H_p(x, t, Du, m), dtype=float)

    if A_is_callable:
        def diffusion(grid: TorusGrid) -> np.ndarray:
            x, t = grid.space_time_coordinates()
            A = np.broadcast_to(np.asarray(spec.A(x, t), dtype=float), (dim, dim) + t.shape)
            return np.moveaxis(A, 2, 0)
    else:
        diffusion = constant_diffusion(dim, spec.A if spec.A is not None else 1.0)

    return CouplingModel(
        name=name, dim=dim, F=F, G=G,
        diffusion_u=diffusion, diffusion_m=diffusion, optimal_drift=drift,
    )


# ---------------------------------------------------------------------------
# Congestion couplings
# ---------------------------------------------------------------------------


def build_congestion_coupling(
    alpha: float,
    *,
    dim: int = 1,
    A=1.0,
    H1: Optional[Callable] = None,
    H1_p: Optional[Callable] = None,
    H1_pp: Optional[Callable] = None,
    f: Optional[Callable] = None,
    name: str = "congestion",
) -> CouplingModel:
    """Congestion coupling ``F = m^alpha H1(Du / m^alpha) - f(x, t, m)``.

    With ``q = Du / m^alpha`` the forward source is

        G = -H1_p(q) . Dm - m^(1-alpha) (H1_pp(q) : D2u)
            + alpha m^(-alpha) (H1_pp(q) Du) . Dm,

    which equals ``-div(m H1_p(q))`` exactly, so mass is transported along
    the congestion-weakened drift ``H1_p(q)``.  At ``alpha = 0`` this
    reduces to the Hamiltonian coupling with ``H = H1(p) - f``; at
    ``alpha = 1`` with the default quadratic ``H1`` the drift terms cancel
    and ``G = -Lap u``.

    ``H1`` defaults to ``|q|^2 / 2`` (with exact derivatives) and ``f`` to
    the density itself; the sources raise on any nonpositive density, since
    ``m^alpha`` leaves its domain there.  Custom ``H1`` requires both
    ``H1_p`` and ``H1_pp``; ``H1_p`` is probed against central differences
    of ``H1``, and ``H1_pp`` against those of ``H1_p``, on fixed sample
    points.  A is a constant matrix (scalar or
    ``(dim, dim)``).
    """
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    custom_H1 = H1 is not None
    if custom_H1 and (H1_p is None or H1_pp is None):
        raise ValueError("a custom H1 needs H1_p and H1_pp as well")
    if not custom_H1:
        H1 = _half_square
        H1_p = lambda q: q
    if f is None:
        f = lambda x, t, m: m

    if custom_H1:
        q = np.random.default_rng(0).uniform(-2.0, 2.0, (dim, _FD_SAMPLES))
        _assert_close("H1_p", H1_p(q), _partials(H1, q))
        _assert_close("H1_pp", H1_pp(q), _partials(H1_p, q))

    def _check_density(m):
        if np.any(np.asarray(m) <= 0.0):
            raise ValueError("congestion coupling needs a strictly positive density")

    def power_alpha(m):
        """``m^alpha``; ``m^1`` is ``m`` itself, as ``np.power`` would give it bitwise."""
        return m if alpha == 1.0 else np.power(m, alpha)

    def F(u, m, Du, Dm, x, t):
        _check_density(m)
        ma = power_alpha(m)
        out = ma * H1(Du / ma)
        out -= np.asarray(f(x, t, m), dtype=float)
        return out

    # Dot products one component at a time and updates in place, each step
    # bitwise the operation of the formula above.
    def G(u, m, Du, Dm, D2u, x, t):
        _check_density(m)
        ma = power_alpha(m)
        if custom_H1:
            q = Du / ma
            Hpp = np.asarray(H1_pp(q), dtype=float)
            out = _dot(np.asarray(H1_p(q), dtype=float), Dm)
            div = _dot(_entries(Hpp), _entries(D2u))
            hess_dot_du = [_dot(row, Du) for row in Hpp]
            del q, Hpp
        else:  # H1_p(q) = q, and H1_pp is the identity: contract it as a trace
            out = _dot((component / ma for component in Du), Dm)
            div, hess_dot_du = np.trace(D2u), Du
        np.negative(out, out=out)
        if alpha != 1.0:  # else m^(1-alpha) is one
            div *= np.power(m, 1.0 - alpha)
        out -= div
        del div
        transport = _dot(hess_dot_du, Dm)
        transport *= alpha / ma
        out += transport
        return out

    def drift(u, m, Du, Dm, x, t):
        _check_density(m)
        return np.asarray(H1_p(Du / power_alpha(m)), dtype=float)

    diffusion = constant_diffusion(dim, A)
    return CouplingModel(
        name=name, dim=dim, F=F, G=G,
        diffusion_u=diffusion, diffusion_m=diffusion, optimal_drift=drift,
    )


# ---------------------------------------------------------------------------
# Prebuilt models
# ---------------------------------------------------------------------------


def decoupled_heat_model(dim: int = 1) -> CouplingModel:
    """Two independent heat equations: ``F = G = 0``, unit diffusion."""
    return CouplingModel(
        name="decoupled-heat", dim=dim,
        F=lambda u, m, Du, Dm, x, t: np.zeros(np.shape(u)),
        G=lambda u, m, Du, Dm, D2u, x, t: np.zeros(np.shape(u)),
        diffusion_u=np.eye(dim), diffusion_m=np.eye(dim),
        optimal_drift=lambda u, m, Du, Dm, x, t: np.zeros((dim,) + np.shape(u)),
    )


def quadratic_mfg_model(dim: int = 1) -> CouplingModel:
    """Quadratic Hamiltonian ``H = |p|^2 / 2 - m`` with diffusion ``I / 2``.

    The sources come out as ``F = |Du|^2 / 2 - m`` and
    ``G = -Du . Dm - m Lap u``.
    """
    spec = HamiltonianSpec(
        H=lambda x, t, p, m: _half_square(p) - m,
        H_p=lambda x, t, p, m: p,
        H_pp=lambda x, t, p, m: _eye_like(p.shape[0], p.shape[1:]),
        A=0.5 * np.eye(dim),
    )
    return build_mfg_coupling(spec, dim=dim, name="quadratic-mfg")


def congestion_model(dim: int = 1, alpha: float = 1.0) -> CouplingModel:
    """Default congestion coupling (quadratic ``H1``, ``f = m``, unit A)."""
    return build_congestion_coupling(alpha, dim=dim)


def linear_counterexample_model(alpha: float = -3.0, dim: int = 1) -> CouplingModel:
    """The linear pair ``F = 0``, ``G = -Lap u`` with unit diffusions.

    Pair it with :func:`final_cost_scaled_identity` (same ``alpha``) to
    reproduce in the iteration what the eigenfunction solver predicts in
    closed form, including the loss of solvability past the critical
    horizon when ``alpha < -2``.
    """
    def G(u, m, Du, Dm, D2u, x, t):
        return -np.trace(D2u, axis1=0, axis2=1)

    return CouplingModel(
        name="linear-counterexample", dim=dim,
        F=lambda u, m, Du, Dm, x, t: np.zeros(np.shape(u)),
        G=G,
        diffusion_u=np.eye(dim), diffusion_m=np.eye(dim),
        optimal_drift=None,
    )


# ---------------------------------------------------------------------------
# Final conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FinalCost:
    """Final-condition map ``m(T) -> u(T)`` with its smoothing constants."""

    fn: Callable[[Field], Field]
    L_h: float
    C0: float
    regularizing: bool
    kernel: Optional[np.ndarray] = None

    def __call__(self, m: Field) -> Field:
        return self.fn(m)


def periodic_gaussian_kernel(grid: TorusGrid, sigma: Optional[float] = None) -> np.ndarray:
    """Periodized Gaussian on the grid, normalized to exact unit mass.

    The periodization sums integer translates with ``|r| <= 3`` (ample for
    any sigma a few grid cells wide); the discrete normalization makes
    ``sum psi h^dim = 1`` hold exactly, so convolution against the
    kernel preserves constants and total mass to rounding.  ``sigma`` is
    the Gaussian width in torus units, positive and finite; it defaults to
    four grid cells, ``4h``, so the default kernel changes with the grid:
    it scales Fourier mode ``k`` by ``exp(-sigma^2 |2 pi k|^2 / 2)`` (up to
    aliasing), at mode ``(1, 1)`` in 2D 0.085, 0.54 and 0.86 for n = 16, 32
    and 64.  Pass a fixed ``sigma`` to solve one problem at several
    resolutions.
    """
    if sigma is None:
        sigma = 4.0 * grid.h
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    x = np.arange(grid.n) * grid.h
    profile = np.zeros(grid.n)
    for r in range(-3, 4):
        profile += np.exp(-0.5 * ((x + r) / sigma) ** 2)
    kern = reduce(np.multiply.outer, [profile] * grid.dim)
    kern = kern / (kern.sum() * grid.h**grid.dim)
    return kern


def final_cost_convolution(
    grid: TorusGrid,
    *,
    c0: float = 0.0,
    c1: float = 1.0,
    h0: Optional[Callable] = None,
    derivative_bounds: Optional[tuple[float, float, float]] = None,
    input_range: Optional[float] = None,
    sigma: Optional[float] = None,
) -> FinalCost:
    """Smoothing final condition ``h[m] = h0(m * psi)``.

    ``psi`` is the unit-mass periodized Gaussian of
    :func:`periodic_gaussian_kernel` and ``*`` the discrete periodic
    convolution with quadrature weight ``h^dim`` (computed by FFT).  The
    outer function is affine, ``h0(s) = c0 + c1 s``, unless a callable
    ``h0`` is given together with ``derivative_bounds = (b1, b2, b3)``
    (bounds on ``|h0'|, |h0''|, |h0'''|``) valid on ``|s| <= input_range``;
    in that case the constant below is proved for densities inside the C1
    ball ``|m|_C1 <= input_range``, and evaluation rejects arguments
    outside it.

    The Lipschitz constant is an explicit bound, derived in two steps for
    ``e = w * psi`` with ``w = m1 - m2``:

    * the difference stencils are shift-invariant, so they commute with
      the periodic convolution, and the kernel is nonnegative with unit
      mass: ``|e| <= |w|`` and ``|De| <= |Dw|`` pointwise;
    * for the second derivative both differences land on the kernel,
      ``(D2 e)_ik = w * (D2 psi)_ik``, and discrete Young gives
      ``|D2 e|_F <= A2 max|w|`` with
      ``A2 = (sum_ik |(D2 psi)_ik|_1^2)^(1/2)`` in quadrature-weighted l1
      norms of exactly the stencils the norms use.

    Hence for the affine case ``L_h = |c1| (1 + A2)`` satisfies
    ``|h[m1] - h[m2]|_C2 <= L_h |m1 - m2|_C1`` for arbitrary grid
    functions at this resolution, with no fitted constants.  For a general
    ``h0`` the chain rule on top of the same kernel bounds gives the
    (conservative) constant

        L_h = b1 (2 + A2) + b2 R (3 + A2) + b3 R^2,

    with ``R = input_range``: unit kernel mass propagates ``|m|_C1 <= R``
    to the smoothed field and its gradient, and ``A2`` covers its second
    derivative.  ``C0 = |h[0]|_C2`` is evaluated, not declared.  ``sigma``
    must be positive: a zero width would be the identity, whose ``A2``
    grows like ``1/h^2`` and certifies no smoothing.  Its default, ``4h``,
    makes the cost, and with it the problem, change with the grid: ``L_h``
    grows as the kernel narrows, and the Picard factor, set by the kernel's
    multiplier at the lowest modes, tends to one under refinement (see
    :func:`periodic_gaussian_kernel`).  A fixed ``sigma`` keeps one problem.
    """
    kernel = periodic_gaussian_kernel(grid, sigma=sigma)
    hess = hessian_values(kernel, grid.h, grid.dim)
    weight = grid.h**grid.dim
    A2 = math.sqrt(
        sum(
            float(np.sum(np.abs(hess[i, k])) * weight) ** 2
            for i in range(grid.dim)
            for k in range(grid.dim)
        )
    )
    if h0 is not None:
        if derivative_bounds is None or input_range is None:
            raise ValueError("a callable h0 needs derivative_bounds and input_range")
        b1, b2, b3 = (float(b) for b in derivative_bounds)
        if min(b1, b2, b3) < 0.0 or not input_range > 0.0:
            raise ValueError("derivative bounds must be nonnegative and input_range positive")
        L_h = (
            b1 * (2.0 + A2)
            + b2 * input_range * (3.0 + A2)
            + b3 * input_range**2
        )
    else:
        L_h = abs(c1) * (1.0 + A2)
    kernel_hat = np.fft.fftn(kernel)

    def smooth(values: np.ndarray) -> np.ndarray:
        return np.real(np.fft.ifftn(np.fft.fftn(values) * kernel_hat)) * weight

    def fn(m: Field) -> Field:
        if m.values.shape != kernel.shape:
            raise ValueError(
                f"density shape {m.values.shape} does not match the cost grid {kernel.shape}"
            )
        e = smooth(m.values)
        if h0 is None:
            out = c0 + c1 * e
        else:
            size = norm_C1(m)
            if size > input_range * (1.0 + 1e-12):
                raise ValueError(
                    f"density has C1 norm {size:.3g}, outside the declared "
                    f"range {input_range:.3g} of h0's derivative bounds"
                )
            out = np.asarray(h0(e), dtype=float)
        return Field(m.grid, out)

    C0 = norm_C2(fn(Field.zeros(grid)))
    return FinalCost(
        fn=fn, L_h=float(L_h), C0=float(C0), regularizing=True, kernel=kernel,
    )


def final_cost_constant(u_T: Field) -> FinalCost:
    """Final condition that ignores the density: ``h[m] = u_T``."""
    values = u_T.values.copy()

    def fn(m: Field) -> Field:
        if m.values.shape != values.shape:
            raise ValueError(
                f"density shape {m.values.shape} does not match the cost data {values.shape}"
            )
        return Field(m.grid, values.copy())

    return FinalCost(fn=fn, L_h=0.0, C0=norm_C2(u_T), regularizing=True)


def final_cost_scaled_identity(scale: float) -> FinalCost:
    """Pointwise final condition ``h[m] = scale * m`` — deliberately rough.

    The identity does not smooth: no constant lets ``|h[m]|_C2`` be
    controlled by ``|m|_C1`` uniformly in the resolution, which is exactly
    the mechanism behind the critical-horizon failure of the linear pair.
    The stored ``L_h = |scale|`` is only the zeroth/first-order Lipschitz
    constant (enough for the truncation-level bookkeeping); the cost is
    flagged ``regularizing=False`` and downstream users must treat it as
    outside the contraction theory.
    """
    scale = float(scale)

    def fn(m: Field) -> Field:
        return Field(m.grid, scale * m.values)

    return FinalCost(fn=fn, L_h=abs(scale), C0=0.0, regularizing=False)

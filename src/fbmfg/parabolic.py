"""Implicit finite-difference solvers for linear parabolic problems on the torus.

The driver equations all reduce to linear problems of the form

    v_t - c_ij(x,t) v_{x_i x_j} + g(x,t) = 0

marched forward in time from ``v(x, 0)``, or the backward-in-time variant

    -u_t - c_ij u_{x_i x_j} + g = 0,     u(x, T) given,

which is solved by the substitution ``t -> T - t``: reverse the coefficient
and source slices, run the forward march, reverse the output.  That makes
the backward solver an exact mirror of the forward one (an index
bookkeeping identity, tested as such).

Time stepping is backward Euler: each step solves

    (I + dt * L_j) v_j = v_{j-1} - dt * g_j

with ``L_j`` the spatial operator sampled at the implicit level ``t_j``.
Spatial stencils are the second-order centered ones from
:mod:`fbmfg.torus_grid`.  The march takes one of two paths, chosen from the
shape of the diffusion:

- a constant ``(dim, dim)`` matrix makes ``I + dt * L`` circulant, so the
  march is one scalar recursion per discrete Fourier mode,
  ``v̂_j = (v̂_{j-1} - dt ĝ_j) / (1 + dt λ̂_k)``, with ``λ̂_k`` the symbol of
  exactly those stencils (mixed term included);
- x- or t-dependent coefficients assemble ``L_j`` as a sparse matrix from
  periodic shift operators and solve each step by a direct ``splu``
  factorization (refactored only when the coefficients change in time).

Either way the finished march is checked against its discrete equation:
the relative residual of every step must stay below ``RESIDUAL_TOL``.

:func:`solve_fp_conservative` is the positivity/mass-preserving variant for
transport-diffusion of a density,

    m_t = d_ij (A_ij m) + div(m b),

discretized in conservative flux form with first-order upwinding of the
transport velocity ``-b``.  Its implicit system matrix is an M-matrix with
unit column sums, so densities stay nonnegative and the discrete total mass
is conserved exactly (up to the linear-solver residual); this path uses a
direct factorization in both dimensions because its purpose is the
mass-conservation audit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .torus_grid import Field, SpaceTimeField, TorusGrid, hessian_values, second_differences

__all__ = [
    "SolverError",
    "ParabolicProblem",
    "solve_forward",
    "solve_backward",
    "solve_fp_conservative",
    "constant_diffusion",
    "RESIDUAL_TOL",
]

RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """A march failed its residual check, or produced non-finite values."""


# ---------------------------------------------------------------------------
# Periodic shift matrices (cached): S_s @ vec(v) == vec(np.roll(v, s, axis)).
# ---------------------------------------------------------------------------

_shift_cache: dict[tuple[int, int, int, int], sp.csr_matrix] = {}


def _shift_1d(n: int, s: int) -> sp.csr_matrix:
    rows = np.arange(n)
    cols = (rows - s) % n
    return sp.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n))


def _shift_matrix(n: int, dim: int, axis: int, s: int) -> sp.csr_matrix:
    key = (n, dim, axis, s)
    mat = _shift_cache.get(key)
    if mat is None:
        if dim == 1:
            mat = _shift_1d(n, s)
        else:
            eye = sp.identity(n, format="csr")
            s1 = _shift_1d(n, s)
            mat = sp.kron(s1, eye, format="csr") if axis == 0 else sp.kron(eye, s1, format="csr")
        _shift_cache[key] = mat
    return mat


def _second_diff(n: int, dim: int, axis: int, h: float) -> sp.csr_matrix:
    plus = _shift_matrix(n, dim, axis, -1)
    minus = _shift_matrix(n, dim, axis, 1)
    eye = sp.identity(n**dim, format="csr")
    return (plus + minus - 2.0 * eye) / (h * h)


def _first_diff(n: int, dim: int, axis: int, h: float) -> sp.csr_matrix:
    plus = _shift_matrix(n, dim, axis, -1)
    minus = _shift_matrix(n, dim, axis, 1)
    return (plus - minus) / (2.0 * h)


def _cross_diff(n: int, h: float) -> sp.csr_matrix:
    # 4-point cross stencil for the mixed second derivative in 2D.
    return (_first_diff(n, 2, 0, h) @ _first_diff(n, 2, 1, h)).tocsr()


def _diag(values: np.ndarray) -> sp.dia_matrix:
    return sp.diags(np.ravel(values))


# ---------------------------------------------------------------------------
# Problem definition
# ---------------------------------------------------------------------------


def constant_diffusion(dim: int, value: Union[float, np.ndarray]) -> np.ndarray:
    """Build a constant ``(dim, dim)`` diffusion matrix.

    A scalar means ``value * I``.
    """
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        return np.eye(dim) * float(value)
    if value.shape != (dim, dim):
        raise ValueError(f"diffusion matrix must be ({dim}, {dim}), got {value.shape}")
    return value.copy()


@dataclass
class ParabolicProblem:
    """Linear parabolic problem data on a :class:`TorusGrid`.

    Parameters
    ----------
    grid : TorusGrid
    diffusion : ndarray
        Second-order coefficients ``c_ij``.  Accepted shapes:
        ``(dim, dim)`` (constant), ``(dim, dim) + spatial`` (x-dependent),
        or with a leading ``nt + 1`` axis for time dependence.  Only the
        constant shape takes the Fourier march.
    source : SpaceTimeField or ndarray, optional
        The inhomogeneity ``g`` with our sign convention
        ``v_t - c_ij v_ij + g = 0``; zero when omitted.
    initial, final : Field, optional
        Data for the forward / backward march (whichever applies).
    positivity : bool
        Request the M-matrix-preserving treatment: mixed second-derivative
        terms move to the explicit side, subject to the time-step
        restriction ``dt <= h^2 / (8 max|c_offdiag|)``.
    ellipticity : float
        Declared lower bound for the smallest eigenvalue of ``(c_ij)``;
        validated at construction.
    """

    grid: TorusGrid
    diffusion: np.ndarray
    source: Optional[Union[SpaceTimeField, np.ndarray]] = None
    initial: Optional[Field] = None
    final: Optional[Field] = None
    positivity: bool = False
    ellipticity: float = 1e-10

    def __post_init__(self) -> None:
        g = self.grid
        self.diffusion = np.asarray(self.diffusion, float)
        comp = (g.dim, g.dim)
        ok_shapes = {comp, comp + g.shape, (g.nt + 1,) + comp, (g.nt + 1,) + comp + g.shape}
        if self.diffusion.shape not in ok_shapes:
            raise ValueError(
                f"coefficient shape {self.diffusion.shape} not understood "
                f"(expected one of {sorted(ok_shapes)})"
            )
        if isinstance(self.source, SpaceTimeField):
            self.source = self.source.values
        if self.source is None:
            self.source = np.zeros((g.nt + 1, *g.shape))
        self.source = np.asarray(self.source, float)
        if self.source.shape != (g.nt + 1, *g.shape):
            raise ValueError(
                f"source shape {self.source.shape} does not match {(g.nt + 1, *g.shape)}"
            )
        self._validate_coefficients()

    # -- coefficient bookkeeping ------------------------------------------

    @property
    def time_dependent(self) -> bool:
        c = self.diffusion
        return c.ndim in (3, 3 + self.grid.dim) and c.shape[0] == self.grid.nt + 1

    def coefficients(self) -> np.ndarray:
        """``c_ij`` with axes ``(dim, dim, time) + spatial``.

        Axes along which the coefficients are constant have size 1, so the
        result broadcasts against ``(dim, dim, nt + 1) + spatial`` stacks.
        """
        c = self.diffusion if self.time_dependent else self.diffusion[np.newaxis]
        c = np.moveaxis(c, 0, 2)
        if c.ndim == 3:
            c = c.reshape(c.shape + (1,) * self.grid.dim)
        return c

    def diffusion_slice(self, j: int) -> np.ndarray:
        """``c_ij`` at slice ``j`` as a read-only ``(dim, dim) + spatial`` view."""
        g = self.grid
        c = self.coefficients()[:, :, j if self.time_dependent else 0]
        return np.broadcast_to(c, (g.dim, g.dim, *g.shape))

    # -- validation --------------------------------------------------------

    def _validate_coefficients(self) -> None:
        if not self.ellipticity > 0:
            raise ValueError("ellipticity floor must be positive")
        if not np.all(np.isfinite(self.diffusion)):
            raise ValueError("coefficients must be finite")
        c = self.coefficients()
        if self.grid.dim == 1:
            min_eig = np.min(c[0, 0])
        else:
            a, d, b = c[0, 0], c[1, 1], c[0, 1]
            min_eig = np.min(0.5 * ((a + d) - np.sqrt((a - d) ** 2 + 4.0 * b * b)))
        if min_eig < self.ellipticity:
            raise ValueError(
                f"diffusion is not uniformly elliptic: min eigenvalue {min_eig} < {self.ellipticity}"
            )

    def check_positivity_restriction(self) -> None:
        """Enforce the explicit-mixed-term step restriction when requested."""
        if not self.positivity or self.grid.dim == 1:
            return
        off = float(np.max(np.abs(self.coefficients()[0, 1])))
        if off > 0.0:
            limit = self.grid.h**2 / (8.0 * off)
            if self.grid.dt > limit:
                raise ValueError(
                    f"positivity-preserving treatment needs dt <= {limit:.3e}, got {self.grid.dt:.3e}"
                )


# ---------------------------------------------------------------------------
# Marching
# ---------------------------------------------------------------------------


def _fourier_symbols(problem: ParabolicProblem) -> tuple[np.ndarray, Union[float, np.ndarray]]:
    """Symbols of the implicit and explicit parts of ``L`` on the ``rfftn`` modes.

    ``-c_ii`` times the 3-point stencil has symbol ``c_ii 4 sin^2(θ_i/2) / h^2``;
    ``-2 c_01`` times the 4-point cross stencil has ``2 c_01 sin θ_0 sin θ_1 / h^2``.
    The mixed part is explicit under ``positivity`` and implicit otherwise.
    """
    g = problem.grid
    c = problem.diffusion
    freqs = [np.fft.fftfreq(g.n)] * (g.dim - 1) + [np.fft.rfftfreq(g.n)]
    theta = np.meshgrid(*(2.0 * np.pi * f for f in freqs), indexing="ij", sparse=True)
    implicit = sum(c[i, i] * 4.0 * np.sin(0.5 * theta[i]) ** 2 for i in range(g.dim)) / g.h**2
    explicit = 0.0
    if g.dim == 2:
        mixed = 2.0 * c[0, 1] * np.sin(theta[0]) * np.sin(theta[1]) / g.h**2
        if problem.positivity:
            explicit = mixed
        else:
            implicit = implicit + mixed
    return implicit, explicit


def _fourier_march(problem: ParabolicProblem, out: np.ndarray) -> None:
    """Fill slices ``1..nt`` of ``out`` by the per-mode backward-Euler recursion."""
    g = problem.grid
    axes = tuple(range(1, g.dim + 1))
    implicit, explicit = _fourier_symbols(problem)
    keep = 1.0 - g.dt * explicit
    denom = 1.0 + g.dt * implicit
    # One complex stack: source modes, overwritten in place by solution modes.
    hat = np.fft.rfftn(problem.source, axes=axes)
    hat[0] = np.fft.rfftn(out[0])
    for j in range(1, g.nt + 1):
        hat[j] = (keep * hat[j - 1] - g.dt * hat[j]) / denom
    out[1:] = np.fft.irfftn(hat[1:], s=g.shape, axes=axes)


def _spatial_operator(grid: TorusGrid, c: np.ndarray, include_mixed: bool) -> sp.csr_matrix:
    """Assemble ``L v = -c_ij v_ij`` for one slice of coefficients ``c``."""
    n, dim, h = grid.n, grid.dim, grid.h
    L = sp.csr_matrix((grid.num_points, grid.num_points))
    for i in range(dim):
        L = L - _diag(c[i, i]) @ _second_diff(n, dim, i, h)
    if dim == 2 and include_mixed and np.any(c[0, 1] != 0.0):
        L = L - 2.0 * _diag(c[0, 1]) @ _cross_diff(n, h)
    return L.tocsr()


def _splu_march(problem: ParabolicProblem, out: np.ndarray) -> None:
    """Fill slices ``1..nt`` of ``out`` by sparse direct solves, one per step."""
    g = problem.grid
    eye = sp.identity(g.num_points, format="csr")
    explicit_mixed = problem.positivity and g.dim == 2
    lu = None
    for j in range(1, g.nt + 1):
        c = problem.diffusion_slice(j)
        if lu is None or problem.time_dependent:
            L = _spatial_operator(g, c, include_mixed=not problem.positivity)
            lu = spla.splu((eye + g.dt * L).tocsc())
        v = np.ravel(out[j - 1])
        rhs = v.copy()
        if explicit_mixed:
            rhs += g.dt * (2.0 * np.ravel(c[0, 1]) * (_cross_diff(g.n, g.h) @ v))
        rhs -= g.dt * np.ravel(problem.source[j])
        out[j] = lu.solve(rhs).reshape(g.shape)


def _check_march(problem: ParabolicProblem, v: np.ndarray) -> None:
    """Verify a finished march against the discrete equation of every step.

    Step ``j`` must satisfy ``(I + dt L_j) v_j = v_{j-1} - dt g_j`` (with the
    mixed term on ``v_{j-1}`` under ``positivity``) to a relative residual
    below ``RESIDUAL_TOL``; ``L`` is applied through the grid's own stencils,
    the cross stencil only where the mixed coefficient is nonzero.
    """
    g = problem.grid
    if not np.all(np.isfinite(v)):
        raise SolverError("non-finite values produced by the march")
    c = problem.coefficients()
    if problem.time_dependent:
        c = c[:, :, 1:]
    mixed = g.dim == 2 and bool(np.any(c[0, 1] != 0.0))
    if mixed:
        hess = hessian_values(v, g.h, g.dim)
        second = [hess[i, i, 1:] for i in range(g.dim)]
    else:
        second = second_differences(v[1:], g.h, g.dim)
    rhs = v[:-1] - g.dt * problem.source[1:]
    res = v[1:] - rhs
    for i in range(g.dim):
        res -= (g.dt * c[i, i]) * second[i]
    if mixed:
        if problem.positivity:
            explicit = (2.0 * g.dt * c[0, 1]) * hess[0, 1, :-1]
            rhs += explicit
            res -= explicit
        else:
            res -= (2.0 * g.dt * c[0, 1]) * hess[0, 1, 1:]
    scale = np.maximum(np.linalg.norm(rhs.reshape(g.nt, -1), axis=1), 1e-300)
    rel = np.linalg.norm(res.reshape(g.nt, -1), axis=1) / scale
    worst = int(np.argmax(rel))
    if rel[worst] > RESIDUAL_TOL:
        raise SolverError(
            f"march residual {rel[worst]:.2e} exceeds {RESIDUAL_TOL} at slice {worst + 1}"
        )


def solve_forward(problem: ParabolicProblem) -> SpaceTimeField:
    """March the problem from its initial slice to ``T``."""
    g = problem.grid
    if problem.initial is None:
        raise ValueError("solve_forward needs an initial slice")
    if not problem.initial.is_finite():
        raise ValueError("initial slice contains non-finite values")
    problem.check_positivity_restriction()
    out = np.empty((g.nt + 1, *g.shape))
    out[0] = problem.initial.values
    if problem.diffusion.shape == (g.dim, g.dim):
        _fourier_march(problem, out)
    else:
        _splu_march(problem, out)
    _check_march(problem, out)
    return SpaceTimeField(g, out)


def _reverse_in_time(problem: ParabolicProblem) -> ParabolicProblem:
    diffusion = problem.diffusion
    if problem.time_dependent:
        diffusion = np.ascontiguousarray(diffusion[::-1])
    return replace(
        problem,
        diffusion=diffusion,
        source=np.ascontiguousarray(problem.source[::-1]),
        initial=problem.final,
        final=None,
    )


def solve_backward(problem: ParabolicProblem) -> SpaceTimeField:
    """Solve ``-u_t - c_ij u_ij + g = 0`` down from the final slice.

    Implemented by time reversal: reverse every time-indexed input, run the
    forward march, reverse the output slices.  Slice ``nt`` of the result
    equals the supplied final slice exactly.
    """
    if problem.final is None:
        raise ValueError("solve_backward needs a final slice")
    w = solve_forward(_reverse_in_time(problem))
    return SpaceTimeField(problem.grid, np.ascontiguousarray(w.values[::-1]))


# ---------------------------------------------------------------------------
# Conservative transport-diffusion for densities
# ---------------------------------------------------------------------------


def _check_residual(A: sp.csr_matrix, x: np.ndarray, rhs: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(x)):
        raise SolverError(f"non-finite values produced at {context}")
    res = A @ x - rhs
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    rel = float(np.linalg.norm(res)) / scale
    if rel > RESIDUAL_TOL:
        raise SolverError(f"linear solve residual {rel:.2e} exceeds {RESIDUAL_TOL} at {context}")


def _upwind_advection_matrix(grid: TorusGrid, velocity: np.ndarray) -> sp.csr_matrix:
    """Conservative upwind discretization of ``m -> -div(m v)``.

    ``velocity`` has shape ``(dim,) + spatial``.  Off-diagonal entries are
    nonnegative and every column sums to zero exactly, which is what makes
    the implicit update both positivity- and mass-preserving.
    """
    n, dim, h = grid.n, grid.dim, grid.h
    N = grid.num_points
    A = sp.csr_matrix((N, N))
    eye = sp.identity(N, format="csr")
    for ax in range(dim):
        v_ax = velocity[ax]
        vf = 0.5 * (v_ax + np.roll(v_ax, -1, axis=ax))  # value at the i+1/2 face
        vf_flat = np.ravel(vf)
        plus = np.maximum(vf_flat, 0.0)
        minus = np.minimum(vf_flat, 0.0)
        take_next = _shift_matrix(n, dim, ax, -1)
        shift_down = _shift_matrix(n, dim, ax, 1)
        flux = _diag(plus) + _diag(minus) @ take_next
        A = A - (1.0 / h) * ((eye - shift_down) @ flux)
    return A.tocsr()


def _conservative_diffusion_matrix(grid: TorusGrid, c: np.ndarray) -> sp.csr_matrix:
    """Discretization of ``m -> d_ii (A_ii m)`` (diagonal part, flux form)."""
    D = sp.csr_matrix((grid.num_points, grid.num_points))
    for i in range(grid.dim):
        D = D + _second_diff(grid.n, grid.dim, i, grid.h) @ _diag(c[i, i])
    return D.tocsr()


def _conservative_cross_term(grid: TorusGrid, c: np.ndarray, m_flat: np.ndarray) -> np.ndarray:
    if grid.dim != 2:
        return np.zeros_like(m_flat)
    off = c[0, 1]
    if not np.any(off != 0.0):
        return np.zeros_like(m_flat)
    return 2.0 * (_cross_diff(grid.n, grid.h) @ (np.ravel(off) * m_flat))


def solve_fp_conservative(problem: ParabolicProblem, drift: np.ndarray) -> SpaceTimeField:
    """Solve ``m_t = d_ij (A_ij m) + div(m b)`` preserving mass and sign.

    Parameters
    ----------
    problem : ParabolicProblem
        Supplies the grid, the diffusion ``A_ij`` and the initial density;
        ``source`` is ignored here.
    drift : ndarray
        The divergence-form drift ``b`` with shape ``(nt+1, dim) + spatial``
        (the transport velocity of the density is ``-b``).

    Mixed diffusion entries are treated explicitly (they are the only terms
    that could break the M-matrix structure); when ``positivity`` is set the
    corresponding time-step restriction is enforced.
    """
    g = problem.grid
    if problem.initial is None:
        raise ValueError("solve_fp_conservative needs an initial density")
    drift = np.asarray(drift, dtype=float)
    if drift.shape != (g.nt + 1, g.dim, *g.shape):
        raise ValueError(
            f"drift shape {drift.shape} does not match {(g.nt + 1, g.dim, *g.shape)}"
        )
    if not np.all(np.isfinite(drift)):
        raise ValueError("drift contains non-finite values")
    problem.check_positivity_restriction()

    out = np.empty((g.nt + 1, *g.shape))
    out[0] = problem.initial.values
    eye = sp.identity(g.num_points, format="csr")
    m = np.ravel(out[0]).copy()
    D = None
    for j in range(1, g.nt + 1):
        c = problem.diffusion_slice(j)
        if D is None or problem.time_dependent:
            D = _conservative_diffusion_matrix(g, c)
        adv = _upwind_advection_matrix(g, -drift[j])
        A = (eye - g.dt * (D + adv)).tocsr()
        rhs = m + g.dt * _conservative_cross_term(g, c, m)
        m = spla.splu(A.tocsc()).solve(rhs)
        _check_residual(A, m, rhs, f"fp slice {j}")
        out[j] = m.reshape(g.shape)
    return SpaceTimeField(g, out)

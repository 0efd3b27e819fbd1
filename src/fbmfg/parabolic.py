"""Implicit finite-difference solvers for linear parabolic problems on the torus.

The driver equations all reduce to linear problems of the form

    v_t - c_ij(x,t) v_{x_i x_j} + g(x,t) = 0

marched forward in time from ``v(x, 0)``, or the backward-in-time variant

    -u_t - c_ij u_{x_i x_j} + g = 0,     u(x, T) given,

which is solved by the substitution ``t -> T - t``: the forward march runs
on time-reversed views of the coefficient and source slices and writes
through a time-reversed view of its output, and its check reads the same
views in memory order, so no slice is copied to reverse it.  That makes
the backward solver an exact mirror of the forward one (an index
bookkeeping identity, tested as such).

Time stepping is backward Euler: each step solves

    (I + dt * L_j) v_j = v_{j-1} - dt * g_j

with ``L_j`` the spatial operator sampled at the implicit level ``t_j``.
Spatial stencils are the second-order centered ones from
:mod:`fbmfg.torus_grid`.  :class:`ParabolicProblem` resolves its diffusion
once, into the one layout every march, check and certificate reads: axes
``(dim, dim, 1 or nt + 1) + (spatial or ones)``.  A time stack whose slices
are all equal is constant in time and is kept as an owned copy of its first
slice, so the coefficients' values, not the shape they arrive in, choose one
of two paths:

- a constant ``(dim, dim)`` matrix makes ``I + dt * L`` circulant, so the
  march is one scalar recursion per discrete Fourier mode,
  ``v̂_j = (v̂_{j-1} - dt ĝ_j) / (1 + dt λ̂_k)``, with ``λ̂_k`` the symbol of
  exactly those stencils (mixed term included), computed once per grid and
  matrix;
- x- or t-dependent coefficients assemble ``L_j`` as a sparse matrix and
  solve each step by a direct ``splu`` factorization (once per march, or
  once per step when the coefficients change in time) under the
  minimum-degree ordering of ``A^T + A``.

Both paths treat the mixed term implicitly.  A march runs over time slabs
(:class:`_March`): each slab's source rows are transformed or solved, the
recursion carries its last modes or factors to the next slab, and the slab
is checked against its discrete equation at once; the relative residual of
every step must stay below ``RESIDUAL_TOL``, and the worst step is named
once the march is done.  The result is bitwise the same whatever the
slabs.  :func:`solve_forward` and :func:`solve_backward` march a whole
source through it; the sweep of :mod:`fbmfg.fixed_point` hands it each
slab of the density's source as soon as it is built.  The PDE residual
certificate of :mod:`fbmfg.fixed_point` is that step residual with the
untruncated sources, divided by ``dt``.

Sparse matrices come from one CSR builder: every row of a periodic stencil
matrix holds one entry per offset (``1 + 2d`` points, plus four corners per
axis pair with a mixed term), taken straight from per-offset data arrays.

SciPy's sparse modules are imported by the sparse paths on first use, not
by this module, so a constant-diffusion run or audit never loads them:
``import fbmfg`` takes ≈0.22 s where it took ≈0.64 s with ``scipy.sparse``
and ``scipy.sparse.linalg`` (≈0.36 s of it) loaded up front (``python -X
importtime``, median of 10, 2-core box).  Every factorization, in the
march and in the conservative solver, goes through one helper.

:func:`solve_fp_conservative` is the positivity/mass-preserving variant for
transport-diffusion of a density,

    m_t = d_ij (A_ij m) + div(m b),

discretized in conservative flux form with first-order upwinding of the
transport velocity ``-b`` (the implicit upwind scheme of Achdou and
Capuzzo-Dolcetta, SIAM J. Numer. Anal. 48, 2010).  Its implicit system
matrix is an M-matrix with unit column sums, so densities stay nonnegative
and the discrete total mass is conserved exactly (up to the linear-solver
residual).  The step matrices are applied matrix-free from their columns,
which are built one time slab at a time, the slab's column block about
``_SLAB_BYTES`` (four steps at 2D n=32), and are the only copy held; a
slab's columns are dropped before the next slab's are built, so the audit
peaks at about two stacks above its inputs, its output one of them (2D
n=32 nt=64; it took twelve with every step's columns at once).  Each step
is refined to round-off, with its mass exact, on an approximate inverse:
for constant diffusion the per-mode solve of the step without its drift,
otherwise the factors of an earlier step.  Only a step that refinement
cannot finish is factored, as the transpose of the CSR matrix of ``A^T``
that its columns give, and its factors serve the steps that follow; a
constant-diffusion audit along a gentle drift (``|v| dt / h`` far below
one) factors nothing.  It takes no mixed coefficient, so every path that
accepts one treats it implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from .torus_grid import (
    Field,
    SpaceTimeField,
    TorusGrid,
    _time_slabs,
    subtract_second_order,
)

__all__ = [
    "SolverError",
    "ParabolicProblem",
    "solve_forward",
    "solve_backward",
    "solve_fp_conservative",
    "constant_diffusion",
    "RESIDUAL_TOL",
]

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

RESIDUAL_TOL = 1e-10
# The conservative audit refines each step on an approximate inverse (the
# Fourier solve of its diffusion, or earlier factors) until its relative
# residual reaches _REFINE_TARGET, above the direct solve's own floor (up to
# 5e-14 at 2D n=128), and refactors once the contraction seen so far cannot
# reach it within _REFINE_SWEEPS updates.
_REFINE_TARGET = 1e-13
_REFINE_SWEEPS = 6
# Lower bound every diffusion's smallest eigenvalue must reach.
ELLIPTICITY_FLOOR = 1e-10


class SolverError(RuntimeError):
    """A march failed its residual check, or produced non-finite values."""


# ---------------------------------------------------------------------------
# Sparse periodic stencil matrices
# ---------------------------------------------------------------------------


def _shifted_points(n: int, dim: int, cross: bool, sign: int) -> np.ndarray:
    """``(offsets, n**dim)`` flat index of ``q + sign * offset_k`` for every point ``q``.

    The offsets are 0, ``-e_i, +e_i`` per axis, then if ``cross`` ``e_i + e_j,
    -e_i - e_j, e_i - e_j, -e_i + e_j`` per axis pair ``i < j``."""
    units = [tuple(s * (k == i) for k in range(dim)) for i in range(dim) for s in (-1, 1)]
    corners = [tuple(s * (k == i) + t * (k == j) for k in range(dim))
               for i, j in combinations(range(dim), 2) if cross
               for s, t in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
    points = np.arange(n**dim).reshape((n,) * dim)
    return np.stack([np.roll(points, [-sign * o for o in offset], axis=tuple(range(dim))).ravel()
                     for offset in [(0,) * dim] + units + corners])


def _stencil_matrix(data: np.ndarray, columns: np.ndarray) -> sp.csr_matrix:
    """The CSR matrix whose row ``q`` holds ``data[k, q]`` at column ``columns[k, q]``.

    Both are ``(offsets, n**dim)``: the row pointer steps by the number of
    offsets, and only the columns within each row need sorting."""
    import scipy.sparse as sp

    width, size = data.shape
    matrix = sp.csr_matrix((np.ravel(data, order="F"), np.ravel(columns, order="F"),
                            np.arange(0, width * size + 1, width)), shape=(size, size))
    matrix.sort_indices()
    return matrix


def _factor(A: sp.csc_matrix) -> spla.SuperLU:
    """SuperLU factors of ``A`` under the minimum-degree ordering of ``A^T + A``.

    That ordering leaves 38k nonzeros in ``L + U`` where the default COLAMD
    leaves 66k (2D n=32, 5-point); the smallest supernodes and panels halve
    the factor time again (2D n=16..64, scipy 1.17).
    """
    from scipy.sparse.linalg import splu

    return splu(A, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)


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
        Second-order coefficients ``c_ij``.  Accepted shapes: ``(dim, dim)``
        (constant) or ``(dim, dim) + spatial`` (x-dependent), either with a
        leading ``nt + 1`` axis for time dependence, or the layout below.
        Construction resolves it, once, into the one layout that every
        march, check and certificate reads, axes ``(dim, dim, 1 or nt + 1)
        + (spatial or ones)``, and stores that as ``diffusion``.  An array
        in that layout is taken as it is, so a problem's ``diffusion``
        builds the same problem again; a stack ``(nt + 1, dim, dim) +
        spatial`` has the layout's shape only when ``nt + 1 == dim``, and
        is then read as the layout.  A time stack whose slices are all
        equal is stored as an owned copy of its first slice, never a view
        that would keep the stack alive, so a matrix constant in x and t
        takes the Fourier march whichever shape it comes in.  ``(c_ij)``
        must be symmetric, as the marches read only ``c_ij`` with ``i <=
        j``, and its smallest eigenvalue must reach ``ELLIPTICITY_FLOOR``
        (both validated at construction).
    source : ndarray, optional
        The inhomogeneity ``g`` with our sign convention
        ``v_t - c_ij v_ij + g = 0``, shape ``(nt + 1,) + spatial``; a
        read-only zero view when omitted.
    initial, final : Field, optional
        Data for the forward / backward march (whichever applies).
    """

    grid: TorusGrid
    diffusion: np.ndarray
    source: Optional[np.ndarray] = None
    initial: Optional[Field] = None
    final: Optional[Field] = None

    def __post_init__(self) -> None:
        g = self.grid
        c = np.asarray(self.diffusion, float)
        comp, time, ones = (g.dim, g.dim), (g.nt + 1,), (1,) * g.dim
        stacks = {time + comp, time + comp + g.shape}
        layouts = {comp + k + s for k in ((1,), time) for s in (ones, g.shape)}
        if c.shape in {comp, comp + g.shape}:
            c = c[:, :, np.newaxis]
        elif c.shape in stacks - layouts:
            c = np.moveaxis(c, 0, 2)
        elif c.shape not in layouts:
            raise ValueError(
                f"coefficient shape {c.shape} not understood (expected one of "
                f"{sorted({comp, comp + g.shape} | stacks | layouts)})"
            )
        c = c.reshape(c.shape[:3] + (c.shape[3:] or ones))
        if c.shape[2] > 1 and np.all(c == c[:, :, :1]):
            c = c[:, :, :1].copy()
        self.diffusion = c
        if self.source is None:
            self.source = np.broadcast_to(0.0, (g.nt + 1, *g.shape))
        self.source = np.asarray(self.source, float)
        if self.source.shape != (g.nt + 1, *g.shape):
            raise ValueError(
                f"source shape {self.source.shape} does not match {(g.nt + 1, *g.shape)}"
            )
        self._validate_coefficients(c)

    @staticmethod
    def _validate_coefficients(c: np.ndarray) -> None:
        """Raise ``ValueError`` unless ``c`` is finite, symmetric and uniformly elliptic."""
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if not np.array_equal(c, c.swapaxes(0, 1)):
            gap = np.max(np.abs(c - c.swapaxes(0, 1)))
            raise ValueError(f"diffusion is not symmetric: max |c_ij - c_ji| = {gap}")
        # c reaches the floor when every LDLᵀ pivot of c - ELLIPTICITY_FLOOR I is >= 0.
        a = c - ELLIPTICITY_FLOOR * np.eye(len(c)).reshape(c.shape[:2] + (1,) * (c.ndim - 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            while a.shape[0] and np.all(a[0, 0] >= 0.0):
                a = a[1:, 1:] - a[1:, :1] * a[:1, 1:] / a[0, 0]
        if a.shape[0]:
            min_eig = np.min(np.linalg.eigvalsh(np.moveaxis(c, (0, 1), (-2, -1))))
            raise ValueError(
                f"diffusion is not uniformly elliptic: "
                f"min eigenvalue {min_eig} < {ELLIPTICITY_FLOOR}"
            )


def _levels(c: np.ndarray, rows: Union[int, slice]) -> np.ndarray:
    """The coefficients ``c`` (the problem's layout) at the time levels ``rows``.

    All of ``c`` where it is constant in time, whose one level serves them all.
    """
    return c[:, :, rows] if c.shape[2] > 1 else c


# ---------------------------------------------------------------------------
# Marching
# ---------------------------------------------------------------------------


def _fourier_symbol(g: TorusGrid, c: np.ndarray) -> np.ndarray:
    """Symbol of ``L`` for the constant ``(dim, dim)`` diffusion ``c`` on the ``rfftn`` modes.

    ``-c_ii`` times the 3-point stencil has symbol ``c_ii 4 sin^2(θ_i/2) / h^2``;
    ``-2 c_ij`` (``i < j``) times the cross stencil has ``2 c_ij sin θ_i sin θ_j / h^2``.
    """
    freqs = [np.fft.fftfreq(g.n)] * (g.dim - 1) + [np.fft.rfftfreq(g.n)]
    theta = np.meshgrid(*(2.0 * np.pi * f for f in freqs), indexing="ij", sparse=True)
    symbol = sum(c[i, i] * 4.0 * np.sin(0.5 * theta[i]) ** 2 for i in range(g.dim)) / g.h**2
    for i, j in combinations(range(g.dim), 2):
        symbol = symbol + 2.0 * c[i, j] * np.sin(theta[i]) * np.sin(theta[j]) / g.h**2
    return symbol


@lru_cache(maxsize=16)
def _fourier_denominator(grid: TorusGrid, diffusion: bytes) -> np.ndarray:
    """``1 + dt λ̂_k`` for the constant diffusion with bytes ``diffusion``, read-only.

    Computed once per grid and diffusion matrix, so every march of a solve
    shares it.
    """
    c = np.frombuffer(diffusion).reshape(grid.dim, grid.dim)
    denom = 1.0 + grid.dt * _fourier_symbol(grid, c)
    denom.flags.writeable = False
    return denom


def _spatial_operator(grid: TorusGrid, c: np.ndarray) -> sp.csr_matrix:
    """``L v = -c_ij v_ij`` for one slice of ``c``, with every pair's corners if any is mixed."""
    n, dim, h2 = grid.n, grid.dim, grid.h**2
    cross = bool(np.any(c[np.triu_indices(dim, 1)] != 0.0))
    pairs = list(combinations(range(dim), 2)) if cross else []
    data = np.zeros((1 + 2 * dim + 4 * len(pairs), n**dim))
    for i in range(dim):
        side = np.ravel(c[i, i]) / h2
        data[0] += 2.0 * side
        data[1 + 2 * i] = data[2 + 2 * i] = -side
    for (i, j), quad in zip(pairs, data[1 + 2 * dim:].reshape(len(pairs), 4, n**dim)):
        corner = np.ravel(c[i, j]) / (2.0 * h2)
        quad[:2] = -corner
        quad[2:] = corner
    return _stencil_matrix(data, _shifted_points(n, dim, cross, 1))


class _March:
    """A forward march into ``out`` (``out[0]`` its datum), advanced a slab of steps at a time.

    ``out`` is in march order: a backward solve's time-reversed view, and
    ``c``, the diffusion in the layout of :class:`ParabolicProblem`, is
    seen in the same order.  :meth:`advance` marches and checks the next
    steps from their source rows, so a caller may build each slab's source
    from the slabs marched before it; :meth:`finish` names the worst step
    once all are in.  The recursion carries its state (the last step's
    modes, or the factors) from slab to slab, so the result is bitwise the
    same whatever the slabs.
    """

    def __init__(self, grid: TorusGrid, c: np.ndarray, out: np.ndarray) -> None:
        if not np.all(np.isfinite(out[0])):
            raise ValueError("initial slice contains non-finite values")
        self.grid, self.c, self.out, self.done = grid, c, out, 0
        self.rel = np.empty(grid.nt)  # each step's relative residual, in march order
        self.fourier = c.size == grid.dim**2
        if self.fourier:
            # numpy divides a complex row by a real ``d`` as by ``d + 0j``,
            # which is bitwise a product of both parts with ``1/d``: the
            # recursion runs on the interleaved real view, one scaling per part.
            denom = _fourier_denominator(grid, c.tobytes())
            self.scale = np.repeat(1.0 / denom, 2, axis=-1)
            self.modes = np.fft.rfftn(out[0]).view(np.float64)
        else:
            self.lu = None

    def advance(self, source: np.ndarray) -> None:
        """March and check the next ``len(source)`` steps; ``source`` holds their rows."""
        steps = slice(self.done + 1, self.done + 1 + len(source))
        (_fourier_march if self.fourier else _splu_march)(self, steps, source)
        _check_march(self, steps, source)
        self.done = steps.stop - 1

    def finish(self) -> None:
        """Raise :class:`SolverError` naming the worst step, if it exceeds ``RESIDUAL_TOL``."""
        worst = int(np.argmax(self.rel))
        if self.rel[worst] > RESIDUAL_TOL:
            raise SolverError(
                f"march residual {self.rel[worst]:.2e} exceeds {RESIDUAL_TOL} "
                f"at slice {worst + 1}"
            )


def _fourier_march(march: _March, steps: slice, source: np.ndarray) -> None:
    """Fill ``out[steps]`` by the per-mode backward-Euler recursion."""
    g = march.grid
    axes = tuple(range(1, g.dim + 1))
    # The steps' source modes, overwritten in place by their solution modes.
    # ``(-dt ĝ_j) + v̂_{j-1}`` is bitwise ``v̂_{j-1} - dt ĝ_j``.
    hat = np.fft.rfftn(source, axes=axes)
    hat *= -g.dt
    previous = march.modes
    for step in hat.view(np.float64):
        step += previous
        step *= march.scale
        previous = step
    march.modes = previous.copy()
    march.out[steps] = np.fft.irfftn(hat, s=g.shape, axes=axes)


def _splu_march(march: _March, steps: slice, source: np.ndarray) -> None:
    """Fill ``out[steps]`` by sparse direct solves, one per step."""
    import scipy.sparse as sp

    g, c, out = march.grid, march.c, march.out
    for j, g_j in zip(range(steps.start, steps.stop), source):
        if march.lu is None or c.shape[2] > 1:
            L = _spatial_operator(g, _levels(c, j))
            eye = sp.identity(g.num_points, format="csr")
            march.lu = _factor((eye + g.dt * L).tocsc())
        rhs = np.ravel(out[j - 1]) - g.dt * np.ravel(g_j)
        out[j] = march.lu.solve(rhs).reshape(g.shape)


def _step_residuals(grid: TorusGrid, c: np.ndarray, source: np.ndarray,
                    v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(res, rhs)`` of the steps ``v[k-1] -> v[k]``, ``(len(v) - 1,) + spatial`` each.

    ``source`` holds the steps' source rows and ``c`` their coefficients
    (:func:`_levels` of the layout).  Step ``j`` reads ``res = (I + dt L_j)
    v_j - rhs`` with ``rhs = v_{j-1} - dt g_j``; ``L`` is applied through
    the grid's own stencils (:func:`~fbmfg.torus_grid.subtract_second_order`),
    the cross stencil only where the mixed coefficient is nonzero.  A
    backward march's ``v`` and time-indexed inputs are time-reversed views:
    its steps are stacked in memory order (the last step first), so the
    stencils take no copy.
    """
    new, old = slice(1, None), slice(None, -1)
    if v.strides[0] < 0:
        v, source, c, new, old = v[::-1], source[::-1], c[:, :, ::-1], old, new
    rhs = grid.dt * source
    np.subtract(v[old], rhs, out=rhs)
    res = v[new] - rhs
    subtract_second_order(v[new], grid.dt * c, grid.h, grid.dim, out=res)
    return res, rhs


def _check_march(march: _March, steps: slice, source: np.ndarray) -> None:
    """Check the steps ``steps`` of a march against their discrete equations.

    ``source`` holds the steps' rows.  Each step's :func:`_step_residuals`,
    relative to its right-hand side, goes to ``march.rel[j - 1]`` for step
    ``j``; non-finite values raise :class:`SolverError` at once.
    """
    v = march.out[steps.start - 1:steps.stop]
    if not np.isfinite(v).all():
        raise SolverError("non-finite values produced by the march")
    res, rhs = _step_residuals(march.grid, _levels(march.c, steps), source, v)
    rhs, res = rhs.reshape(len(rhs), -1), res.reshape(len(res), -1)
    scale = np.maximum(np.sqrt(np.einsum("ij,ij->i", rhs, rhs)), 1e-300)
    rel = np.sqrt(np.einsum("ij,ij->i", res, res)) / scale
    march.rel[steps.start - 1:steps.stop - 1] = rel[::-1] if v.strides[0] < 0 else rel


def solve_forward(problem: ParabolicProblem) -> SpaceTimeField:
    """March the problem from its initial slice to ``T``."""
    if problem.initial is None:
        raise ValueError("solve_forward needs an initial slice")
    return _march(problem, problem.initial, slice(None))


def solve_backward(problem: ParabolicProblem) -> SpaceTimeField:
    """Solve ``-u_t - c_ij u_ij + g = 0`` down from the final slice.

    Implemented by time reversal: the forward march runs on time-reversed
    views of the source, of the diffusion's time axis and of the output, so
    no slice is copied to reverse it.  Slice ``nt`` of the result equals the
    supplied final slice exactly.
    """
    if problem.final is None:
        raise ValueError("solve_backward needs a final slice")
    return _march(problem, problem.final, slice(None, None, -1))


def _march(problem: ParabolicProblem, datum: Field, time: slice) -> SpaceTimeField:
    """March ``problem`` from ``datum`` into a new stack seen through ``time``, a slab at a time.

    The march and its check see the stack's slices, the source's and the
    diffusion's time levels in march order; they are stored in the order
    ``time`` gives (``::-1`` for a backward solve).
    """
    g = problem.grid
    values = np.empty((g.nt + 1, *g.shape))
    out = values[time]
    out[0] = datum.values
    march = _March(g, problem.diffusion[:, :, time], out)
    source = problem.source[time]
    for steps in _time_slabs(g, 1):
        march.advance(source[steps])
    march.finish()
    return SpaceTimeField(g, values)


# ---------------------------------------------------------------------------
# Conservative transport-diffusion for densities
# ---------------------------------------------------------------------------


def _check_residual(x: np.ndarray, rel: float, context: str) -> None:
    """Raise unless ``x`` is finite and its relative residual ``rel`` is within tolerance."""
    if not np.all(np.isfinite(x)):
        raise SolverError(f"non-finite values produced at {context}")
    if not rel <= RESIDUAL_TOL:
        raise SolverError(f"linear solve residual {rel:.2e} exceeds {RESIDUAL_TOL} at {context}")


def _conservative_rates(grid: TorusGrid, c: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """The columns of ``I - dt (D + adv)`` of the steps ``velocity`` holds, in one pass over them.

    ``D m = d_ii (c_ii m)`` in flux form, ``adv m = -div(m v)`` upwinded at
    the faces; ``velocity`` is ``(steps, dim) + spatial`` and ``c`` has axes
    ``(dim, dim, 1 or steps) + spatial``.  The result is ``(steps, 1 + 2 dim,
    n**dim)``: column ``q`` holds entry ``k`` at row ``q + offset_k`` (offsets
    as in :func:`_shifted_points`), and says where the mass at ``q`` goes.  It
    sums to one and is nonpositive off the diagonal.  Every entry depends on
    its own step's velocity and coefficients only, so a time slab's columns
    are bitwise those of the whole stack.
    """
    n, dim, h, dt = grid.n, grid.dim, grid.h, grid.dt
    steps, size = velocity.shape[0], n**dim
    rate = np.zeros((steps, 1 + 2 * dim, size))  # the columns of D + adv
    # entry[k]: entry k of every column, on the (steps,) + spatial layout.
    entry = rate.reshape((steps, 1 + 2 * dim) + velocity.shape[2:]).swapaxes(0, 1)
    for i in range(dim):
        v = velocity[:, i]
        cii = c[i, i] / (h * h)
        face = np.roll(v, -1, axis=1 + i)
        face += v
        face *= 0.5  # the velocity at q + e_i / 2
        out = np.maximum(face, 0.0)
        into = np.roll(np.minimum(face, 0.0, out=face), 1, axis=1 + i)
        del face
        # The operations of 2 cii + (out - into) / h, cii - into / h and
        # cii + out / h, with one temporary where those take six.
        diagonal = np.subtract(out, into)
        diagonal /= h
        diagonal += 2.0 * cii
        entry[0] -= diagonal
        del diagonal
        np.subtract(cii, np.divide(into, h, out=entry[1 + 2 * i]), out=entry[1 + 2 * i])
        np.divide(out, h, out=entry[2 + 2 * i])
        entry[2 + 2 * i] += cii
    rate *= -dt  # in place: the audit's largest array
    rate[:, 0] += 1.0
    return rate


def _column_apply(columns: np.ndarray, index: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A x`` for one step's columns from :func:`_conservative_rates`.

    Column ``q`` sends ``columns[k, q] x[q]`` to row ``q + offset_k``, so row
    ``p`` sums, over the offsets in order, the products at flat index
    ``index[k, p] = k n^dim + p - offset_k``."""
    return np.take(columns * x, index).sum(axis=0)


def _fourier_inverse(problem: ParabolicProblem) -> Callable[[np.ndarray], np.ndarray]:
    """Solve ``(I + dt L) v = y`` per mode for the constant diffusion of ``problem``.

    Its mean mode divides by exactly one, so ``sum(v) = sum(y)`` to round-off.
    """
    g = problem.grid
    axes = tuple(range(g.dim))
    denom = _fourier_denominator(g, problem.diffusion.tobytes())

    def solve(y: np.ndarray) -> np.ndarray:
        hat = np.fft.rfftn(y.reshape(g.shape))
        hat /= denom
        return np.fft.irfftn(hat, s=g.shape, axes=axes).ravel()

    return solve


def _refine(
    inverse: Callable[[np.ndarray], np.ndarray],
    apply: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
) -> Optional[tuple[np.ndarray, float]]:
    """Solve ``A x = rhs`` with an approximate inverse of ``A``; ``(x, rel)`` or ``None``.

    Classical iterative refinement (Moler, J. ACM 14, 1967): ``x +=
    inverse(rhs - A x)``, with ``A`` applied by ``apply``, until the relative
    residual ``rel`` reaches ``_REFINE_TARGET``.  ``None`` means the inverse
    is too far from that of ``A``: at the last update's rate of contraction
    the residual would miss the target after ``_REFINE_SWEEPS`` updates.
    That covers a residual that stops shrinking or is not finite.  An inverse
    too far off thus costs two solves before the caller refactors; a
    factored solve takes about a twentieth of a factorization (2D n=32).
    """
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    x = inverse(rhs)
    last = np.inf
    for left in range(_REFINE_SWEEPS, -1, -1):
        res = rhs - apply(x)
        rel = float(np.linalg.norm(res)) / scale
        if rel <= _REFINE_TARGET:
            return x, rel
        if not rel * (rel / last) ** left <= _REFINE_TARGET:
            return None
        last = rel
        x += inverse(res)
    return None


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

    A nonzero mixed coefficient ``c_ij`` (``i < j``) raises ``ValueError``:
    an implicit mixed term would break the M-matrix structure that keeps the
    density nonnegative.

    Each step's matrix is applied matrix-free from its columns
    (:func:`_column_apply`).  The columns are built one time slab at a time
    (:func:`_conservative_rates` on the slab's velocity and diffusion
    levels), the slab's column block about ``_SLAB_BYTES``, and dropped
    before the next slab's are built, so the audit holds its output and the
    drift it was given, plus one slab; the result is bitwise the same
    whatever the slabs.  Each step is refined (:func:`_refine`) on
    an approximate inverse.  For a constant diffusion the first inverse is
    the per-mode solve of ``I - dt D`` (:func:`_fourier_inverse`), the step
    matrix without its drift; otherwise no inverse is held at the first step.  A step that
    does not reach the round-off target on the inverse held is factored and
    solved directly, and its factors become the inverse for the steps that
    follow.  Every refinement update keeps the step's mass exact: the step's
    ``A`` has unit column sums and the inverse ``M⁻¹`` preserves sums (a
    factored step matrix has unit column sums too; the Fourier solve divides
    the mean mode by one), so for ``r = rhs − A m``, ``1ᵀM⁻¹r = 1ᵀr =
    1ᵀrhs − 1ᵀm``, and the update ``m += M⁻¹r`` brings ``1ᵀm`` to ``1ᵀrhs``.
    Every step passes the residual check at ``RESIDUAL_TOL`` against its own
    matrix: a refined step with the residual its refinement accepted, a
    factored step with one more product.
    """
    g = problem.grid
    if problem.initial is None:
        raise ValueError("solve_fp_conservative needs an initial density")
    if not problem.initial.is_finite():
        raise ValueError("initial density contains non-finite values")
    drift = np.asarray(drift, dtype=float)
    if drift.shape != (g.nt + 1, g.dim, *g.shape):
        raise ValueError(
            f"drift shape {drift.shape} does not match {(g.nt + 1, g.dim, *g.shape)}"
        )
    if not np.all(np.isfinite(drift)):
        raise ValueError("drift contains non-finite values")
    c = problem.diffusion
    if np.any(c[np.triu_indices(g.dim, 1)] != 0.0):
        raise ValueError("solve_fp_conservative takes no mixed coefficient c_ij")

    out = np.empty((g.nt + 1, *g.shape))
    out[0] = problem.initial.values
    m = np.ravel(out[0])
    sources = _shifted_points(g.n, g.dim, False, -1)
    index = sources + g.n**g.dim * np.arange(len(sources))[:, np.newaxis]
    inverse = _fourier_inverse(problem) if c.size == g.dim**2 else None
    for rows in _time_slabs(g, 1, len(sources)):
        columns = _conservative_rates(g, _levels(c, rows), -drift[rows])
        for j, column in zip(range(rows.start, rows.stop), columns):
            apply = partial(_column_apply, column, index)
            rhs = m
            step = None if inverse is None else _refine(inverse, apply, rhs)
            if step is None:
                # The CSR matrix of A^T: its transpose is A in CSC form, not copied.
                targets = _shifted_points(g.n, g.dim, False, 1)
                inverse = _factor(_stencil_matrix(column, targets).T).solve
                m = inverse(rhs)
                res = rhs - apply(m)
                step = m, float(np.linalg.norm(res)) / max(float(np.linalg.norm(rhs)), 1e-300)
            m, rel = step
            _check_residual(m, rel, f"fp slice {j}")
            out[j] = m.reshape(g.shape)
        del columns, column, apply  # the slab's columns, before the next slab's are built
    return SpaceTimeField(g, out)

"""Periodic space-time grids, finite-difference operators, and discrete norms.

Everything downstream works on the flat torus: the unit cube ``[0, 1)^d``
(``d`` = 1 or 2) with periodic identification, crossed with a uniform time
axis ``[0, T]``.  This module owns

- :class:`TorusGrid` — the discretization record (``n`` points per spatial
  axis, ``nt`` time steps),
- :class:`Field` / :class:`SpaceTimeField` — scalar samples at one time
  slice / at all ``nt + 1`` slices,
- second-order centered difference operators :func:`gradient` and
  :func:`hessian` with periodic index wrap,
- the discrete norms used by the solver monitors:

  * ``|f|^(1)`` — sup of ``|f|`` plus sup of ``|Df|`` (:func:`norm_C10`
    for space-time fields, :func:`norm_C1` for single slices),
  * ``|f|^(2)`` — additionally the sup of the Hessian (:func:`norm_C2`),
  * ``||f||^(2)_p`` — a parabolic Sobolev norm collecting ``f``, ``Df``,
    ``D^2 f`` and the forward-difference ``∂_t f`` under an ``L^p``
    quadrature over the space-time cylinder (:func:`norm_W21p`).

Periodicity is enforced purely through indexing: each stencil call copies
its input once into an array with one periodic ghost layer on every side
of the spatial axes, and reads every shifted neighbour as a slice of that
array.  So ``h * n == 1`` holds exactly at the level of stencil
bookkeeping; no floating-point coordinate wrapping is involved.

All operators here are linear and act on plain ``numpy`` arrays under the
hood; the ``*_values`` variants are the array-level work functions and are
reused by the solver modules on stacked slices.  The norms are split the
same way: :func:`norm_C10_values` and :func:`norm_W21p_values` take the
pointwise magnitudes (:func:`gradient_magnitude`,
:func:`hessian_magnitude`) of derivatives a caller already holds, so a
solver that needs several norms of one iterate evaluates each stencil once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TorusGrid",
    "Field",
    "SpaceTimeField",
    "gradient",
    "gradient_values",
    "hessian",
    "hessian_values",
    "second_differences",
    "time_derivative",
    "gradient_magnitude",
    "hessian_magnitude",
    "norm_C10",
    "norm_C10_values",
    "norm_W21p",
    "norm_W21p_values",
    "norm_C1",
    "norm_C2",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic discretization of the unit torus times ``[0, T]``.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    n : int
        Grid points per spatial axis (``>= 8``); the spacing is ``h = 1/n``.
    nt : int
        Number of time steps (``>= 2``); slice ``j`` lives at ``t = j*dt``
        with ``dt = T/nt``.
    T : float
        Time horizon (``> 0``).
    """

    dim: int
    n: int
    nt: int
    T: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if int(self.n) != self.n or self.n < 8:
            raise ValueError(f"n must be an integer >= 8, got {self.n}")
        if int(self.nt) != self.nt or self.nt < 2:
            raise ValueError(f"nt must be an integer >= 2, got {self.nt}")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T}")

    @property
    def h(self) -> float:
        """Spatial spacing ``1/n``."""
        return 1.0 / self.n

    @property
    def dt(self) -> float:
        """Time step ``T/nt``."""
        return self.T / self.nt

    @property
    def shape(self) -> tuple[int, ...]:
        """Spatial array shape: ``(n,)`` or ``(n, n)``."""
        return (self.n,) * self.dim

    @property
    def num_points(self) -> int:
        return self.n**self.dim

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays broadcast to the spatial shape (``ij`` indexing)."""
        axes = [np.arange(self.n) / self.n for _ in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def times(self) -> np.ndarray:
        """All ``nt + 1`` slice times ``j*dt``."""
        return np.arange(self.nt + 1) * self.dt

    def space_time_coordinates(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """``(x, t)`` as read-only views broadcast to ``(nt + 1,) + shape``.

        This is the layout of a space-time stack, so a pointwise callable
        evaluates on every slice in one call.
        """
        stack = (self.nt + 1, *self.shape)
        x = tuple(np.broadcast_to(c, stack) for c in self.coordinates())
        t = np.broadcast_to(self.times().reshape((-1,) + (1,) * self.dim), stack)
        return x, t


@dataclass
class Field:
    """Scalar samples on one time slice of a :class:`TorusGrid`."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: TorusGrid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: TorusGrid, fn: Callable[..., np.ndarray]) -> "Field":
        """Sample ``fn(x)`` (1D) or ``fn(x, y)`` (2D) on the grid."""
        return cls(grid, np.asarray(fn(*grid.coordinates()), dtype=float) + np.zeros(grid.shape))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def with_grid(self, grid: TorusGrid) -> "Field":
        """Rebind to a grid with the same spatial layout (time axis may differ)."""
        if (grid.dim, grid.n) != (self.grid.dim, self.grid.n):
            raise ValueError("target grid has a different spatial layout")
        return Field(grid, self.values.copy())

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


@dataclass
class SpaceTimeField:
    """Scalar samples on all ``nt + 1`` time slices; axis 0 is time."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt + 1, *self.grid.shape)
        if self.values.shape != expected:
            raise ValueError(
                f"space-time field shape {self.values.shape} does not match {expected}"
            )

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "SpaceTimeField":
        return cls(grid, np.zeros((grid.nt + 1, *grid.shape)))

    @classmethod
    def constant_in_time(cls, slice_field: Field, grid: TorusGrid | None = None) -> "SpaceTimeField":
        """Extend one slice to every time level."""
        g = slice_field.grid if grid is None else grid
        vals = np.broadcast_to(slice_field.values, (g.nt + 1, *g.shape)).copy()
        return cls(g, vals)

    @classmethod
    def from_function(cls, grid: TorusGrid, fn: Callable[..., np.ndarray]) -> "SpaceTimeField":
        """Sample ``fn(*coords, t)`` at every slice time."""
        coords = grid.coordinates()
        vals = np.empty((grid.nt + 1, *grid.shape))
        for j, t in enumerate(grid.times()):
            vals[j] = np.asarray(fn(*coords, t), dtype=float) + np.zeros(grid.shape)
        return cls(grid, vals)

    def slice_field(self, j: int) -> Field:
        return Field(self.grid, self.values[j].copy())

    def copy(self) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.values.copy())

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


# ---------------------------------------------------------------------------
# Differential operators (array level).  The spatial axes are always the
# trailing `dim` axes, so the same kernels serve single slices and stacked
# (nt+1, ...) arrays.
# ---------------------------------------------------------------------------


def _periodic_ghost(values: np.ndarray, dim: int) -> np.ndarray:
    """``values`` with one periodic ghost layer on each side of the trailing
    ``dim`` axes (what ``np.pad(..., mode="wrap")`` gives, corners included).
    """
    nd = values.ndim
    ghost = np.empty(values.shape[: nd - dim] + tuple(s + 2 for s in values.shape[nd - dim:]))
    ghost[(Ellipsis,) + (slice(1, -1),) * dim] = values
    # Axis by axis; a later axis copies the ghosts of the earlier ones, which
    # fills the corners.
    for k in range(dim):
        done = (slice(None),) * k
        rest = (slice(1, -1),) * (dim - k - 1)
        ghost[(Ellipsis, *done, 0, *rest)] = ghost[(Ellipsis, *done, -2, *rest)]
        ghost[(Ellipsis, *done, -1, *rest)] = ghost[(Ellipsis, *done, 1, *rest)]
    return ghost


def _shifted(ghost: np.ndarray, dim: int, offsets: dict[int, int]) -> np.ndarray:
    """View of ``f(x + offsets)`` on the interior of a ghosted array.

    ``offsets`` maps a spatial axis index ``0 .. dim-1`` to a shift of ±1
    (omitted axes are not shifted), as ``np.roll(f, -offset, axis)`` would.
    """
    lead = (slice(None),) * (ghost.ndim - dim)
    return ghost[lead + tuple(
        slice(1 + offsets.get(k, 0), ghost.shape[ghost.ndim - dim + k] - 1 + offsets.get(k, 0))
        for k in range(dim)
    )]


def _second_difference(ghost: np.ndarray, values: np.ndarray, h2: float, dim: int,
                       i: int, out: np.ndarray) -> None:
    """``out = (f(x + h e_i) - 2 f(x) + f(x - h e_i)) / h^2``."""
    np.multiply(values, 2.0, out=out)
    np.subtract(_shifted(ghost, dim, {i: 1}), out, out=out)
    out += _shifted(ghost, dim, {i: -1})
    out /= h2


def _cross_difference(ghost: np.ndarray, h2: float, dim: int, i: int, j: int,
                      out: np.ndarray) -> None:
    """``out`` = the 4-point cross stencil of ``d_i d_j f``."""
    np.add(_shifted(ghost, dim, {i: 1, j: 1}), _shifted(ghost, dim, {i: -1, j: -1}), out=out)
    out -= _shifted(ghost, dim, {i: 1, j: -1})
    out -= _shifted(ghost, dim, {i: -1, j: 1})
    out /= 4.0 * h2


def gradient_values(values: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Second-order centered gradient along the trailing ``dim`` axes.

    Returns an array of shape ``(dim,) + values.shape``; component ``i`` is
    ``(f(x + h e_i) - f(x - h e_i)) / (2h)`` with periodic wrap.
    """
    ghost = _periodic_ghost(values, dim)
    out = np.empty((dim, *values.shape))
    for i in range(dim):
        np.subtract(_shifted(ghost, dim, {i: 1}), _shifted(ghost, dim, {i: -1}), out=out[i])
        out[i] /= 2.0 * h
    return out


def second_differences(values: np.ndarray, h: float, dim: int) -> np.ndarray:
    """The diagonal of :func:`hessian_values`, without the cross stencil.

    Returns an array of shape ``(dim,) + values.shape``; component ``i`` is
    bitwise equal to ``hessian_values(values, h, dim)[i, i]``.
    """
    ghost = _periodic_ghost(values, dim)
    out = np.empty((dim, *values.shape))
    for i in range(dim):
        _second_difference(ghost, values, h * h, dim, i, out[i])
    return out


def hessian_values(values: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Second-order Hessian along the trailing ``dim`` axes.

    Diagonal entries use the 3-point stencil, off-diagonal entries the
    4-point cross stencil; the result has shape ``(dim, dim) + values.shape``
    and is exactly symmetric (the mixed entry is computed once and mirrored).
    """
    ghost = _periodic_ghost(values, dim)
    out = np.empty((dim, dim, *values.shape))
    h2 = h * h
    for i in range(dim):
        _second_difference(ghost, values, h2, dim, i, out[i, i])
    for i in range(dim):
        for j in range(i + 1, dim):
            _cross_difference(ghost, h2, dim, i, j, out[i, j])
            out[j, i] = out[i, j]
    return out


def gradient(f: Field) -> np.ndarray:
    """Centered-difference gradient of a slice; shape ``(dim,) + grid.shape``."""
    return gradient_values(f.values, f.grid.h, f.grid.dim)


def hessian(f: Field) -> np.ndarray:
    """Centered-difference Hessian of a slice; shape ``(dim, dim) + grid.shape``."""
    return hessian_values(f.values, f.grid.h, f.grid.dim)


def time_derivative(f: SpaceTimeField) -> np.ndarray:
    """Discrete ``∂_t f`` at every slice.

    Forward differences ``(f_{j+1} - f_j)/dt`` at slices ``0 .. nt-1``; the
    final slice reuses the backward difference so all ``nt + 1`` slices stay
    usable without ghost times.
    """
    dt = f.grid.dt
    out = np.empty_like(f.values)
    out[:-1] = (f.values[1:] - f.values[:-1]) / dt
    out[-1] = out[-2]
    return out


# ---------------------------------------------------------------------------
# Discrete norms
# ---------------------------------------------------------------------------


def gradient_magnitude(grad: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean magnitude of a :func:`gradient_values` output.

    The components are summed in order, which is bitwise what
    ``np.sqrt(np.sum(grad * grad, axis=0))`` gives.
    """
    total = grad[0] * grad[0]
    for component in grad[1:]:
        total += component * component
    return np.sqrt(total, out=total)


def hessian_magnitude(hess: np.ndarray) -> np.ndarray:
    """Pointwise Frobenius magnitude of a :func:`hessian_values` output.

    Entries are summed row by row, which is bitwise what
    ``np.sqrt(np.sum(hess * hess, axis=(0, 1)))`` gives.
    """
    dim = hess.shape[0]
    total = hess[0, 0] * hess[0, 0]
    for i in range(dim):
        for j in range(dim):
            if i or j:
                total += hess[i, j] * hess[i, j]
    return np.sqrt(total, out=total)


def norm_C10_values(values: np.ndarray, grad_mag: np.ndarray) -> float:
    """``max|f| + max|Df|`` from the samples and their gradient magnitude."""
    return float(np.max(np.abs(values)) + np.max(grad_mag))


def norm_C10(f: SpaceTimeField) -> float:
    """Sup norm of ``f`` plus sup norm of its spatial gradient over all slices."""
    g = f.grid
    return norm_C10_values(f.values, gradient_magnitude(gradient_values(f.values, g.h, g.dim)))


def norm_C1(f: Field) -> float:
    """Single-slice analogue of :func:`norm_C10`."""
    g = f.grid
    return norm_C10_values(f.values, gradient_magnitude(gradient_values(f.values, g.h, g.dim)))


def norm_C2(f: Field) -> float:
    """``max|f| + max|Df| + max|D^2 f|`` on one slice (Frobenius norm for the Hessian)."""
    g = f.grid
    hess = hessian_values(f.values, g.h, g.dim)
    return norm_C1(f) + float(np.max(hessian_magnitude(hess)))


def norm_W21p_values(
    values: np.ndarray, grad_mag: np.ndarray, hess_mag: np.ndarray, grid: TorusGrid, p: float
) -> float:
    """:func:`norm_W21p` of the ``(nt + 1,) + shape`` stack ``values``.

    ``grad_mag`` and ``hess_mag`` are the gradient and Hessian magnitudes of
    slices ``0 .. nt-1`` (the slices the quadrature samples).
    """
    if not p >= 2:
        raise ValueError(f"exponent p must be >= 2, got {p}")
    vals = values[:-1]
    ft = (values[1:] - vals) / grid.dt
    integrand = (
        np.abs(vals) ** p + grad_mag**p + hess_mag**p + np.abs(ft) ** p
    )
    total = float(np.sum(integrand)) * grid.dt * grid.h**grid.dim
    return total ** (1.0 / p)


def norm_W21p(f: SpaceTimeField, p: float) -> float:
    """Discrete parabolic Sobolev norm of order ``(2, 1)`` with exponent ``p``.

    The quadrature is the left rectangle rule in time over the ``nt`` steps
    (weights ``dt``, slices ``0 .. nt-1``) and the uniform rule in space
    (weights ``h^dim``), so the measure of the cylinder is exactly ``T``:

    ``( Σ_j dt Σ_x h^dim [ |f|^p + |Df|^p + |D^2 f|^p + |∂_t f|^p ] )^(1/p)``

    with ``|Df|`` the Euclidean and ``|D^2 f|`` the Frobenius magnitude, and
    ``∂_t f`` the forward difference — exactly the slices the left-endpoint
    rule samples.
    """
    g = f.grid
    vals = f.values[:-1]
    return norm_W21p_values(
        f.values,
        gradient_magnitude(gradient_values(vals, g.h, g.dim)),
        hessian_magnitude(hessian_values(vals, g.h, g.dim)),
        g, p,
    )

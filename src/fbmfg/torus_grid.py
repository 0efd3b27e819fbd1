"""Periodic space-time grids, finite-difference operators, and discrete norms.

Everything downstream works on the flat torus: the unit cube ``[0, 1)^d``
(any ``d >= 1``) with periodic identification, crossed with a uniform time
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

Periodicity is enforced purely through indexing.  A stencil reads each
shifted neighbour as one 1-D slice of the flat contiguous buffer of the
whole stack, offset by the axis stride; that is right everywhere except on
the lines at index 0 and ``n - 1`` of the shifted axis, which are then
recomputed in one pass from neighbours gathered with wrapped indices.
Only an input that is not contiguous is copied.  So ``h * n == 1`` holds
exactly at the level of stencil bookkeeping; no floating-point coordinate
wrapping is involved.

The solver streams its stacks over time slabs (:func:`_time_slabs`) of
about ``_SLAB_BYTES``, one slice at least: per array of one value a point
in a sweep, for the column block in the conservative audit.  The
norms of a stack are gathered slab by slab (:class:`_NormSums`), with sups
reduced per slab and the ``W21p`` integrand summed whole, so they are
bitwise those of the whole stack.

All operators here are linear and act on plain ``numpy`` arrays under the
hood; the ``*_values`` variants are the array-level work functions and are
reused by the solver modules on stacked slices.  Each pointwise magnitude
has one routine, :func:`gradient_magnitude` and :func:`hessian_magnitude`,
which takes its components either from a derivative tensor a caller holds
or straight from the stencils, one component or entry at a time, with no
gradient or Hessian tensor.  The norms of a stack go through one kernel,
:func:`stack_norms`, which builds both magnitudes from the stencils; a
solver that holds an iterate's magnitudes reduces them itself
(:class:`_NormSums`), so each stencil of an iterate is evaluated once.  Either way the result is bitwise equal to the
tensor formulas: the same operations on the same operands, summed in the
same order.  :func:`subtract_second_order` applies ``c_ij (D^2 f)_ij``
for the march check and the residual certificate, which share it; it
agrees with :func:`hessian_values` up to rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

__all__ = [
    "TorusGrid",
    "Field",
    "SpaceTimeField",
    "gradient",
    "gradient_values",
    "hessian",
    "hessian_values",
    "subtract_second_order",
    "time_derivative",
    "gradient_magnitude",
    "hessian_magnitude",
    "norm_C10",
    "norm_C10_values",
    "norm_W21p",
    "norm_W21p_values",
    "stack_norms",
    "norm_C1",
    "norm_C2",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic discretization of the unit torus times ``[0, T]``.

    Parameters
    ----------
    dim : int
        Spatial dimension, an integer ``>= 1``.
    n : int
        Grid points per spatial axis (``>= 8``); the spacing is ``h = 1/n``.
    nt : int
        Number of time steps (``>= 2``); slice ``j`` lives at ``t = j*dt``
        with ``dt = T/nt``.
    T : float
        Time horizon (``> 0``), large enough that ``T/nt`` does not
        underflow to 0 or to a subnormal number.
    """

    dim: int
    n: int
    nt: int
    T: float

    def __post_init__(self) -> None:
        # NaN and infinity fail the range test before int() sees them.
        if not (1 <= self.dim < math.inf and int(self.dim) == self.dim):
            raise ValueError(f"dim must be an integer >= 1, got {self.dim}")
        if not (8 <= self.n < math.inf and int(self.n) == self.n):
            raise ValueError(f"n must be an integer >= 8, got {self.n}")
        if not (2 <= self.nt < math.inf and int(self.nt) == self.nt):
            raise ValueError(f"nt must be an integer >= 2, got {self.nt}")
        # Integral floats (n=32.0) are stored as ints: they size arrays.
        for name in ("dim", "n", "nt"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if not self.dt >= np.finfo(float).tiny:
            raise ValueError(f"time step T/nt underflows to 0 or to a subnormal number "
                             f"(T={self.T!r}, nt={self.nt})")

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
        """Spatial array shape: ``(n,) * dim``."""
        return (self.n,) * self.dim

    @property
    def num_points(self) -> int:
        return self.n**self.dim

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays broadcast to the spatial shape (``ij`` indexing)."""
        axes = [np.arange(self.n) / self.n for _ in range(self.dim)]
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
        """Sample ``fn(*coordinates)``, one coordinate array per axis, on the grid."""
        return cls(grid, np.asarray(fn(*grid.coordinates()), dtype=float) + np.zeros(grid.shape))

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

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


# ---------------------------------------------------------------------------
# Differential operators (array level).  The spatial axes are always the
# trailing `dim` axes, so the same kernels serve single slices and stacked
# (nt+1, ...) arrays.
# ---------------------------------------------------------------------------


# A stencil is ``stencil(shifted, target)``: it writes into ``target`` from
# the views ``shifted(*moves)`` of ``f(x + Σ step e_axis)`` over ``target``,
# one ``(axis, step)`` move per shifted axis, each step -1 or 1.
_Stencil = Callable[[Callable[..., np.ndarray], np.ndarray], None]

@lru_cache(maxsize=256)
def _shift_plan(sizes: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, dict, np.ndarray, dict]:
    """How a stencil shifting along ``axes`` reads a C-contiguous stack of slices ``sizes``.

    Returns ``(reach, starts, points, gathers)``.  In the flat 1-D pass over
    the elements ``reach .. size - reach``, ``f(x + moves)`` starts at the
    flat offset ``starts[moves]``.  ``points`` are the flat indices within a
    slice of the points with index 0 or ``n - 1`` along ``axes``, which that
    pass gets wrong, and ``gathers[moves]`` those of ``f(x + moves)`` at
    them, wrapped periodically.  Moves are keyed as the stencils pass them,
    ``((axis, ±1), ...)`` in the order of ``axes``; the index arrays are
    read-only.
    """
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    reach = sum(strides[k] for k in axes)
    every = [tuple(zip(subset, steps))
             for r in range(len(axes) + 1) for subset in itertools.combinations(axes, r)
             for steps in itertools.product((1, -1), repeat=r)]
    edge = np.zeros(sizes, dtype=bool)
    for k in axes:
        edge[(slice(None),) * k + ([0, -1],)] = True
    index = np.nonzero(edge)

    def wrapped(moves):
        shifted = list(index)
        for k, step in moves:
            shifted[k] = (shifted[k] + step) % sizes[k]
        flat = np.ravel_multi_index(tuple(shifted), sizes)
        flat.flags.writeable = False
        return flat

    starts = {moves: reach + sum(step * strides[k] for k, step in moves) for moves in every}
    return reach, starts, wrapped(()), {moves: wrapped(moves) for moves in every}


class _Periodic:
    """One array on the torus with spacing ``h``, read through its flat contiguous buffer.

    Every stencil set (a gradient, a Hessian, one march check) takes one;
    an input that is not C-contiguous is copied once here.  A stencil
    reads ``f(x + s)`` for shifts ``s_k`` in ``{-1, 0, 1}``.  Where no shifted
    index wraps, that is the element at the fixed flat offset
    ``Σ s_k stride_k``, so :meth:`apply` runs the stencil as one 1-D pass
    over the whole stack; the points it gets wrong are those at index 0 or
    ``n - 1`` of a shifted axis, and it recomputes them in one more pass
    over their neighbours gathered with wrapped indices, slice by slice
    (:func:`_shift_plan`): a few operations whatever the number of axes
    shifted.  Each output element is the same operations on the same
    operands either way, so the result is bitwise what shifted copies
    (``np.roll``) give.
    """

    def __init__(self, values: np.ndarray, h: float, dim: int) -> None:
        self.values = np.ascontiguousarray(values, dtype=float)
        self.h = h
        self.flat = self.values.reshape(-1)
        self.sizes = self.values.shape[self.values.ndim - dim:]
        self.rows = self.flat.reshape(-1, math.prod(self.sizes))  # one row per slice
        self.starts = np.arange(0, self.flat.size, self.rows.shape[1])[:, np.newaxis]

    def apply(self, stencil: _Stencil, axes: tuple[int, ...], out: np.ndarray) -> None:
        """Run ``stencil`` (shifting along ``axes``) into the C-contiguous ``out``."""
        flat, rows, size, out = self.flat, self.rows, self.flat.size, out.reshape(-1)
        reach, starts, points, gathers = _shift_plan(self.sizes, axes)
        span = size - 2 * reach
        if span > 0:
            stencil(lambda *moves: flat[starts[moves]:starts[moves] + span], out[reach:size - reach])
        target = np.empty((len(rows), len(points)))
        stencil(lambda *moves: rows.take(gathers[moves], axis=1), target)
        out[(self.starts + points).ravel()] = target.ravel()


def _gradient_entry(periodic: _Periodic, i: int, out: np.ndarray) -> np.ndarray:
    """``out = (Df)_i = (f(x + e_i) - f(x - e_i)) / 2h``."""
    def stencil(shifted, target):
        np.subtract(shifted((i, 1)), shifted((i, -1)), out=target)

    periodic.apply(stencil, (i,), out)
    out /= 2.0 * periodic.h
    return out


def _second_difference(periodic: _Periodic, i: int, out: np.ndarray) -> None:
    """``out = f(x + e_i) - 2 f(x) + f(x - e_i)``."""
    def stencil(shifted, target):
        np.multiply(shifted(), 2.0, out=target)
        np.subtract(shifted((i, 1)), target, out=target)
        target += shifted((i, -1))

    periodic.apply(stencil, (i,), out)


def _neighbour_sum(periodic: _Periodic, i: int, out: np.ndarray) -> None:
    """``out = f(x + e_i) + f(x - e_i)``."""
    def stencil(shifted, target):
        np.add(shifted((i, 1)), shifted((i, -1)), out=target)

    periodic.apply(stencil, (i,), out)


def _cross_difference(periodic: _Periodic, i: int, j: int, out: np.ndarray) -> None:
    """``out`` = the 4-point cross stencil of ``d_i d_j f``, times ``4 h^2``."""
    def stencil(shifted, target):
        np.add(shifted((i, 1), (j, 1)), shifted((i, -1), (j, -1)), out=target)
        target -= shifted((i, 1), (j, -1))
        target -= shifted((i, -1), (j, 1))

    periodic.apply(stencil, (i, j), out)


def gradient_values(values: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Second-order centered gradient along the trailing ``dim`` axes.

    Returns an array of shape ``(dim,) + values.shape``; component ``i`` is
    ``(f(x + h e_i) - f(x - h e_i)) / (2h)`` with periodic wrap.
    """
    periodic = _Periodic(values, h, dim)
    out = np.empty((dim, *values.shape))
    for i in range(dim):
        _gradient_entry(periodic, i, out[i])
    return out


def _hessian_entry(periodic: _Periodic, i: int, j: int, out: np.ndarray) -> np.ndarray:
    """``out = (D^2 f)_ij``: the 3-point stencil on the diagonal, the 4-point cross stencil off it."""
    h2 = periodic.h * periodic.h
    if i == j:
        _second_difference(periodic, i, out)
        out /= h2
    else:
        _cross_difference(periodic, i, j, out)
        out /= 4.0 * h2
    return out


def hessian_values(values: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Second-order Hessian along the trailing ``dim`` axes.

    Diagonal entries use the 3-point stencil, off-diagonal entries the
    4-point cross stencil; the result has shape ``(dim, dim) + values.shape``
    and is exactly symmetric (the mixed entry is computed once and mirrored).
    """
    periodic = _Periodic(values, h, dim)
    out = np.empty((dim, dim, *values.shape))
    for i in range(dim):
        _hessian_entry(periodic, i, i, out[i, i])
    for i, j in itertools.combinations(range(dim), 2):
        out[j, i] = _hessian_entry(periodic, i, j, out[i, j])
    return out


def _row_order(dim: int, entry: Callable[[int, int], np.ndarray]):
    """Yield ``(i, j, (D^2 f)_ij)`` row by row, each mixed entry from one ``entry(i, j)``, ``i < j``.

    The entry of a pair is held from ``(i, j)`` until its mirror ``(j, i)``
    is yielded, then dropped.
    """
    held = {}
    for i, j in itertools.product(range(dim), repeat=2):
        value = held.pop((j, i)) if j < i else entry(i, j)
        if i < j:
            held[i, j] = value
        yield i, j, value


def subtract_second_order(values: np.ndarray, coeffs: np.ndarray, h: float, dim: int,
                          out: np.ndarray) -> None:
    """``out -= Σ_ij c_ij (D^2 f)_ij`` without building the Hessian.

    ``coeffs`` has axes ``(dim, dim) + ...`` broadcasting against ``values``
    and is taken as symmetric; the cross stencil of a pair ``i < j`` runs
    only where ``c_ij`` is nonzero.  The 3-point terms are accumulated as
    ``2 w f - w (f(x + e_i) + f(x - e_i))`` with ``w = c_ii / h^2``: one
    scratch array, no second differences, and the same value as with
    :func:`hessian_values` up to rounding.
    """
    periodic = _Periodic(values, h, dim)
    h2 = h * h
    weights = [coeffs[i, i] / h2 for i in range(dim)]
    scratch = np.multiply(periodic.values, 2.0 * sum(weights))
    out += scratch
    for i in range(dim):
        _neighbour_sum(periodic, i, scratch)
        scratch *= weights[i]
        out -= scratch
    for i, j in itertools.combinations(range(dim), 2):
        if np.any(coeffs[i, j] != 0.0):
            _cross_difference(periodic, i, j, scratch)
            scratch *= coeffs[i, j] / (2.0 * h2)
            out -= scratch


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


def gradient_magnitude(grad: np.ndarray | _Periodic) -> np.ndarray:
    """Pointwise Euclidean magnitude of a gradient.

    ``grad`` is a :func:`gradient_values` output, or the :class:`_Periodic`
    samples whose components then come straight from the stencils, with no
    ``(dim,)`` + stack tensor.  Either way the components are squared into
    two buffers and summed in order: bitwise
    ``np.sqrt(np.sum(grad * grad, axis=0))``.
    """
    if isinstance(grad, np.ndarray):
        dim, shape, component = len(grad), grad.shape[1:], lambda i, out: grad[i]
    else:
        dim, shape, component = len(grad.sizes), grad.values.shape, partial(_gradient_entry, grad)
    total, part = np.empty(shape), (np.empty(shape) if dim > 1 else None)
    value = component(0, total)
    np.multiply(value, value, out=total)
    for i in range(1, dim):
        value = component(i, part)
        total += np.multiply(value, value, out=part)
    return np.sqrt(total, out=total)


def hessian_magnitude(hess: np.ndarray | _Periodic) -> np.ndarray:
    """Pointwise Frobenius magnitude of a Hessian.

    ``hess`` is a :func:`hessian_values` output (exactly symmetric), or the
    :class:`_Periodic` samples whose entries then come straight from the
    stencils, with no ``(dim, dim)`` + stack tensor.  Either way the squared
    entries are summed row by row: bitwise
    ``np.sqrt(np.sum(hess * hess, axis=(0, 1)))``.  The square of a mixed
    entry is taken once and held until its mirror is summed; a buffer is
    reused once its square is summed.
    """
    if isinstance(hess, np.ndarray):
        dim, shape, entry = len(hess), hess.shape[2:], lambda i, j, out: hess[i, j]
    else:
        dim, shape, entry = len(hess.sizes), hess.values.shape, partial(_hessian_entry, hess)
    free: list[np.ndarray] = []

    def square(i: int, j: int) -> np.ndarray:
        out = free.pop() if free else np.empty(shape)
        value = entry(i, j, out)
        return np.multiply(value, value, out=out)

    squares = _row_order(dim, square)
    total = next(squares)[2]
    for i, j, value in squares:
        total += value
        if i >= j:  # not held for a mirror any more
            free.append(value)
    return np.sqrt(total, out=total)


def norm_C10_values(values: np.ndarray, grad_mag: np.ndarray) -> float:
    """``max|f| + max|Df|`` from the samples and their gradient magnitude."""
    return float(np.max(np.abs(values)) + np.max(grad_mag))


# Each slab array of a sweep, and of the norms and marches here, holds about
# this many bytes, and one time slice at least: three slabs of about 22
# slices at 2D n=32 nt=64, one slice at 3D n=32.  A slab costs a fixed
# number of numpy calls whatever its size: four slabs there (128 KiB)
# took a 2D solve 7-11% longer than three, and two left its peak at 10.8
# stacks of (nt + 1) n^2 floats, against 9.6.
_SLAB_BYTES = 160 * 1024


def _time_slabs(grid: TorusGrid, start: int = 0, rows: int = 1) -> list[slice]:
    """The slices ``start .. nt`` cut into consecutive runs of about one slab length each.

    A run is as long as the widest array a caller builds on it, ``rows``
    grid rows per slice, takes to fill ``_SLAB_BYTES`` (one slice at least).
    The runs differ in length by one slice at most, so no run is a short tail.
    """
    size, width = grid.nt + 1 - start, 8 * rows * grid.num_points
    count = max(1, round(size * width / max(_SLAB_BYTES, width)))
    bounds = [start + size * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


class _NormSums:
    """``|f|_C10`` and, given ``p``, ``||f||_W21p`` of one stack, gathered slab by slab.

    :meth:`add` takes the slabs in time order.  The sups are reduced per
    slab; the ``W21p`` integrand is written into one ``(nt,) + shape`` stack
    and summed by one ``np.sum`` once its last slice is in, then dropped.
    So both norms are bitwise those of the whole stack, whatever the slabs.
    """

    def __init__(self, grid: TorusGrid, p: Optional[float] = None) -> None:
        if p is not None and not p >= 2:
            raise ValueError(f"exponent p must be >= 2, got {p}")
        self.grid, self.p = grid, p
        self.sups: list[np.floating] = []  # max |f| of each slab
        self.grad_sups: list[np.floating] = []  # max |Df| of each slab
        self.integrand = None if p is None else np.empty((grid.nt, *grid.shape))
        self.w21p = math.nan

    def add(self, start: int, values: np.ndarray, grad_mag: np.ndarray,
            hess_mag: Optional[np.ndarray] = None) -> None:
        """Take the slab of slices ``start ..`` with ``len(grad_mag)`` slices.

        ``values`` holds ``f`` on the slab and, if the slab ends before
        slice ``nt``, on the next slice too (``∂_t f`` reads it);
        ``grad_mag`` is ``|Df|`` on the slab and ``hess_mag`` (for ``p``
        only) is ``|D^2 f|`` on its slices below ``nt``.
        """
        size = len(grad_mag)
        self.sups.append(np.abs(values[:size]).max())
        self.grad_sups.append(grad_mag.max())
        steps = min(start + size, self.grid.nt) - start  # the quadrature's slices
        if self.p is None or steps <= 0:
            return
        _w21p_integrand(values[:steps + 1], grad_mag[:steps], hess_mag, self.grid.dt, self.p,
                        self.integrand[start:start + steps])
        if start + steps == self.grid.nt:
            g = self.grid
            total = float(np.sum(self.integrand)) * g.dt * g.h**g.dim
            self.integrand = None
            self.w21p = total ** (1.0 / self.p)

    def add_samples(self, rows: slice, values: np.ndarray) -> None:
        """:meth:`add` with the magnitudes taken straight from the stencils of ``values``.

        ``values`` holds ``f`` on the slices ``rows`` and the next one, if any.
        """
        g, size = self.grid, rows.stop - rows.start
        steps = min(size, g.nt - rows.start)
        grad_mag = gradient_magnitude(_Periodic(values[:size], g.h, g.dim))
        hess_mag = None
        if self.p is not None and steps > 0:
            hess_mag = hessian_magnitude(_Periodic(values[:steps], g.h, g.dim))
        self.add(rows.start, values, grad_mag, hess_mag)

    @property
    def sup(self) -> np.floating:
        return np.max(self.sups)

    @property
    def grad_sup(self) -> np.floating:
        return np.max(self.grad_sups)

    def c10(self) -> float:
        return float(self.sup + self.grad_sup)


def stack_norms(
    values: np.ndarray, grid: TorusGrid, p: Optional[float] = None
) -> tuple[float, ...]:
    """``(|f|_C10,)`` of samples ``values``, or ``(|f|_C10, ||f||_W21p)`` given ``p``.

    The norm kernel behind :func:`norm_C10`, :func:`norm_W21p` and the
    solver's distance, run over time slabs.  The magnitudes come straight
    from the stencils of ``values``: the gradient magnitude on every slice,
    the Hessian magnitude (for ``p`` only) on slices ``0 .. nt-1``, which the
    quadrature samples.  The result is bitwise that of the magnitudes of
    :func:`gradient_values` and :func:`hessian_values`.
    """
    norms = _NormSums(grid, p)
    for rows in _time_slabs(grid):
        norms.add_samples(rows, values[rows.start:rows.stop + 1])
    return (norms.c10(),) if p is None else (norms.c10(), norms.w21p)


def norm_C10(f: SpaceTimeField) -> float:
    """Sup norm of ``f`` plus sup norm of its spatial gradient over all slices."""
    return stack_norms(f.values, f.grid)[0]


def norm_C1(f: Field) -> float:
    """Single-slice analogue of :func:`norm_C10`."""
    g = f.grid
    return norm_C10_values(f.values, gradient_magnitude(_Periodic(f.values, g.h, g.dim)))


def norm_C2(f: Field) -> float:
    """``max|f| + max|Df| + max|D^2 f|`` on one slice (Frobenius norm for the Hessian)."""
    g = f.grid
    return norm_C1(f) + float(np.max(hessian_magnitude(_Periodic(f.values, g.h, g.dim))))


def norm_W21p_values(
    values: np.ndarray, grad_mag: np.ndarray, hess_mag: np.ndarray, grid: TorusGrid, p: float
) -> float:
    """:func:`norm_W21p` of the ``(nt + 1,) + shape`` stack ``values``.

    ``grad_mag`` and ``hess_mag`` are the gradient and Hessian magnitudes of
    slices ``0 .. nt-1`` (the slices the quadrature samples).
    """
    norms = _NormSums(grid, p)
    norms.add(0, values, grad_mag, hess_mag)
    return norms.w21p


def _w21p_integrand(values: np.ndarray, grad_mag: np.ndarray, hess_mag: np.ndarray,
                    dt: float, p: float, out: np.ndarray) -> None:
    """``out = |f|^p + |Df|^p + |D^2 f|^p + |∂_t f|^p`` on the slices ``values[:-1]``.

    The powers are summed in that order into ``out``, through two buffers;
    ``|∂_t f|`` is the forward difference.
    """
    vals = values[:-1]
    base = np.abs(vals)
    _power(base, p, out)
    power = np.empty_like(base)
    out += _power(grad_mag, p, power)
    out += _power(hess_mag, p, power)
    ft = np.subtract(values[1:], vals, out=base)
    ft /= dt
    np.abs(ft, out=ft)
    out += _power(ft, p, power)


def _power(base: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """``base ** p`` into ``out`` (not ``base``) for a nonnegative ``base`` and ``p >= 2``.

    An integer ``p`` is raised by repeated squaring over its bits, left to
    right: within a few ulp of ``**`` and about four times faster than
    numpy's float power.  Any other ``p`` takes ``**``.
    """
    if not float(p).is_integer():
        return np.power(base, p, out=out)
    bits = bin(int(p))[3:]  # the bits after the leading one; p >= 2 leaves one
    np.multiply(base, base, out=out)
    if bits[0] == "1":
        out *= base
    for bit in bits[1:]:
        out *= out
        if bit == "1":
            out *= base
    return out


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
    return stack_norms(f.values, f.grid, p)[1]

"""Picard iteration for the coupled backward-forward system.

One sweep of the solution operator maps an iterate pair ``(u, m)`` to the
next pair in two stages, each a single linear parabolic solve:

1. march the density forward from its initial datum with the truncated
   source ``G`` frozen on the incoming pair,
2. march the value function backward from the final condition built on the
   *new* density, with the truncated source ``F`` frozen on the incoming
   value function and the new density.

The truncation (see :mod:`fbmfg.truncation`) clamps every low-order source
argument at a level ``K`` chosen from the data, which makes each sweep
well-defined no matter how wild the incoming pair is; the second-derivative
slot of ``G`` passes through untouched because the forward solve is linear
in it.  On a short enough horizon the sweep is a contraction and the
iteration converges geometrically; the per-step contraction factors are
recorded so a run certifies — or refutes — that behaviour on its own
output.  The final pair is additionally checked against the clamp levels:
only when the solution stays strictly inside the truncation region
(``1/K <= m <= K``, ``|u|, |Du|, |Dm| <= K``) did the iteration actually
solve the *untruncated* problem.

The distance driving the stopping rules combines the parabolic Sobolev
norm of the value difference with uniform ``C^1`` norms of both
differences,

    d = |du|_W21p + |du|_C1 + |dm|_C1,

with ``p = dim + 3`` by default.

Every stage is local in time, so a sweep runs over time slabs whose arrays
hold about ``torus_grid._SLAB_BYTES`` each (one slice at least); the only
whole space-time stacks are the two pairs, one source stack and one
``W21p`` integrand.  A sweep makes four passes:

- forward: per slab, the incoming pair's ``Du``, ``D2u`` and ``Dm`` and
  their magnitudes are taken once; they build ``G``, whose slab is marched
  and checked at once (:class:`~fbmfg.parabolic._March`), then with the new
  density's gradient the slab of ``F``, and they finish the incoming pair's
  row, which the previous sweep left pending;
- backward: the value function is marched from ``F`` slab by slab;
- distance: the stencils of the differences, slab by slab, fill the
  integrand (:class:`~fbmfg.torus_grid._NormSums`);
- after the last sweep, one pass over the final pair gives its row (or
  the row a failed sweep left pending), the clamp bounds and the residual
  certificate: the march check's step residual
  (:func:`~fbmfg.parabolic._step_residuals`) with the untruncated sources,
  divided by ``dt``, so each step's discrete equation is written once.

A slab takes no stencil twice and no derivative outlives it.  Sups are
reduced per slab and the integrand is summed by one ``np.sum``, so every
row, iterate and certificate is bitwise the same whatever the slab size.
Divergence is declared after five consecutive increases of ``d`` (or any
non-finite value); exhausting the iteration budget without meeting the
tolerance is reported as its own status, since near a critical horizon the
factors hover just below one and the iteration stalls rather than blows
up.  A sweep that fails (a final cost leaving its domain, a non-finite
march) ends the run with status ``"error"``; the rows so far and the last
good pair are kept.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .models import CouplingModel, FinalCost
# norm_C1, norm_C10, norm_W21p, time_derivative and solve_forward are not
# called here; they stay imported because benchmark/tracing.py wraps the
# names it finds in this module (TestTracedNames checks that they resolve).
from .parabolic import (  # noqa: F401
    ParabolicProblem,
    SolverError,
    _levels,
    _March,
    _step_residuals,
    solve_backward,
    solve_forward,
)
from .torus_grid import (  # noqa: F401
    Field,
    SpaceTimeField,
    TorusGrid,
    _NormSums,
    _time_slabs,
    gradient_magnitude,
    gradient_values,
    hessian_magnitude,
    hessian_values,
    norm_C1,
    norm_C10,
    norm_W21p,
    time_derivative,
)
from .truncation import TruncationParams, select_K, wrap_model

__all__ = [
    "IterateState",
    "IterationRow",
    "IterationReport",
    "SweepRow",
    "apply_T",
    "initial_state",
    "iterate_distance",
    "picard_solve",
    "horizon_sweep",
]


@dataclass(frozen=True)
class IterateState:
    """One iterate pair: value function and density on the same grid."""

    u: SpaceTimeField
    m: SpaceTimeField

    def __post_init__(self):
        if self.u.grid != self.m.grid:
            raise ValueError("iterate components live on different grids")

    @property
    def grid(self) -> TorusGrid:
        return self.u.grid


@dataclass(frozen=True)
class _StartingPair(IterateState):
    """``u = 0`` and ``m = m0`` at every slice, with the gradient ``Dm0`` of ``m0``."""

    Dm0: np.ndarray = field(compare=False, repr=False)


def initial_state(grid: TorusGrid, m0: Field, Dm0: Optional[np.ndarray] = None) -> IterateState:
    """Starting pair: zero value function, density frozen at its datum.

    Its derivatives take no stencil: ``Du``, ``D2u`` are zero and ``Dm``
    repeats the gradient ``Dm0`` of ``m0`` (taken here unless given)."""
    if Dm0 is None:
        Dm0 = gradient_values(m0.values, grid.h, grid.dim)
    return _StartingPair(u=SpaceTimeField.zeros(grid),
                         m=SpaceTimeField.constant_in_time(m0, grid), Dm0=Dm0)


def _slab_coordinates(grid: TorusGrid) -> list[tuple[slice, tuple, np.ndarray]]:
    """``(rows, x, t)`` of every time slab: the grid's ``(x, t)`` on the slices ``rows``.

    A solve builds them once and hands the same views to every sweep and to
    the final checks, so a model may key what it derives from them on the
    views themselves.
    """
    x, t = grid.space_time_coordinates()
    return [(rows, tuple(c[rows] for c in x), t[rows]) for rows in _time_slabs(grid)]


class _PairNorms:
    """A pair's row norms and clamp bounds, gathered slab by slab in time order."""

    def __init__(self, grid: TorusGrid, p: Optional[float] = None) -> None:
        self.u, self.m = _NormSums(grid, p), _NormSums(grid)
        self.m_min: list[np.floating] = []
        self.m_max: list[np.floating] = []

    def add_m(self, start: int, m: np.ndarray, Dm_mag: np.ndarray) -> None:
        self.m.add(start, m, Dm_mag)
        self.m_min.append(m.min())
        self.m_max.append(m.max())

    def row(self, k: int, d: float, gamma: float) -> "IterationRow":
        return IterationRow(
            k, d, gamma, self.u.w21p, self.u.c10(), self.m.c10(),
            min_m=float(np.min(self.m_min)), max_Du=float(self.u.grad_sup),
        )

    def bounds(self) -> dict:
        return {
            "max_abs_u": float(self.u.sup),
            "min_m": float(np.min(self.m_min)),
            "max_m": float(np.max(self.m_max)),
            "max_Du": float(self.u.grad_sup),
            "max_Dm": float(self.m.grad_sup),
        }


def _derivatives(state: IterateState, rows: slice, norms: Optional[_PairNorms] = None):
    """``(Du, D2u, Dm, |Du|, |Dm|)`` of a pair on the slices ``rows``, each stencil taken once.

    ``norms``, if given, gathers the pair's row norms and bounds from them.
    The Hessian's magnitude is reduced before the gradients are taken, and
    the value function's norms before the density's gradient, so the slab
    holds one array less at its peak.  The starting pair takes no stencil.
    """
    grid, u, m = state.grid, state.u.values, state.m.values
    starting = isinstance(state, _StartingPair)
    shape = (grid.dim, rows.stop - rows.start, *grid.shape)
    D2u = (np.broadcast_to(0.0, (grid.dim,) + shape) if starting
           else hessian_values(u[rows], grid.h, grid.dim))
    hess_mag = None
    if norms is not None and norms.u.p is not None and rows.start < grid.nt:
        hess_mag = hessian_magnitude(D2u[:, :, :grid.nt - rows.start])
    Du = np.broadcast_to(0.0, shape) if starting else gradient_values(u[rows], grid.h, grid.dim)
    Du_mag = gradient_magnitude(Du)
    if norms is not None:
        norms.u.add(rows.start, u[rows.start:rows.stop + 1], Du_mag, hess_mag)
    del hess_mag
    Dm = (np.broadcast_to(state.Dm0[:, np.newaxis], shape) if starting
          else gradient_values(m[rows], grid.h, grid.dim))
    Dm_mag = gradient_magnitude(Dm)
    if norms is not None:
        norms.add_m(rows.start, m[rows], Dm_mag)
    return Du, D2u, Dm, Du_mag, Dm_mag


def iterate_distance(a: IterateState, b: IterateState, p: float) -> float:
    """The contraction metric ``|du|_W21p + |du|_C1 + |dm|_C1``.

    Equal to ``norm_W21p(du, p) + norm_C10(du) + norm_C10(dm)``: the norms
    take the stencils of the differences themselves, once each and a time
    slab at a time, and build only their magnitudes.
    """
    grid = a.grid
    du, dm = _NormSums(grid, p), _NormSums(grid)
    for rows in _time_slabs(grid):
        halo = slice(rows.start, rows.stop + 1)  # du_t reads the next slice
        du.add_samples(rows, a.u.values[halo] - b.u.values[halo])
        dm.add_samples(rows, a.m.values[rows] - b.m.values[rows])
    return du.w21p + du.c10() + dm.c10()


def apply_T(
    model: CouplingModel,
    final_cost: FinalCost,
    m0: Field,
    state: IterateState,
    trunc: TruncationParams,
    *,
    coordinates: Optional[list] = None,
    norms: Optional[_PairNorms] = None,
) -> IterateState:
    """One sweep of the solution operator: forward density, backward value.

    The forward solve sees the incoming pair everywhere, the backward solve
    sees the incoming value function but the *new* density (and the final
    condition is built from the new final density).  The datum slices pass
    through the linear solves untouched, so ``m(0) = m0`` and ``u(T) =
    h[m(T)]`` hold exactly on the output.

    The forward pass runs over time slabs: each takes the incoming pair's
    derivatives once, builds its slab of ``G`` and marches it, then builds
    its slab of ``F`` (slices ``0 .. nt-1``, the ones the backward march
    reads) from the new density's gradient.  ``norms``, if given, gathers
    the incoming pair's row norms from the same derivatives.
    ``coordinates`` is the ``(rows, x, t)`` list of
    :func:`_slab_coordinates`, built here unless given; a solve hands the
    same list to every sweep, so a model may keep what it derives from them.
    """
    grid = state.grid
    F_hat, G_hat = wrap_model(model.F, model.G, trunc)
    u_old, m_old = state.u.values, state.m.values
    # The new density's stack and march, and the stack of F, are made once
    # the first slab needs them: where one slab is the whole stack, its
    # derivatives then peak without them.
    march = source = None
    for rows, x, t in _slab_coordinates(grid) if coordinates is None else coordinates:
        Du, D2u, Dm, Du_mag, Dm_mag = _derivatives(state, rows, norms)
        G = G_hat(u_old[rows], m_old[rows], Du, Dm, D2u, x, t, Du_mag=Du_mag, Dm_mag=Dm_mag)
        del D2u, Dm, Dm_mag
        if march is None:
            values = np.empty((grid.nt + 1, *grid.shape))
            values[0] = m0.values
            diffusion = ParabolicProblem(grid, model.diffusion_values(grid, "m")).diffusion
            march = _March(grid, diffusion, values)
        if rows.stop > 1:  # slice 0 of G holds no step
            march.advance(G[1:] if rows.start == 0 else G)
        del G
        k = min(rows.stop, grid.nt) - rows.start  # the slab's slices of F
        if k > 0:
            if source is None:
                source = np.empty_like(values)
                source[-1] = 0.0  # no step reads it
            cols = slice(rows.start, rows.start + k)
            Dm_new = gradient_values(values[cols], grid.h, grid.dim)
            source[cols] = F_hat(u_old[cols], values[cols], Du[:, :k], Dm_new,
                                 tuple(c[:k] for c in x), t[:k],
                                 Du_mag=Du_mag[:k], Dm_mag=gradient_magnitude(Dm_new))
            del Dm_new
        del Du, Du_mag
    march.finish()
    m_new = SpaceTimeField(grid, values)
    u_new = solve_backward(ParabolicProblem(
        grid, diffusion=model.diffusion_values(grid, "u"), source=source,
        final=final_cost(m_new.slice_field(grid.nt)),
    ))
    return IterateState(u=u_new, m=m_new)


@dataclass(frozen=True)
class IterationRow:
    """Per-sweep record (the ``gamma`` of the first row is NaN)."""

    iteration: int
    distance: float
    gamma: float
    norm_u_w21p: float
    norm_u_c10: float
    norm_m_c10: float
    min_m: float
    max_Du: float


@dataclass(frozen=True)
class IterationReport:
    """Everything a run of :func:`picard_solve` established.

    ``status`` is one of ``"converged"`` (distance fell below tolerance),
    ``"diverged"`` (five consecutive increases or a non-finite distance),
    ``"max_iter"`` (budget exhausted first) or ``"error"`` (a sweep raised
    ``ValueError``, ``ArithmeticError`` or :class:`SolverError`; ``error``
    names the sweep and the message, ``rows`` end before it and
    ``final_state`` is the pair it started from).  ``iterations``,
    ``distance_history`` and ``gamma_history`` are read off ``rows``.
    The contraction evidence is ``gamma_history``; the clamp evidence is
    ``detrunc_ok`` together with ``detrunc_failures`` naming any violated
    bound.  ``m1_violations`` lists sweeps whose iterate left the a-priori
    ball of radius ``M1`` (monitoring only — the truncation, not this
    ball, is what keeps the iteration defined).
    """

    status: str
    rows: tuple[IterationRow, ...]
    final_state: IterateState
    K: float
    M1: float
    L_h: float
    C0: float
    delta: float
    p: float
    detrunc_ok: bool
    detrunc_failures: tuple[str, ...]
    m1_violations: tuple[int, ...]
    bounds: dict
    residuals: dict
    regularizing_final_cost: bool
    error: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def iterations(self) -> int:
        return len(self.rows)

    @property
    def distance_history(self) -> tuple[float, ...]:
        return tuple(r.distance for r in self.rows)

    @property
    def gamma_history(self) -> tuple[float, ...]:
        """The per-sweep factors from the second sweep on."""
        return tuple(r.gamma for r in self.rows[1:])

    @property
    def final_distance(self) -> float:
        return self.rows[-1].distance if self.rows else math.nan

    @property
    def max_gamma(self) -> float:
        return max(self.gamma_history) if self.gamma_history else math.nan

    @property
    def is_contraction(self) -> bool:
        """All observed per-sweep factors strictly below one."""
        return bool(self.gamma_history) and all(g < 1.0 for g in self.gamma_history)


def _detrunc_check(bounds: dict, K: float) -> tuple[bool, tuple[str, ...]]:
    """Whether the final pair's clamp ``bounds`` stay inside the truncation region, and the failures."""
    failures = []
    if not bounds["min_m"] >= 1.0 / K:
        failures.append(f"min m = {bounds['min_m']:.6g} < 1/K = {1.0 / K:.6g}")
    if not bounds["max_m"] <= K:
        failures.append(f"max m = {bounds['max_m']:.6g} > K")
    if not bounds["max_abs_u"] <= K:
        failures.append(f"max |u| = {bounds['max_abs_u']:.6g} > K")
    if not bounds["max_Du"] <= K:
        failures.append(f"max |Du| = {bounds['max_Du']:.6g} > K")
    if not bounds["max_Dm"] <= K:
        failures.append(f"max |Dm| = {bounds['max_Dm']:.6g} > K")
    return not failures, tuple(failures)


def _slab_residuals(model: CouplingModel, grid: TorusGrid, u: np.ndarray, m: np.ndarray,
                    rows: slice, x: tuple, t: np.ndarray,
                    Du: np.ndarray, D2u: np.ndarray, Dm: np.ndarray) -> tuple:
    """Residual rows ``(u, m)`` of the *untruncated* equations on the slab ``rows`` of a pair.

    Each is the step residual that the march check reduces
    (:func:`~fbmfg.parabolic._step_residuals`), taken with the untruncated
    source and divided by ``dt``: the value equation at the slab's slices
    below ``nt`` against the forward difference, the density equation at
    those above 0 against the backward difference (``None`` where the slab
    has no such slice).  ``model`` holds its diffusions resolved
    (:func:`_resolved`); ``u`` and ``m`` are whole contiguous stacks, so
    that only the reversed view of ``u`` reads as a backward march.  At an
    exact fixed point both are round-off.
    """
    G = model.G(u[rows], m[rows], Du, Dm, D2u, x, t)
    first = int(rows.start == 0)  # the density equation starts at slice 1
    steps = slice(rows.start + first, rows.stop)
    res_m = None
    if steps.start < steps.stop:
        res_m = _step_residuals(grid, _levels(model.diffusion_m, steps), G[first:],
                                m[steps.start - 1:steps.stop])[0]
        res_m /= grid.dt
    del G
    k = min(rows.stop, grid.nt) - rows.start
    res_u = None
    if k > 0:
        cols = slice(rows.start, rows.start + k)
        F = model.F(u[cols], m[cols], Du[:, :k], Dm[:, :k], tuple(c[:k] for c in x), t[:k])
        res_u = _step_residuals(grid, _levels(model.diffusion_u, cols)[:, :, ::-1], F[::-1],
                                u[cols.start:cols.stop + 1][::-1])[0]
        res_u /= grid.dt
    return res_u, res_m


def _contiguous(state: IterateState) -> tuple[np.ndarray, np.ndarray]:
    """``(u, m)`` of a pair, contiguous: only ``u``'s reversed view reads as a backward march."""
    return tuple(np.ascontiguousarray(f.values) for f in (state.u, state.m))


def _pde_residual_stacks(model: CouplingModel, state: IterateState,
                         coordinates: Optional[list] = None) -> tuple[np.ndarray, ...]:
    """The rows of :func:`_slab_residuals` over every slab, stacked: ``(nt,) + spatial`` each.

    The value equation's rows are slices ``0 .. nt-1``, the density's
    ``1 .. nt``.  ``model`` is any model: its diffusions are resolved here.
    ``coordinates`` is the list of :func:`_slab_coordinates`, built here
    unless given.
    """
    grid = state.grid
    model = _resolved(model, grid)
    u, m = _contiguous(state)
    parts = [
        _slab_residuals(model, grid, u, m, rows, x, t, *_derivatives(state, rows)[:3])
        for rows, x, t in (_slab_coordinates(grid) if coordinates is None else coordinates)
    ]
    return tuple(np.concatenate([r for r in res if r is not None]) for res in zip(*parts))


def _pde_residuals(model: CouplingModel, state: IterateState, coordinates: Optional[list] = None,
                   norms: Optional[_PairNorms] = None) -> dict:
    """Sups of :func:`_slab_residuals` on the final pair, in one pass over its slabs.

    ``model`` holds its diffusions resolved, as :func:`picard_solve` does.
    ``norms``, if given, gathers the pair's row norms and clamp bounds in
    the same pass, from the same derivatives.  Sources that reject the pair
    (``ValueError`` or ``ArithmeticError``, e.g. a density that left its
    domain after divergence) yield NaN residuals and a ``"reason"`` naming
    the error, and the norms are still gathered; any other exception
    propagates.  ``coordinates`` is built here unless given.
    """
    grid = state.grid
    u, m = _contiguous(state)
    sups: tuple[list, list] = ([], [])
    reason = ""
    for rows, x, t in _slab_coordinates(grid) if coordinates is None else coordinates:
        Du, D2u, Dm = _derivatives(state, rows, norms)[:3]
        if not reason:
            try:
                with np.errstate(all="ignore"):
                    res = _slab_residuals(model, grid, u, m, rows, x, t, Du, D2u, Dm)
            except (ValueError, ArithmeticError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
            else:
                for sup, r in zip(sups, res):
                    if r is not None:
                        sup.append(np.max(np.abs(r)))
        del Du, D2u, Dm
    if reason:
        return {"u": math.nan, "m": math.nan, "reason": reason}
    return {"u": float(np.max(sups[0])), "m": float(np.max(sups[1]))}


def _resolved(model: CouplingModel, grid: TorusGrid) -> CouplingModel:
    """The model with each diffusion checked and in the layout of :class:`ParabolicProblem`.

    Each is evaluated on ``grid`` (a callable depends on nothing else) and
    resolved by a problem one equation at a time, and the model keeps that
    problem's array: where a stack collapses to its first slice, the stack
    is gone before the other equation's is evaluated.
    """
    for equation in ("u", "m"):
        diffusion = ParabolicProblem(grid, model.diffusion_values(grid, equation)).diffusion
        model = replace(model, **{f"diffusion_{equation}": diffusion})
    return model


def _checked_inputs(model: CouplingModel, final_cost: FinalCost, m0: Field, grid: TorusGrid,
                    tol: float, max_iter: int, delta: Optional[float], K: Optional[float],
                    p: Optional[float]) -> tuple[CouplingModel, float, float, TruncationParams]:
    """``(model, delta, p, truncation)`` of a solve with defaults filled in, or ``ValueError``.

    The model comes back resolved (:func:`_resolved`)."""
    if m0.values.shape != grid.shape:
        raise ValueError(
            f"initial density shape {m0.values.shape} does not match grid {grid.shape}"
        )
    if not np.all(m0.values > 0.0):
        raise ValueError("initial density must be strictly positive")
    if not np.all(np.isfinite(m0.values)):
        raise ValueError("initial density must be finite")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if p is None:
        p = grid.dim + 3.0
    elif not 2 <= p < math.inf:
        raise ValueError(f"exponent p must be >= 2 and finite, got {p}")
    if delta is None:
        delta = float(np.min(m0.values))
    return _resolved(model, grid), delta, p, select_K(m0, final_cost.L_h, final_cost.C0, delta, K)


def picard_solve(
    model: CouplingModel,
    final_cost: FinalCost,
    m0: Field,
    grid: TorusGrid,
    *,
    tol: float = 1e-8,
    max_iter: int = 100,
    delta: Optional[float] = None,
    K: Optional[float] = None,
    p: Optional[float] = None,
) -> IterationReport:
    """Iterate the two-stage sweep to a fixed point (or a verdict).

    ``delta`` is the positivity floor of the initial density and defaults
    to its actual minimum; the clamp level ``K`` is derived from the data
    and the final cost's constants unless given explicitly.  Each sweep
    appends one :class:`IterationRow`; the loop stops on convergence
    (``d <= tol``), on divergence (five consecutive increases of ``d`` or a
    non-finite value), on a failed sweep (status ``"error"``), or when
    ``max_iter`` sweeps are exhausted.  Inadmissible inputs, a diffusion
    that is not symmetric or not uniformly elliptic among them, raise
    ``ValueError`` before the first sweep.
    """
    model, delta, p, trunc = _checked_inputs(model, final_cost, m0, grid, tol, max_iter,
                                             delta, K, p)
    m0 = m0.with_grid(grid)
    M1 = 3.0 * ((final_cost.L_h + 1.0) * trunc.m0_norm_C1 + final_cost.C0)

    state = initial_state(grid, m0, trunc.m0_gradient)
    coordinates = _slab_coordinates(grid)
    # glibc hands the top of its heap back to the system once more than
    # twice the largest block it has mapped and freed lies free there, and
    # faults it in again on the next allocation.  A sweep's largest block is
    # one stack, so each slab's temporaries would be handed back and faulted
    # in again: 5.6k minor faults per 2D n=32 nt=64 solve, 1.2k with this.
    # One untouched block of four stacks, mapped and freed, raises the level
    # (glibc takes no block above 32 MiB as the level: larger stacks are
    # mapped one by one anyway).
    if 4 * 8 * (grid.nt + 1) * grid.num_points <= 32 << 20:
        np.empty((4, grid.nt + 1, *grid.shape))
    rows: list[IterationRow] = []
    distances: list[float] = []
    m1_violations: list[int] = []
    status = "max_iter"
    error = ""
    increases = 0
    # (k, d, gamma) of the row of ``state``: its norms are gathered by the
    # next sweep's forward pass, or by the final checks.
    pending: Optional[tuple[int, float, float]] = None

    def finish_row(norms: _PairNorms) -> None:
        row = norms.row(*pending)
        rows.append(row)
        if row.norm_u_c10 > M1 or row.norm_m_c10 > M1:
            m1_violations.append(row.iteration)

    for k in range(1, max_iter + 1):
        norms = None if pending is None else _PairNorms(grid, p)
        try:
            candidate = apply_T(model, final_cost, m0, state, trunc,
                                coordinates=coordinates, norms=norms)
        except (ValueError, ArithmeticError, SolverError) as exc:
            status = "error"
            error = f"sweep {k}: {type(exc).__name__}: {exc}"
            break
        if pending is not None:
            finish_row(norms)
        d = iterate_distance(candidate, state, p)
        state = candidate
        gamma = d / distances[-1] if distances else math.nan
        pending = (k, d, gamma)
        distances.append(d)
        if not math.isfinite(d):
            status = "diverged"
            break
        if d <= tol:
            status = "converged"
            break
        if len(distances) >= 2 and d > distances[-2]:
            increases += 1
            if increases >= 5:
                status = "diverged"
                break
        else:
            increases = 0

    # One pass over the final pair (the one of the last row, if any sweep
    # succeeded): its row, its clamp bounds and its residual certificate.
    norms = _PairNorms(grid, None if pending is None else p)
    residuals = _pde_residuals(model, state, coordinates, norms)
    if pending is not None:
        finish_row(norms)
    bounds = norms.bounds()
    detrunc_ok, failures = _detrunc_check(bounds, trunc.K)
    return IterationReport(
        status=status,
        rows=tuple(rows),
        final_state=IterateState(u=state.u, m=state.m),
        K=trunc.K,
        M1=M1,
        L_h=final_cost.L_h,
        C0=final_cost.C0,
        delta=float(delta),
        p=float(p),
        detrunc_ok=detrunc_ok,
        detrunc_failures=failures,
        m1_violations=tuple(m1_violations),
        bounds=bounds,
        residuals=residuals,
        regularizing_final_cost=final_cost.regularizing,
        error=error,
    )


@dataclass(frozen=True)
class SweepRow:
    """Outcome of one horizon in :func:`horizon_sweep`.

    ``runtime`` is wall-clock seconds for the horizon and is excluded from
    equality so that two sweeps of one problem compare equal.
    """

    T: float
    nt: int
    status: str
    iterations: int
    final_distance: float
    max_gamma: float
    min_m: float
    detrunc_ok: bool
    error: str = ""
    runtime: float = field(default=0.0, compare=False)


def horizon_sweep(
    model: CouplingModel,
    final_cost: FinalCost,
    m0: Field,
    T_list: Sequence[float],
    *,
    dt: float,
    tol: float = 1e-8,
    max_iter: int = 100,
    delta: Optional[float] = None,
    K: Optional[float] = None,
    p: Optional[float] = None,
) -> list[SweepRow]:
    """Run the iteration across horizons at a fixed time-step size.

    Every horizon reuses the spatial layout of ``m0`` and (up to rounding
    to a whole number of steps) the same ``dt``, so the per-horizon
    contraction factors are comparable.  A final cost depends only on that
    layout, so the one ``final_cost`` serves every horizon.  Before any
    horizon runs, every grid is built and the first gets the checks
    :func:`picard_solve` makes before its first sweep, so inadmissible data
    or an unusable step (``T / dt`` not finite, or a per-horizon step that
    underflows) raise ``ValueError`` up front.  The horizons then run one
    after another; a failure inside one is captured into its row (status
    ``"error"``) instead of aborting the sweep, and rows come back in the
    order of ``T_list``.
    """
    if not T_list:
        raise ValueError("T_list must not be empty")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not all(0 < T < math.inf for T in T_list):
        raise ValueError(f"every horizon must be positive and finite, got {list(T_list)}")
    steps = [T / dt for T in T_list]
    if not all(math.isfinite(s) for s in steps):
        raise ValueError(f"the time step {dt!r} is too small for the horizons {list(T_list)}")
    grids = [
        TorusGrid(dim=m0.grid.dim, n=m0.grid.n, nt=max(2, int(round(s))), T=float(T))
        for T, s in zip(T_list, steps)
    ]
    _checked_inputs(model, final_cost, m0, grids[0], tol, max_iter, delta, K, p)

    def run_one(grid: TorusGrid) -> SweepRow:
        start = time.perf_counter()
        try:
            report = picard_solve(
                model, final_cost, m0.with_grid(grid), grid,
                tol=tol, max_iter=max_iter, delta=delta, K=K, p=p,
            )
        except Exception as exc:  # noqa: BLE001 - captured into the row
            return SweepRow(
                T=grid.T, nt=grid.nt, status="error", iterations=0,
                final_distance=math.nan, max_gamma=math.nan, min_m=math.nan,
                detrunc_ok=False, error=f"{type(exc).__name__}: {exc}",
                runtime=time.perf_counter() - start,
            )
        return SweepRow(
            T=grid.T, nt=grid.nt, status=report.status,
            iterations=report.iterations,
            final_distance=report.final_distance,
            max_gamma=report.max_gamma,
            min_m=report.bounds["min_m"],
            detrunc_ok=report.detrunc_ok,
            error=report.error,
            runtime=time.perf_counter() - start,
        )

    return [run_one(grid) for grid in grids]

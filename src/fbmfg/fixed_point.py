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

with ``p = dim + 3`` by default.  Each iterate's gradients and Hessian are
evaluated once and shared by the next sweep's sources, the row norms, the
monitors and the final checks, and so are the gradient magnitudes: the
clamps read them instead of recomputing them, and a clamp that cuts
nothing passes its argument through, so the clamps of a de-truncated run
copy nothing.  The distance takes the stencils of the differences
themselves, once each, through the norm kernel
:func:`~fbmfg.torus_grid.stack_norms`: it builds only the gradient and
Hessian magnitudes of ``du`` and the gradient magnitude of ``dm``, one
component or entry at a time, the Hessian on slices ``0 .. nt-1`` only,
with no gradient or Hessian tensor of the differences.  A sweep holds
little else: it consumes the old pair's derivative cache as each entry's
last reader returns (``Dm``, ``|Dm|`` once ``G`` is built, ``D2u`` after the
forward march, ``Du``, ``|Du|`` once ``F`` is built), and the old pair goes
before the row.  Every row
and iterate is bitwise what the tensor formulas give.  The residual
certificate of the final pair is the march check's step residual
(:func:`~fbmfg.parabolic._step_residuals`) with the untruncated sources,
divided by ``dt``, so each step's discrete equation is written once.  Divergence is declared after five consecutive increases
of ``d`` (or any non-finite value); exhausting the iteration budget
without meeting the tolerance is reported as its own status, since near a
critical horizon the factors hover just below one and the iteration
stalls rather than blows up.  A sweep that fails (a final cost leaving its
domain, a non-finite march) ends the run with status
``"error"``; the rows so far and the last good pair are kept.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .models import CouplingModel, FinalCost
from .parabolic import (ParabolicProblem, SolverError, _reverse_in_time, _step_residuals,
                        solve_backward, solve_forward)

# norm_C1, norm_C10, norm_W21p and time_derivative are not called here; they
# stay imported because benchmark/tracing.py wraps the torus_grid names it
# finds in this module.
from .torus_grid import (
    Field,
    SpaceTimeField,
    TorusGrid,
    gradient_magnitude,
    gradient_values,
    hessian_magnitude,
    hessian_values,
    norm_C1,
    norm_C10,
    norm_C10_values,
    norm_W21p,
    norm_W21p_values,
    stack_norms,
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
    """One iterate pair: value function and density on the same grid.

    The centered derivatives ``Du``, ``D2u`` and ``Dm`` of every slice and
    the gradient magnitudes ``Du_mag``, ``Dm_mag`` are evaluated on first
    use and kept, so the fields must not be modified in place afterwards.
    """

    u: SpaceTimeField
    m: SpaceTimeField

    def __post_init__(self):
        if self.u.grid != self.m.grid:
            raise ValueError("iterate components live on different grids")

    @property
    def grid(self) -> TorusGrid:
        return self.u.grid

    @cached_property
    def Du(self) -> np.ndarray:
        return gradient_values(self.u.values, self.grid.h, self.grid.dim)

    @cached_property
    def D2u(self) -> np.ndarray:
        return hessian_values(self.u.values, self.grid.h, self.grid.dim)

    @cached_property
    def Dm(self) -> np.ndarray:
        return gradient_values(self.m.values, self.grid.h, self.grid.dim)

    @cached_property
    def Du_mag(self) -> np.ndarray:
        return gradient_magnitude(self.Du)

    @cached_property
    def Dm_mag(self) -> np.ndarray:
        return gradient_magnitude(self.Dm)


def initial_state(grid: TorusGrid, m0: Field, Dm0: Optional[np.ndarray] = None) -> IterateState:
    """Starting pair: zero value function, density frozen at its datum.

    Its derivatives take no stencil: ``Du``, ``D2u`` are zero and ``Dm``
    repeats the gradient ``Dm0`` of ``m0`` (taken here unless given)."""
    state = IterateState(u=SpaceTimeField.zeros(grid), m=SpaceTimeField.constant_in_time(m0, grid))
    if Dm0 is None:
        Dm0 = gradient_values(m0.values, grid.h, grid.dim)
    Dm = np.repeat(Dm0[:, np.newaxis], grid.nt + 1, axis=1)
    vars(state).update(Du=np.zeros_like(Dm), D2u=np.zeros((grid.dim,) + Dm.shape), Dm=Dm)
    return state


def iterate_distance(a: IterateState, b: IterateState, p: float) -> float:
    """The contraction metric ``|du|_W21p + |du|_C1 + |dm|_C1``.

    Equal to ``norm_W21p(du, p) + norm_C10(du) + norm_C10(dm)``: the norm
    kernel takes the stencils of the differences themselves, once each,
    and builds only their magnitudes.
    """
    grid = a.grid
    (c10_m,) = stack_norms(a.m.values - b.m.values, grid)
    c10_u, w21p_u = stack_norms(a.u.values - b.u.values, grid, p)
    return w21p_u + c10_u + c10_m


def apply_T(
    model: CouplingModel,
    final_cost: FinalCost,
    m0: Field,
    state: IterateState,
    trunc: TruncationParams,
    *,
    coordinates: Optional[tuple] = None,
) -> IterateState:
    """One sweep of the solution operator: forward density, backward value.

    Each truncated source is evaluated once, on the whole space-time stack:
    the forward solve sees the incoming pair everywhere, the backward solve
    sees the incoming value function but the *new* density (and the final
    condition is built from the new final density).  The datum slices pass
    through the linear solves untouched, so ``m(0) = m0`` and
    ``u(T) = h[m(T)]`` hold exactly on the output.  The incoming pair's
    derivatives and gradient magnitudes come from its cache, and the sweep
    consumes that cache: ``Dm`` and ``Dm_mag`` leave it once ``G`` is built,
    ``D2u`` once the forward march is done, ``Du`` and ``Du_mag`` once ``F``
    is built.  A later read recomputes them, bitwise.  The new density's gradient and its magnitude are handed
    on to the returned pair.  ``coordinates`` is the grid's ``(x, t)``,
    built here unless given; a solve hands the same pair to every sweep, so
    a model may keep what it derives from them.
    """
    grid = state.grid
    F_hat, G_hat = wrap_model(model.F, model.G, trunc)
    x, t = grid.space_time_coordinates() if coordinates is None else coordinates
    u_old, m_old = state.u.values, state.m.values
    cache = vars(state)

    # Each source stack is dropped once its march ends, each cached
    # derivative once its last reader has returned.  The Hessian waits for
    # the forward march: released together with Dm, its room at the top of
    # the heap got trimmed and regrown every sweep, which took the minor page
    # faults of a 2D n=32 nt=64 solve from 1.6k to 5.5k.
    source = G_hat(u_old, m_old, state.Du, state.Dm, state.D2u, x, t,
                   Du_mag=state.Du_mag, Dm_mag=state.Dm_mag)
    for name in ("Dm", "Dm_mag"):
        cache.pop(name)
    m_new = solve_forward(ParabolicProblem(
        grid, diffusion=model.diffusion_values(grid, "m"), source=source, initial=m0,
    ))
    del source
    cache.pop("D2u")

    Dm_new = gradient_values(m_new.values, grid.h, grid.dim)
    Dm_new_mag = gradient_magnitude(Dm_new)
    source = F_hat(u_old, m_new.values, state.Du, Dm_new, x, t,
                   Du_mag=state.Du_mag, Dm_mag=Dm_new_mag)
    for name in ("Du", "Du_mag"):
        cache.pop(name)
    u_new = solve_backward(ParabolicProblem(
        grid, diffusion=model.diffusion_values(grid, "u"), source=source,
        final=final_cost(m_new.slice_field(grid.nt)),
    ))
    del source
    new_state = IterateState(u=u_new, m=m_new)
    vars(new_state).update(Dm=Dm_new, Dm_mag=Dm_new_mag)  # pre-fill the cache
    return new_state


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


def _iteration_row(
    k: int, d: float, gamma: float, state: IterateState, p: float
) -> IterationRow:
    """The row of sweep ``k``; the norms read the new pair's cached derivatives.

    ``max |Du|`` is reduced once, for ``max_Du`` and for ``|u|_C10`` (the
    sum :func:`~fbmfg.torus_grid.norm_C10_values` forms)."""
    grid, u = state.grid, state.u.values
    hess_mag = hessian_magnitude(state.D2u[:, :, :-1])
    max_Du = np.max(state.Du_mag)
    c10_u = float(np.max(np.abs(u)) + max_Du)
    w21p_u = norm_W21p_values(u, state.Du_mag[:-1], hess_mag, grid, p)
    # Freed before the density's norms: held longer, it raised the peak RSS
    # of a 2D congestion run with the mass audit (n=32, nt=64) by 0.3 MiB.
    del hess_mag
    c10_m = norm_C10_values(state.m.values, state.Dm_mag)
    return IterationRow(
        k, d, gamma, w21p_u, c10_u, c10_m,
        min_m=float(np.min(state.m.values)),
        max_Du=float(max_Du),
    )


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


def _detrunc_check(state: IterateState, K: float,
                   row: Optional[IterationRow] = None) -> tuple[bool, tuple[str, ...], dict]:
    """The clamp bounds of the final pair; ``row``, the pair's own row, lends its reductions."""
    u, m = state.u.values, state.m.values
    bounds = {
        "max_abs_u": float(np.max(np.abs(u))),
        "min_m": float(np.min(m)) if row is None else row.min_m,
        "max_m": float(np.max(m)),
        "max_Du": float(np.max(state.Du_mag)) if row is None else row.max_Du,
        "max_Dm": float(np.max(state.Dm_mag)),
    }
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
    return not failures, tuple(failures), bounds


def _pde_residual_stacks(
    model: CouplingModel, state: IterateState, coordinates: Optional[tuple] = None,
) -> tuple[np.ndarray, ...]:
    """Residual stacks ``(u, m)`` of the *untruncated* equations on a pair.

    Each is the step residual that the march check reduces
    (:func:`~fbmfg.parabolic._step_residuals`), taken with the untruncated
    source and divided by ``dt``: the value equation at slices ``0 .. nt-1``
    against the forward difference, the density equation at slices
    ``1 .. nt`` against the backward difference.  At an exact fixed point
    both are round-off.  The pair's cached derivatives are consumed as
    their last reader returns, as :func:`apply_T` consumes them: ``G``
    is built first, then ``D2u`` goes, then ``F``, then ``Du`` and ``Dm``.
    ``coordinates`` is the grid's ``(x, t)``, built here unless given.
    """
    grid = state.grid
    cache = vars(state)
    # Contiguous, so that only the reversed view of u reads as a backward march.
    u, m = (np.ascontiguousarray(f.values) for f in (state.u, state.m))
    x, t = grid.space_time_coordinates() if coordinates is None else coordinates
    density_source = model.G(u, m, state.Du, state.Dm, state.D2u, x, t)
    cache.pop("D2u")
    value = ParabolicProblem(grid, model.diffusion_values(grid, "u"),
                             source=model.F(u, m, state.Du, state.Dm, x, t))
    for name in ("Du", "Dm"):
        cache.pop(name)
    res_u = _step_residuals(_reverse_in_time(value), u[::-1])[0]
    del value
    res_u /= grid.dt
    density = ParabolicProblem(grid, model.diffusion_values(grid, "m"), source=density_source)
    del density_source
    res_m = _step_residuals(density, m)[0]
    res_m /= grid.dt
    return res_u, res_m


def _pde_residuals(model: CouplingModel, state: IterateState,
                   coordinates: Optional[tuple] = None) -> dict:
    """Sups of :func:`_pde_residual_stacks` on the final pair.

    Sources that reject the pair (``ValueError`` or ``ArithmeticError``, e.g.
    a density that left its domain after divergence) yield NaN residuals and
    a ``"reason"`` naming the error; any other exception propagates.
    """
    try:
        with np.errstate(all="ignore"):
            res_u, res_m = _pde_residual_stacks(model, state, coordinates)
    except (ValueError, ArithmeticError) as exc:
        return {"u": math.nan, "m": math.nan, "reason": f"{type(exc).__name__}: {exc}"}
    return {"u": float(np.max(np.abs(res_u))), "m": float(np.max(np.abs(res_m)))}


def _checked_inputs(model: CouplingModel, final_cost: FinalCost, m0: Field, grid: TorusGrid,
                    tol: float, max_iter: int, delta: Optional[float], K: Optional[float],
                    p: Optional[float]) -> tuple[CouplingModel, float, float, TruncationParams]:
    """``(model, delta, p, truncation)`` of a solve with defaults filled in, or ``ValueError``.

    The model comes back with both diffusions evaluated on ``grid`` (a callable
    depends on nothing else), each checked as a march takes it."""
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
    model = replace(model, diffusion_u=model.diffusion_values(grid, "u"),
                    diffusion_m=model.diffusion_values(grid, "m"))
    for diffusion in (model.diffusion_u, model.diffusion_m):
        ParabolicProblem(grid, diffusion)
    return model, delta, p, select_K(m0, final_cost.L_h, final_cost.C0, delta, K)


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
    coordinates = grid.space_time_coordinates()
    rows: list[IterationRow] = []
    m1_violations: list[int] = []
    status = "max_iter"
    error = ""
    increases = 0
    for k in range(1, max_iter + 1):
        try:
            candidate = apply_T(model, final_cost, m0, state, trunc, coordinates=coordinates)
        except (ValueError, ArithmeticError, SolverError) as exc:
            status = "error"
            error = f"sweep {k}: {type(exc).__name__}: {exc}"
            break
        # The sweep consumed the old pair's derivatives; only the distance
        # reads its values.  The new pair's derivatives, which the row and
        # the next sweep read, first take the room the distance left; then
        # the old pair goes, before the row.  Released before them, the old
        # values let the heap top be trimmed and regrown every sweep: six
        # times the minor page faults per solve.
        d = iterate_distance(candidate, state, p)
        candidate.Du_mag, candidate.D2u
        state = candidate
        gamma = d / rows[-1].distance if rows else math.nan
        row = _iteration_row(k, d, gamma, state, p)
        rows.append(row)
        if row.norm_u_c10 > M1 or row.norm_m_c10 > M1:
            m1_violations.append(k)
        if not math.isfinite(d):
            status = "diverged"
            break
        if d <= tol:
            status = "converged"
            break
        if len(rows) >= 2 and d > rows[-2].distance:
            increases += 1
            if increases >= 5:
                status = "diverged"
                break
        else:
            increases = 0

    # The final pair is the one of the last row, if any sweep succeeded.
    detrunc_ok, failures, bounds = _detrunc_check(state, trunc.K, rows[-1] if rows else None)
    for name in ("Du_mag", "Dm_mag"):  # the residuals read no magnitude
        vars(state).pop(name, None)
    # The residuals consume the rest of the cache.
    residuals = _pde_residuals(model, state, coordinates)
    return IterationReport(
        status=status,
        rows=tuple(rows),
        # A fresh pair, so the report does not hold the derivative cache.
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

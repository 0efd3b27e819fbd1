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
themselves, once each.  Divergence is declared after five
consecutive increases of ``d`` (or any non-finite value); exhausting the
iteration budget without meeting the tolerance is reported as its own
status, since near a critical horizon the factors hover just below one and
the iteration stalls rather than blows up.  A sweep that fails (a final
cost leaving its domain, a non-finite march) ends the run with status
``"error"``; the rows so far and the last good pair are kept.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .models import CouplingModel, FinalCost
from .parabolic import ParabolicProblem, SolverError, solve_backward, solve_forward

# norm_C1, norm_C10 and norm_W21p are not called here; they stay imported
# because benchmark/tracing.py wraps the torus_grid names it finds in this
# module.
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

    Equal to ``norm_W21p(du, p) + norm_C10(du) + norm_C10(dm)``, with each
    stencil of the differences evaluated once.
    """
    grid = a.grid
    du = a.u.values - b.u.values
    dm = a.m.values - b.m.values
    du_grad = gradient_magnitude(gradient_values(du, grid.h, grid.dim))
    du_hess = hessian_magnitude(hessian_values(du[:-1], grid.h, grid.dim))
    dm_grad = gradient_magnitude(gradient_values(dm, grid.h, grid.dim))
    return (
        norm_W21p_values(du, du_grad[:-1], du_hess, grid, p)
        + norm_C10_values(du, du_grad)
        + norm_C10_values(dm, dm_grad)
    )


def apply_T(
    model: CouplingModel,
    final_cost: FinalCost,
    m0: Field,
    state: IterateState,
    trunc: TruncationParams,
) -> IterateState:
    """One sweep of the solution operator: forward density, backward value.

    Each truncated source is evaluated once, on the whole space-time stack:
    the forward solve sees the incoming pair everywhere, the backward solve
    sees the incoming value function but the *new* density (and the final
    condition is built from the new final density).  The datum slices pass
    through the linear solves untouched, so ``m(0) = m0`` and
    ``u(T) = h[m(T)]`` hold exactly on the output.  The incoming pair's
    derivatives and gradient magnitudes come from its cache; the new
    density's gradient and its magnitude are handed on to the returned pair.
    """
    grid = state.grid
    F_hat, G_hat = wrap_model(model.F, model.G, trunc)
    x, t = grid.space_time_coordinates()
    u_old, m_old = state.u.values, state.m.values

    # Each problem (and so its source stack) is dropped once its march ends.
    m_new = solve_forward(ParabolicProblem(
        grid,
        diffusion=model.diffusion_values(grid, "m"),
        source=G_hat(u_old, m_old, state.Du, state.Dm, state.D2u, x, t,
                     Du_mag=state.Du_mag, Dm_mag=state.Dm_mag),
        initial=m0,
    ))

    Dm_new = gradient_values(m_new.values, grid.h, grid.dim)
    Dm_new_mag = gradient_magnitude(Dm_new)
    u_new = solve_backward(ParabolicProblem(
        grid,
        diffusion=model.diffusion_values(grid, "u"),
        source=F_hat(u_old, m_new.values, state.Du, Dm_new, x, t,
                     Du_mag=state.Du_mag, Dm_mag=Dm_new_mag),
        final=final_cost(m_new.slice_field(grid.nt)),
    ))
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
    """The row of sweep ``k``; the norms read the new pair's cached derivatives."""
    u, m = state.u.values, state.m.values
    Du_mag = state.Du_mag
    return IterationRow(
        iteration=k,
        distance=d,
        gamma=gamma,
        norm_u_w21p=norm_W21p_values(
            u, Du_mag[:-1], hessian_magnitude(state.D2u[:, :, :-1]), state.grid, p
        ),
        norm_u_c10=norm_C10_values(u, Du_mag),
        norm_m_c10=norm_C10_values(m, state.Dm_mag),
        min_m=float(np.min(m)),
        max_Du=float(np.max(Du_mag)),
    )


@dataclass(frozen=True)
class IterationReport:
    """Everything a run of :func:`picard_solve` established.

    ``status`` is one of ``"converged"`` (distance fell below tolerance),
    ``"diverged"`` (five consecutive increases or a non-finite distance),
    ``"max_iter"`` (budget exhausted first) or ``"error"`` (a sweep raised
    ``ValueError``, ``ArithmeticError`` or :class:`SolverError`; ``error``
    names the sweep and the message, ``rows`` end before it and
    ``final_state`` is the pair it started from).  The contraction
    evidence is ``gamma_history``; the clamp evidence is ``detrunc_ok``
    together with ``detrunc_failures`` naming any violated bound.
    ``m1_violations`` lists sweeps whose iterate left the a-priori ball of
    radius ``M1`` (monitoring only — the truncation, not this ball, is
    what keeps the iteration defined).
    """

    status: str
    iterations: int
    distance_history: tuple[float, ...]
    gamma_history: tuple[float, ...]
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
    def final_distance(self) -> float:
        return self.distance_history[-1] if self.distance_history else math.nan

    @property
    def max_gamma(self) -> float:
        return max(self.gamma_history) if self.gamma_history else math.nan

    @property
    def is_contraction(self) -> bool:
        """All observed per-sweep factors strictly below one."""
        return bool(self.gamma_history) and all(g < 1.0 for g in self.gamma_history)


def _detrunc_check(state: IterateState, K: float) -> tuple[bool, tuple[str, ...], dict]:
    u, m = state.u.values, state.m.values
    bounds = {
        "max_abs_u": float(np.max(np.abs(u))),
        "min_m": float(np.min(m)),
        "max_m": float(np.max(m)),
        "max_Du": float(np.max(state.Du_mag)),
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


def _pde_residuals(
    model: CouplingModel, state: IterateState
) -> dict:
    """Sup residuals of the *untruncated* equations on the final pair.

    Each equation is evaluated with the grid's own difference operators at
    its march's implicit level: the value equation at slices ``0 .. nt-1``
    against the forward difference, the density equation at slices
    ``1 .. nt`` against the backward difference.  At an exact fixed point
    both residuals are round-off.  A model whose sources reject the final
    pair (a ``ValueError`` or ``ArithmeticError``, e.g. a density that left
    its domain after divergence) yields NaN residuals and a ``"reason"``
    entry naming the error; any other exception propagates.
    """
    grid = state.grid
    u, m = state.u.values, state.m.values
    Du, Dm, D2u = state.Du, state.Dm, state.D2u
    with np.errstate(all="ignore"):
        x, t = grid.space_time_coordinates()
        D2m = hessian_values(m, grid.h, grid.dim)
        c_u, c_m = (
            ParabolicProblem(grid, model.diffusion_values(grid, eq)).coefficients()
            for eq in ("u", "m")
        )
        try:
            F = model.F(u, m, Du, Dm, x, t)
            G = model.G(u, m, Du, Dm, D2u, x, t)
        except (ValueError, ArithmeticError) as exc:
            return {"u": math.nan, "m": math.nan,
                    "reason": f"{type(exc).__name__}: {exc}"}
        # time_derivative's slice j - 1 is the backward difference at j.
        res_u = (-time_derivative(state.u) - np.sum(c_u * D2u, axis=(0, 1)) + F)[:-1]
        res_m = (
            time_derivative(state.m)[:-1] - np.sum(c_m * D2m, axis=(0, 1))[1:] + G[1:]
        )
    return {"u": float(np.max(np.abs(res_u))), "m": float(np.max(np.abs(res_m)))}


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
    relaxation: float = 1.0,
) -> IterationReport:
    """Iterate the two-stage sweep to a fixed point (or a verdict).

    ``delta`` is the positivity floor of the initial density and defaults
    to its actual minimum; the clamp level ``K`` is derived from the data
    and the final cost's constants unless given explicitly.  Each sweep
    appends one :class:`IterationRow`; the loop stops on convergence
    (``d <= tol``), on divergence (five consecutive increases of ``d`` or a
    non-finite value), on a failed sweep (status ``"error"``), or when
    ``max_iter`` sweeps are exhausted.  Inadmissible inputs raise
    ``ValueError`` before the first sweep.

    ``relaxation`` blends each sweep with the previous iterate
    (``new = old + w (sweep - old)``); the default ``w = 1`` is the plain
    iteration, which is the only setting for which the exact slice-datum
    identities hold.  Under-relaxation is exploratory: fixed points are
    unchanged, convergence behaviour may differ.
    """
    if m0.values.shape != grid.shape:
        raise ValueError(
            f"initial density shape {m0.values.shape} does not match grid {grid.shape}"
        )
    if not np.all(m0.values > 0.0):
        raise ValueError("initial density must be strictly positive")
    if not 0.0 < relaxation <= 1.0:
        raise ValueError(f"relaxation must lie in (0, 1], got {relaxation}")
    if delta is None:
        delta = float(np.min(m0.values))
    if p is None:
        p = grid.dim + 3.0
    m0 = m0.with_grid(grid)
    if K is None:
        trunc = select_K(m0, final_cost.L_h, final_cost.C0, delta)
    else:
        Dm0 = gradient_values(m0.values, grid.h, grid.dim)
        trunc = TruncationParams(
            K=float(K), delta=float(delta), L_h=final_cost.L_h, C0=final_cost.C0,
            m0_norm_C1=norm_C10_values(m0.values, gradient_magnitude(Dm0)),
            m0_gradient=Dm0,
        )
    M1 = 3.0 * ((final_cost.L_h + 1.0) * trunc.m0_norm_C1 + final_cost.C0)
    # A callable diffusion depends only on the grid: evaluate it once here.
    model = replace(model, diffusion_u=model.diffusion_values(grid, "u"),
                    diffusion_m=model.diffusion_values(grid, "m"))

    state = initial_state(grid, m0, trunc.m0_gradient)
    distances: list[float] = []
    gammas: list[float] = []
    rows: list[IterationRow] = []
    m1_violations: list[int] = []
    status = "max_iter"
    error = ""
    increases = 0
    for k in range(1, max_iter + 1):
        try:
            candidate = apply_T(model, final_cost, m0, state, trunc)
        except (ValueError, ArithmeticError, SolverError) as exc:
            status = "error"
            error = f"sweep {k}: {type(exc).__name__}: {exc}"
            break
        # Only the sweep reads the old pair's derivatives; release them.
        state = IterateState(u=state.u, m=state.m)
        if relaxation != 1.0:
            # Blending with the previous iterate keeps the slice data exact:
            # the sweep already matches them, so the update there is zero.
            new_state = IterateState(
                u=SpaceTimeField(
                    grid,
                    state.u.values
                    + relaxation * (candidate.u.values - state.u.values),
                ),
                m=SpaceTimeField(
                    grid,
                    state.m.values
                    + relaxation * (candidate.m.values - state.m.values),
                ),
            )
        else:
            new_state = candidate
        d = iterate_distance(new_state, state, p)
        gamma = d / distances[-1] if distances else math.nan
        distances.append(d)
        if k >= 2:
            gammas.append(gamma)
        row = _iteration_row(k, d, gamma, new_state, p)
        rows.append(row)
        if row.norm_u_c10 > M1 or row.norm_m_c10 > M1:
            m1_violations.append(k)
        state = new_state
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

    detrunc_ok, failures, bounds = _detrunc_check(state, trunc.K)
    residuals = _pde_residuals(model, state)
    return IterationReport(
        status=status,
        iterations=len(distances),
        distance_history=tuple(distances),
        gamma_history=tuple(gammas),
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
    equality so that rows computed serially and in a thread pool compare
    equal.
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
    final_cost: object,
    m0: Field,
    T_list: Sequence[float],
    *,
    dt: float,
    tol: float = 1e-8,
    max_iter: int = 100,
    delta: Optional[float] = None,
    K: Optional[float] = None,
    p: Optional[float] = None,
    relaxation: float = 1.0,
    workers: int = 1,
) -> list[SweepRow]:
    """Run the iteration across horizons at a fixed time-step size.

    Every horizon reuses the spatial layout of ``m0`` and (up to rounding
    to a whole number of steps) the same ``dt``, so the per-horizon
    contraction factors are comparable.  ``final_cost`` is either a
    :class:`FinalCost` or a callable ``grid -> FinalCost`` for costs whose
    kernel depends on the grid.  A failure inside one horizon is captured
    into its row (status ``"error"``) instead of aborting the sweep; rows
    come back in the order of ``T_list`` regardless of ``workers``.
    """
    if not T_list:
        raise ValueError("T_list must not be empty")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    dim, n = m0.grid.dim, m0.grid.n

    def run_one(T: float) -> SweepRow:
        start = time.perf_counter()
        nt = max(2, int(round(T / dt)))
        grid = TorusGrid(dim=dim, n=n, nt=nt, T=float(T))
        cost = final_cost if isinstance(final_cost, FinalCost) else final_cost(grid)
        try:
            report = picard_solve(
                model, cost, m0.with_grid(grid), grid,
                tol=tol, max_iter=max_iter, delta=delta, K=K, p=p,
                relaxation=relaxation,
            )
        except Exception as exc:  # noqa: BLE001 - captured into the row
            return SweepRow(
                T=float(T), nt=nt, status="error", iterations=0,
                final_distance=math.nan, max_gamma=math.nan, min_m=math.nan,
                detrunc_ok=False, error=f"{type(exc).__name__}: {exc}",
                runtime=time.perf_counter() - start,
            )
        return SweepRow(
            T=float(T), nt=nt, status=report.status,
            iterations=report.iterations,
            final_distance=report.final_distance,
            max_gamma=report.max_gamma,
            min_m=report.bounds["min_m"],
            detrunc_ok=report.detrunc_ok,
            error=report.error,
            runtime=time.perf_counter() - start,
        )

    if workers <= 1 or len(T_list) == 1:
        return [run_one(T) for T in T_list]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, T_list))

"""Exact eigenfunction-expansion solver for the linear backward-forward pair.

The system treated here couples a backward heat equation to a forward heat
equation through its source and through a scaled final condition:

    -u_t - Δu = 0,      m_t - Δm = Δu,      u(x,T) = α m(x,T),  m(x,0) = m0.

Expanding in the torus eigenbasis (1, cos(2πk·x), sin(2πk·x), with Laplace
eigenvalue λ = 4π²|k|²) decouples the problem into one two-point ODE system
per mode:

    -u_k' + λ u_k = 0,      m_k' + λ m_k = -λ u_k,
    u_k(T) = α m_k(T),      m_k(0) = m_{0k}.

Eliminating u_k gives m_k'' = λ² m_k, so m_k = A sinh(λt) + B cosh(λt) with
B = m_{0k} and A fixed by the coupled boundary condition

    λ (α+1) m_k(T) = -m_k'(T)
    =>  A = -B [(α+1) cosh(λT) + sinh(λT)] / [(α+1) sinh(λT) + cosh(λT)].

The denominator has a zero in T exactly when α < -2, at

    T_c(λ) = artanh(-1/(α+1)) / λ,

and at that horizon the mode — hence the whole problem whenever its datum
coefficient is nonzero — is unsolvable.  :func:`critical_times` evaluates
this horizon, :func:`solve_spectral` builds the per-mode solution (flagging
unsolvable modes instead of raising), and :func:`synthesize_fields` sums the
modes into grid fields for use as an oracle against the finite-difference
path.

All hyperbolic expressions are evaluated in overflow-safe form: with
E = exp(-2λT) the scaled denominator is

    D = 2 exp(-λT) [(α+1) sinh(λT) + cosh(λT)] = (α+2) - α E,

and the mode evolution becomes

    m_k(t) = B [ -α e^{λ(t-2T)} + (α+2) e^{-λt} ] / D,
    u_k(t) = 2 α B e^{λ(t-2T)} / D,

which stays finite for every t in [0, T] even at λT of several hundred.
The unsolvability test |D|/2 <= tol compares against a tolerance relative
to exp(λT), the natural scale of the raw denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .torus_grid import SpaceTimeField, TorusGrid

__all__ = [
    "ModeKey",
    "SpectralMode",
    "SpectralSolution",
    "mode_eigenvalue",
    "basis_function",
    "critical_times",
    "solve_spectral",
    "synthesize_fields",
    "DEFAULT_TOL_DENOM",
]

DEFAULT_TOL_DENOM = 1e-8

# A mode key is a signed integer per axis: k > 0 selects cos(2*pi*k*x),
# k < 0 selects sin(2*pi*|k|*x), k = 0 the constant; the basis function
# is the product of the one-axis factors.
ModeKey = Union[int, tuple[int, ...]]


def _normalize_key(key: ModeKey) -> tuple[int, ...]:
    if isinstance(key, (int, np.integer)):
        return (int(key),)
    key = tuple(int(k) for k in key)
    if not key:
        raise ValueError("mode key must have at least one axis")
    return key


def mode_eigenvalue(key: ModeKey) -> float:
    """Laplace eigenvalue ``4 pi^2 sum k_i^2`` of the basis function."""
    k = _normalize_key(key)
    return 4.0 * np.pi**2 * float(sum(ki * ki for ki in k))


def basis_function(key: ModeKey, coords: Sequence[np.ndarray]) -> np.ndarray:
    k = _normalize_key(key)
    if len(k) != len(coords):
        raise ValueError(f"mode key {k} does not match dimension {len(coords)}")
    out = np.ones_like(coords[0])
    for ki, x in zip(k, coords):
        if ki > 0:
            out = out * np.cos(2.0 * np.pi * ki * x)
        elif ki < 0:
            out = out * np.sin(2.0 * np.pi * (-ki) * x)
    return out


def critical_times(alpha: float, lambda_k: float) -> float | None:
    """Horizon at which the mode with eigenvalue ``lambda_k`` loses solvability.

    Returns ``artanh(-1/(alpha+1)) / lambda_k`` when ``alpha < -2``; for any
    ``alpha >= -2`` the denominator ``(alpha+1) sinh + cosh`` never vanishes
    on ``T > 0`` (at ``alpha = -1`` it is ``cosh``) and the result is None.
    """
    if not lambda_k > 0:
        raise ValueError(f"lambda_k must be positive, got {lambda_k}")
    if alpha < -2.0:
        return math.atanh(-1.0 / (alpha + 1.0)) / lambda_k
    return None


@dataclass(frozen=True)
class SpectralMode:
    """One mode of the expansion with its ODE coefficients."""

    key: tuple[int, ...]
    lam: float
    B: float  # cosh coefficient = datum coefficient m_{0k}
    A: float  # sinh coefficient (0 for the constant mode)
    solvable: bool
    alpha: float
    T: float
    _D_scaled: float = field(repr=False, default=1.0)

    def m_of_t(self, t) -> np.ndarray:
        """Density coefficient ``m_k(t)``, overflow-safe."""
        t = np.asarray(t, dtype=float)
        if self.lam == 0.0:
            return np.full_like(t, self.B)
        a, lam, T = self.alpha, self.lam, self.T
        return (
            self.B
            * (-a * np.exp(lam * (t - 2.0 * T)) + (a + 2.0) * np.exp(-lam * t))
            / self._D_scaled
        )

    def dm_dt(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.lam == 0.0:
            return np.zeros_like(t)
        a, lam, T = self.alpha, self.lam, self.T
        return (
            self.B
            * lam
            * (-a * np.exp(lam * (t - 2.0 * T)) - (a + 2.0) * np.exp(-lam * t))
            / self._D_scaled
        )

    def d2m_dt2(self, t) -> np.ndarray:
        return self.lam**2 * self.m_of_t(t)

    def u_of_t(self, t) -> np.ndarray:
        """Value coefficient ``u_k(t) = alpha m_k(T) exp(lam (t - T))``."""
        t = np.asarray(t, dtype=float)
        if self.lam == 0.0:
            return np.full_like(t, self.alpha * self.B)
        return (
            2.0
            * self.alpha
            * self.B
            * np.exp(self.lam * (t - 2.0 * self.T))
            / self._D_scaled
        )


@dataclass(frozen=True)
class SpectralSolution:
    alpha: float
    T: float
    dim: int
    modes: tuple[SpectralMode, ...]
    tol_denom: float

    @property
    def solvable(self) -> bool:
        return all(m.solvable for m in self.modes)

    def unsolvable_modes(self) -> list[SpectralMode]:
        return [m for m in self.modes if not m.solvable]


def solve_spectral(
    alpha: float,
    m0_coeffs: Iterable[tuple[ModeKey, float]],
    T: float,
    tol_denom: float = DEFAULT_TOL_DENOM,
) -> SpectralSolution:
    """Per-mode closed-form solution of the coupled linear system.

    ``m0_coeffs`` lists ``(mode key, datum coefficient)`` pairs; the datum is
    given directly in coefficient space, which keeps the oracle exact.  A
    mode whose denominator falls below ``tol_denom`` (relative to its
    ``exp(lam T)`` scale) with a nonzero datum is flagged unsolvable; the
    flag is data, not an exception.
    """
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    pairs = [(_normalize_key(k), float(c)) for k, c in m0_coeffs]
    if not pairs:
        raise ValueError("at least one mode is required")
    dims = {len(k) for k, _ in pairs}
    if len(dims) != 1:
        raise ValueError("all mode keys must share one dimension")
    modes = []
    for key, coeff in pairs:
        lam = mode_eigenvalue(key)
        if lam == 0.0:
            # Constant mode: u and m are flat in time and always solvable.
            modes.append(
                SpectralMode(key=key, lam=0.0, B=coeff, A=0.0, solvable=True,
                             alpha=alpha, T=T, _D_scaled=1.0)
            )
            continue
        E = math.exp(-2.0 * lam * T)
        D_scaled = (alpha + 2.0) - alpha * E        # = 2 e^{-lam T} [(a+1) sinh + cosh]
        N_scaled = (alpha + 2.0) + alpha * E        # = 2 e^{-lam T} [(a+1) cosh + sinh]
        degenerate = abs(D_scaled) / 2.0 <= tol_denom
        if degenerate and coeff != 0.0:
            modes.append(
                SpectralMode(key=key, lam=lam, B=coeff, A=np.nan, solvable=False,
                             alpha=alpha, T=T, _D_scaled=D_scaled)
            )
            continue
        if coeff == 0.0:
            # Identically-zero mode; avoid 0/0 against a (near-)degenerate scale.
            A, D_scaled = 0.0, 1.0
        else:
            A = -coeff * N_scaled / D_scaled
        modes.append(
            SpectralMode(key=key, lam=lam, B=coeff, A=A, solvable=True,
                         alpha=alpha, T=T, _D_scaled=D_scaled)
        )
    return SpectralSolution(
        alpha=alpha, T=T, dim=dims.pop(), modes=tuple(modes), tol_denom=tol_denom
    )


def synthesize_fields(
    sol: SpectralSolution, grid: TorusGrid
) -> tuple[SpaceTimeField, SpaceTimeField]:
    """Evaluate the partial sums ``u = sum u_k phi_k`` and ``m = sum m_k phi_k``.

    The summation order is the (deterministic) order of the mode list.
    Unsolvable input is rejected — there is nothing meaningful to sample.
    """
    if not sol.solvable:
        bad = [m.key for m in sol.unsolvable_modes()]
        raise ValueError(f"solution has unsolvable modes {bad}; cannot synthesize fields")
    if grid.dim != sol.dim:
        raise ValueError(f"grid dimension {grid.dim} does not match modes ({sol.dim})")
    if abs(grid.T - sol.T) > 1e-12 * max(1.0, sol.T):
        raise ValueError("grid horizon differs from the solved horizon")
    coords = grid.coordinates()
    times = grid.times()
    u = np.zeros((grid.nt + 1, *grid.shape))
    m = np.zeros((grid.nt + 1, *grid.shape))
    for mode in sol.modes:
        phi = basis_function(mode.key, coords)
        u += mode.u_of_t(times).reshape((-1,) + (1,) * grid.dim) * phi
        m += mode.m_of_t(times).reshape((-1,) + (1,) * grid.dim) * phi
    return SpaceTimeField(grid, u), SpaceTimeField(grid, m)

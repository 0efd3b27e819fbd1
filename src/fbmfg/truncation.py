"""Globally Lipschitz cutoffs and the truncated coupling functions.

The fixed-point map is only well defined once the nonlinearities are
composed with clamps that are the identity on the expected solution range
and globally Lipschitz outside it.  Three maps do the job:

- ``clamp_positive`` (density slot): hard clamp onto ``[1/K, K]``,
- ``clamp_symmetric`` (value slot): hard clamp onto ``[-K, K]``,
- ``clamp_vector`` (gradient slots): radial retraction onto ``|p| <= K``,
  which preserves the direction of the gradient (the drift direction).

All three are idempotent and 1-Lipschitz, and hard clamps make the final
de-truncation check exact: if the computed solution never leaves the
identity region the clamped and unclamped systems coincide pointwise.

A clamp that changes nothing copies nothing: an array already inside the
identity region comes back as a read-only view of itself, so a model that
writes into its arguments fails instead of corrupting the caller's array.
``clamp_vector`` reads the magnitude ``|p|`` from the caller when it holds
one (the solver keeps each iterate's gradient magnitudes), so a sweep of a
de-truncated run clamps by a few reductions.

``select_K`` fixes the threshold from the initial density, the final-cost
constants ``(L_h, C0)`` and the density floor ``delta``:

    K = max( 2*|m0|^(1), 2*(L_h*|m0|^(1) + C0), 2/delta )

which is the smallest threshold that leaves room both for the density
(bounded below by ``delta``, so ``1/K <= delta/2``) and for the terminal
value ``h[m]`` (bounded by ``L_h*|m0|^(1) + C0`` up to a factor 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .torus_grid import Field, gradient_magnitude, gradient_values, norm_C10_values

__all__ = [
    "TruncationParams",
    "select_K",
    "clamp_positive",
    "clamp_symmetric",
    "clamp_vector",
    "wrap_model",
]


def _required_K(m0_norm_C1: float, L_h: float, C0: float, delta: float) -> float:
    return max(2.0 * m0_norm_C1, 2.0 * (L_h * m0_norm_C1 + C0), 2.0 / delta)


@dataclass(frozen=True)
class TruncationParams:
    """Threshold ``K``, density floor ``delta`` and the final-cost constants.

    ``m0_norm_C1`` records the ``|m0|^(1)`` norm the threshold was derived
    from, so the defining inequality stays checkable on the instance;
    ``m0_gradient`` is the gradient of ``m0`` behind it, when known.
    """

    K: float
    delta: float
    L_h: float
    C0: float
    m0_norm_C1: float
    m0_gradient: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (self.L_h >= 0 and self.C0 >= 0):  # NaN fails too
            raise ValueError(
                f"L_h and C0 must be nonnegative numbers, got L_h={self.L_h}, C0={self.C0}"
            )
        required = _required_K(self.m0_norm_C1, self.L_h, self.C0, self.delta)
        if not self.K >= required * (1.0 - 1e-12):
            raise ValueError(
                f"K={self.K} must reach the admissible threshold {required}"
            )
        if not self.K < math.inf:
            # Every clamp at an infinite level is the identity, so the
            # de-truncation check would certify nothing.
            raise ValueError(f"K={self.K} must be finite")


def select_K(
    m0: Field, L_h: float, C0: float, delta: float, K: Optional[float] = None
) -> TruncationParams:
    """Truncation parameters for the given data.

    ``K`` defaults to the smallest admissible threshold; an explicit ``K``
    is kept as given, after the same checks.

    Raises
    ------
    ValueError
        If ``m0`` dips below the declared floor ``delta`` (the positivity
        assumption on the initial density fails), or if an explicit ``K``
        is below the admissible threshold or not finite.
    """
    if not (delta > 0):
        raise ValueError(f"delta must be positive, got {delta}")
    m0_min = float(np.min(m0.values))
    if m0_min < delta:
        raise ValueError(
            f"initial density violates its floor: min(m0)={m0_min} < delta={delta}"
        )
    grad = gradient_values(m0.values, m0.grid.h, m0.grid.dim)
    norm1 = norm_C10_values(m0.values, gradient_magnitude(grad))
    if K is None:
        K = _required_K(norm1, L_h, C0, delta)
    return TruncationParams(
        K=float(K), delta=delta, L_h=L_h, C0=C0, m0_norm_C1=norm1, m0_gradient=grad
    )


def _unchanged(x: np.ndarray) -> np.ndarray:
    """``x`` itself, as a read-only view."""
    view = x.view()
    view.flags.writeable = False
    return view


def _inside(x, lower: float, upper: float) -> bool:
    """Whether ``x`` is a nonempty float array with every entry in ``[lower, upper]``.

    A NaN entry fails the test, as do scalars and other dtypes: those take
    the clamp formula, which keeps their result types.
    """
    return (
        isinstance(x, np.ndarray) and x.dtype == np.float64 and x.size > 0
        and lower <= x.min() and x.max() <= upper
    )


def clamp_positive(x, K: float):
    """Hard clamp onto ``[1/K, K]``; identity there, 1-Lipschitz everywhere.

    A float array already inside comes back unchanged, as a read-only view.
    """
    if not K >= 1.0:
        raise ValueError(f"clamp_positive needs K >= 1, got {K}")
    if _inside(x, 1.0 / K, K):
        return _unchanged(x)
    return np.minimum(np.maximum(x, 1.0 / K), K)


def clamp_symmetric(x, K: float):
    """Hard clamp onto ``[-K, K]``; a float array inside comes back as a read-only view."""
    if not K > 0:
        raise ValueError(f"clamp_symmetric needs K > 0, got {K}")
    if _inside(x, -K, K):
        return _unchanged(x)
    return np.minimum(np.maximum(x, -K), K)


def clamp_vector(p: np.ndarray, K: float, magnitude: Optional[np.ndarray] = None) -> np.ndarray:
    """Radial retraction onto the ball ``|p| <= K``.

    ``p`` has the component axis first (shape ``(dim, ...)``); vectors with
    ``|p| <= K`` pass through unchanged, longer ones are rescaled onto the
    sphere without changing direction.  ``magnitude`` is ``|p|`` when the
    caller already holds it (as :func:`~fbmfg.torus_grid.gradient_magnitude`
    gives it); it is not checked.  When no entry exceeds ``K``, ``p`` comes
    back as a read-only view; a NaN magnitude counts as not exceeding.
    """
    if not K > 0:
        raise ValueError(f"clamp_vector needs K > 0, got {K}")
    p = np.asarray(p, dtype=float)
    # Summed along the component axis, so a single (dim,) vector works too.
    mag = np.sqrt(np.sum(p * p, axis=0)) if magnitude is None else magnitude
    over = mag > K
    if not np.any(over):
        return _unchanged(p)
    return p * np.divide(K, mag, out=np.ones_like(mag), where=over)


def wrap_model(
    F: Callable[..., np.ndarray],
    G: Callable[..., np.ndarray],
    params: TruncationParams,
) -> tuple[Callable[..., np.ndarray], Callable[..., np.ndarray]]:
    """Compose the coupling functions with the clamps.

    ``F(u, m, Du, Dm, x, t)`` and ``G(u, m, Du, Dm, D2u, x, t)`` are
    evaluated on clamped arguments: the value slot through the symmetric
    clamp, the density slot through the positive clamp, both gradient slots
    through the radial retraction.  The second-derivative slot of ``G`` is
    passed through untouched (as a read-only view), which keeps the wrapped
    ``G`` affine in it.  The optional keywords ``Du_mag`` and ``Dm_mag`` are
    the magnitudes of ``Du`` and ``Dm`` when the caller holds them.
    """
    K = params.K

    def F_hat(u, m, Du, Dm, x, t, *, Du_mag=None, Dm_mag=None):
        return F(
            clamp_symmetric(u, K),
            clamp_positive(m, K),
            clamp_vector(Du, K, Du_mag),
            clamp_vector(Dm, K, Dm_mag),
            x,
            t,
        )

    def G_hat(u, m, Du, Dm, D2u, x, t, *, Du_mag=None, Dm_mag=None):
        return G(
            clamp_symmetric(u, K),
            clamp_positive(m, K),
            clamp_vector(Du, K, Du_mag),
            clamp_vector(Dm, K, Dm_mag),
            _unchanged(np.asarray(D2u)),
            x,
            t,
        )

    return F_hat, G_hat

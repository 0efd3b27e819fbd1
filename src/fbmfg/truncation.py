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

``select_K`` fixes the threshold from the initial density, the final-cost
constants ``(L_h, C0)`` and the density floor ``delta``:

    K = max( 2*|m0|^(1), 2*(L_h*|m0|^(1) + C0), 2/delta )

which is the smallest threshold that leaves room both for the density
(bounded below by ``delta``, so ``1/K <= delta/2``) and for the terminal
value ``h[m]`` (bounded by ``L_h*|m0|^(1) + C0`` up to a factor 2).
"""

from __future__ import annotations

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
        if self.L_h < 0 or self.C0 < 0:
            raise ValueError("L_h and C0 must be nonnegative")
        required = _required_K(self.m0_norm_C1, self.L_h, self.C0, self.delta)
        if self.K < required * (1.0 - 1e-12):
            raise ValueError(
                f"K={self.K} is below the admissible threshold {required}"
            )


def select_K(m0: Field, L_h: float, C0: float, delta: float) -> TruncationParams:
    """Smallest admissible truncation threshold for the given data.

    Raises
    ------
    ValueError
        If ``m0`` dips below the declared floor ``delta`` (the positivity
        assumption on the initial density fails).
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
    K = _required_K(norm1, L_h, C0, delta)
    return TruncationParams(K=K, delta=delta, L_h=L_h, C0=C0, m0_norm_C1=norm1, m0_gradient=grad)


def clamp_positive(x, K: float):
    """Hard clamp onto ``[1/K, K]``; identity there, 1-Lipschitz everywhere."""
    if not K >= 1.0:
        raise ValueError(f"clamp_positive needs K >= 1, got {K}")
    return np.minimum(np.maximum(x, 1.0 / K), K)


def clamp_symmetric(x, K: float):
    """Hard clamp onto ``[-K, K]``."""
    if not K > 0:
        raise ValueError(f"clamp_symmetric needs K > 0, got {K}")
    return np.minimum(np.maximum(x, -K), K)


def clamp_vector(p: np.ndarray, K: float) -> np.ndarray:
    """Radial retraction onto the ball ``|p| <= K``.

    ``p`` has the component axis first (shape ``(dim, ...)``); vectors with
    ``|p| <= K`` pass through unchanged, longer ones are rescaled onto the
    sphere without changing direction.
    """
    if not K > 0:
        raise ValueError(f"clamp_vector needs K > 0, got {K}")
    p = np.asarray(p, dtype=float)
    mag = np.sqrt(np.sum(p * p, axis=0))
    factor = np.ones_like(mag)
    over = mag > K
    factor[over] = K / mag[over]
    return p * factor


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
    passed through untouched, which keeps the wrapped ``G`` affine in it.
    """
    K = params.K

    def F_hat(u, m, Du, Dm, x, t):
        return F(
            clamp_symmetric(u, K),
            clamp_positive(m, K),
            clamp_vector(Du, K),
            clamp_vector(Dm, K),
            x,
            t,
        )

    def G_hat(u, m, Du, Dm, D2u, x, t):
        return G(
            clamp_symmetric(u, K),
            clamp_positive(m, K),
            clamp_vector(Du, K),
            clamp_vector(Dm, K),
            D2u,
            x,
            t,
        )

    return F_hat, G_hat

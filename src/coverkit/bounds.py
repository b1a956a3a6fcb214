"""Closed-form coverage bounds and corrected levels.

All logarithms are natural, matching the Hoeffding / DKW usage behind the
results. Values are returned unclamped so callers can see when a bound is
vacuous (an upper bound at or above 1, a lower floor at or below 0); the
small helpers here flag those cases instead of hiding them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "AdversarialFloor",
    "split_pac_bound",
    "cvplus_pac_bound",
    "adversarial_floor",
    "corrected_alpha_split",
]


def _check_level(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly in (0, 1), got {value}")


def split_pac_bound(alpha: float, delta: float, n1: int) -> float:
    """High-probability miscoverage bound for split conformal.

    With probability at least 1 - delta over the training draw, the
    training-conditional miscoverage of split conformal with an n1-point
    holdout is at most alpha + sqrt(ln(1/delta) / (2 n1)).

    The underlying result is stated for delta in (0, 0.5]; deltas up to 1
    are computed anyway but flagged with a warning (at delta = 1 the
    correction vanishes and the bound degenerates to alpha).
    """
    _check_level("alpha", alpha)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if n1 < 1:
        raise ValueError("n1 must be at least 1")
    if delta > 0.5:
        warnings.warn(
            f"delta={delta} is outside the guarantee's stated range (0, 0.5]; "
            "the bound is computed but not covered by it",
            stacklevel=2,
        )
    return alpha + math.sqrt(math.log(1.0 / delta) / (2.0 * n1))


def cvplus_pac_bound(alpha: float, delta: float, K: int, m: int) -> float:
    """High-probability miscoverage bound for K-fold cv+ with fold size m.

    With probability at least 1 - delta, training-conditional miscoverage
    is at most 2*alpha + sqrt(2 ln(K/delta) / m). Loose at small fold
    sizes: at K=20, m=25 it is close to 0.9, i.e. nearly vacuous.
    """
    _check_level("alpha", alpha)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if K < 2:
        raise ValueError("K must be at least 2")
    if m < 1:
        raise ValueError("m must be at least 1")
    return 2.0 * alpha + math.sqrt(2.0 * math.log(K / delta) / m)


@dataclass(frozen=True)
class AdversarialFloor:
    """Lower bound on the catastrophic-trial probability, with vacuity flag."""

    value: float
    vacuous: bool


def adversarial_floor(alpha: float, n: int) -> AdversarialFloor:
    """Guaranteed frequency of near-total coverage collapse: alpha - 6*sqrt(ln n / n).

    For full conformal and jackknife+ there exist symmetric deterministic
    algorithms whose training-conditional miscoverage is at least 1 - 1/n^2
    with at least this probability. The value is returned unclamped; it is
    negative (vacuous) until n is in the tens of thousands at alpha = 0.1.
    """
    _check_level("alpha", alpha)
    if n < 2:
        raise ValueError("n must be at least 2")
    value = alpha - 6.0 * math.sqrt(math.log(n) / n)
    return AdversarialFloor(value=value, vacuous=value <= 0.0)


def corrected_alpha_split(alpha: float, delta: float, n1: int) -> float | None:
    """Level to run split conformal at so miscoverage <= alpha w.p. >= 1 - delta.

    Returns alpha - sqrt(ln(1/delta) / (2 n1)) when positive, otherwise None
    (the holdout is too small for the requested confidence).
    """
    corrected = alpha - (split_pac_bound(alpha, delta, n1) - alpha)
    return corrected if corrected > 0.0 else None

"""Balanced-accuracy upper bounds for adversaries attacking an
epsilon-differentially-private recourse generator.

Two closed forms: the simple bound 1/2 + (1 - e^-eps)/2 and the refined
small-epsilon bound 1/2 + (2 - e^-eps)(1 - e^-eps)/4, which never exceeds
the simple one. This module only evaluates the bounds, and `cli dp-bound`
writes them as CSV; it does not build a private recourse mechanism.

Reading the bound: since BA = (TPR + TNR)/2, a cap of BA <= b means that
at false-positive rate alpha the attacker's TPR is at most
2b - 1 + alpha, i.e. close to alpha itself for small epsilon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DpBound:
    epsilon: float
    ba_bound: float
    refined_ba_bound: float


def dp_ba_bound(epsilon: float) -> DpBound:
    """Both balanced-accuracy bounds at privacy level epsilon >= 0."""
    if not epsilon >= 0:  # also rejects NaN
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    e = math.exp(-epsilon)
    simple = 0.5 + (1.0 - e) / 2.0
    refined = 0.5 + (2.0 - e) * (1.0 - e) / 4.0
    return DpBound(
        epsilon=epsilon,
        ba_bound=min(simple, 1.0),
        refined_ba_bound=min(refined, 1.0),
    )


"""Attack evaluation: ROC sweep, AUC, balanced accuracy, TPR at fixed FPR,
and log-ROC CSV export.

The sweep visits every unique score once (ties collapse to a single step),
so curves are invariant under strictly monotone transforms of the scores.
TPR@FPR uses the conservative step convention: the TPR at the largest
achieved FPR not exceeding the target, never interpolated.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

LOG_FPR_CLAMP = 1e-5
REPORT_FPRS = (0.1, 0.01)  # runner.write_summary and cli's run command print these


class SingleClassError(ValueError):
    """ROC needs both members and non-members."""


@dataclass(frozen=True)
class RocCurve:
    """Threshold-sweep curve; points ordered from (0,0) to (1,1)."""

    points: np.ndarray  # (k, 2) columns fpr, tpr

    @property
    def fpr(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def tpr(self) -> np.ndarray:
        return self.points[:, 1]


@dataclass(frozen=True)
class MetricsReport:
    auc: float
    balanced_accuracy: float
    tpr_at_fpr: dict[float, float]

    def to_json(self) -> dict:
        return {
            "auc": self.auc,
            "balanced_accuracy": self.balanced_accuracy,
            "tpr_at_fpr": {repr(a): v for a, v in sorted(self.tpr_at_fpr.items())},
        }


def roc(scores: Sequence[float], membership: Sequence[bool],
        higher_means_member: bool = True) -> RocCurve:
    """ROC curve over all thresholds of the given scores.

    `membership` holds the ground truth as booleans (True = member); any
    other dtype, such as the strings "MEMBER" and "NON-MEMBER", raises.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(membership)
    if y.dtype != bool:
        raise TypeError(f"membership must be booleans (True = member), got {y.dtype}")
    if s.shape[0] != y.shape[0]:
        raise ValueError(f"{s.shape[0]} scores vs {y.shape[0]} membership labels")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"need both classes, got {n_pos} members / {n_neg} non-members"
        )

    keys = s if higher_means_member else -s
    order = np.argsort(-keys, kind="stable")
    sorted_keys = keys[order]
    sorted_y = y[order]
    tps = np.cumsum(sorted_y)
    fps = np.cumsum(~sorted_y)
    # one step per unique score value: keep the last index of each tie group
    last = np.flatnonzero(np.diff(sorted_keys) != 0)
    idx = np.concatenate([last, [s.size - 1]])
    tpr = tps[idx] / n_pos
    fpr = fps[idx] / n_neg
    # the last tie group ends at tps[-1] = n_pos and fps[-1] = n_neg, so at (1, 1)
    points = np.column_stack([
        np.concatenate([[0.0], fpr]),
        np.concatenate([[0.0], tpr]),
    ])
    points.setflags(write=False)
    return RocCurve(points)


def auc(curve: RocCurve) -> float:
    """Trapezoidal area; equals P(score_M > score_N) + 0.5 P(equal)."""
    f, t = curve.fpr, curve.tpr
    return float(np.sum(np.diff(f) * (t[1:] + t[:-1]) * 0.5))


def balanced_accuracy(curve: RocCurve) -> float:
    """Best (TPR + TNR) / 2 over the swept thresholds."""
    return float(np.max((curve.tpr + 1.0 - curve.fpr) / 2.0))


def tpr_at_fpr(curve: RocCurve, alpha: float) -> float:
    """TPR at the largest achieved FPR <= alpha (step convention)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    ok = np.flatnonzero(curve.fpr <= alpha)
    return float(curve.tpr[ok[-1]]) if ok.size else 0.0


def report(curve: RocCurve) -> MetricsReport:
    """AUC, balanced accuracy and the TPR at each of REPORT_FPRS."""
    return MetricsReport(
        auc=auc(curve),
        balanced_accuracy=balanced_accuracy(curve),
        tpr_at_fpr={a: tpr_at_fpr(curve, a) for a in REPORT_FPRS},
    )


def export_log_roc(curve: RocCurve, path: str | Path) -> None:
    """CSV with fpr clamped away from zero for log-scale plotting.

    Columns: fpr (clamped to LOG_FPR_CLAMP when zero), tpr, fpr_raw.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr", "fpr_raw"])
        for f, t in curve.points:
            clamped = LOG_FPR_CLAMP if f == 0.0 else f
            writer.writerow([repr(float(clamped)), repr(float(t)), repr(float(f))])


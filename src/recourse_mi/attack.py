"""Membership-inference attacks over recourse outputs.

Two families:

- Distance attacks consume only the costs of the recourses issued:
  simple thresholding on the counterfactual distance, and a one-sided LRT
  of the log-distance against the distances produced for each point by
  shadow models (trained on data disjoint from every evaluation point).
- Loss baselines consume the owner's probability of each point and its
  true label: thresholding on BCE, and the offline loss LRT of the
  logit-scaled confidence.

Every attack takes arrays of the adversary's transcript, a row per game
round, never the game (runner.Game, whose `member` and `point_ids` are the
answer key) or a model. It returns one AttackScores of arrays over the
rounds it scored; AttackScores.records writes them out.

Both LRTs run one offline test (_offline_lrt_scores): a per-point normal
fit of the OUT statistics (fit_normal_mle), scored by its CDF
(loss_lrt_score), that guesses MEMBER at level alpha iff the statistic
reaches the fit's (1 - alpha)-quantile (normal_quantile); cfd_lrt's
statistic is the log-distance. Each loss statistic is one nn.bce or
nn.logit_confidence call over all points (and all shadow models).

An audit's shadow models run as pool tasks, all listed by the runner's
_model_tasks and started once the game has been played: each trains its
model (train_shadow) in its own task and returns only that model's
column over the game's points (shadow_column), its probability of each
point and, for cfd_lrt, the distances of its replay of the owner's
recourse setup (a RecourseConfig; a replayed point's seed is its index
among the game's valid recourses), never the model. The runner stacks
the columns in model order into the matrices that the offline LRTs
take. Every model and replay keeps its own seeds, so results are
identical at any CPU count.

The normal CDF and quantile of the LRT scores and thresholds are ports of
the Cephes `ndtr`/`ndtri` that SciPy's `special` module runs (see
normal.py), and give SciPy's values bit for bit.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from . import nn, recourse
from .data import Dataset
from .nn import Model, TrainConfig, VaeModel
from .normal import ndtr, ndtri
from .recourse import RecourseConfig
from .seeds import derive_seed, rng_for

DEGENERATE_SIGMA2 = 1e-18


@dataclass(frozen=True)
class NormalFit:
    """MLE fit of one point's OUT statistics: mean and population variance."""

    mu: float
    sigma2: float
    n: int


@dataclass(frozen=True, eq=False)
class AttackScores:
    """One attack's scores of the game rounds it scored: rows[j] indexes
    the game's rounds, statistic[j] and score[j] are that round's, and
    member_at[alpha][j] is its level-alpha guess (LRT attacks only)."""

    attack: str
    rows: np.ndarray
    statistic: np.ndarray
    score: np.ndarray
    higher_means_member: bool
    member_at: dict[float, np.ndarray] = field(default_factory=dict)

    def records(self, point_ids: Sequence[str], member: np.ndarray) -> Iterator[dict[str, Any]]:
        """One scores_<attack>.jsonl record per scored round, given the
        game's point ids and ground-truth membership."""
        word = {True: "MEMBER", False: "NON-MEMBER"}
        for j, (r, stat, score) in enumerate(zip(self.rows.tolist(), self.statistic.tolist(),
                                                 self.score.tolist())):
            yield {
                "point_id": point_ids[r],
                "attack": self.attack,
                "statistic": stat,
                "score": score,
                "direction": "higher" if self.higher_means_member else "lower",
                "guess_at": {repr(a): word[bool(m[j])] for a, m in sorted(self.member_at.items())},
                "membership": word[bool(member[r])],
            }


def train_shadow(shadow_pool: Dataset, index: int, architecture: Sequence[int],
                 trainer_config: TrainConfig, seed: int) -> Model:
    """Shadow model `index` of the shadow models with seed `seed`: it
    trains on a uniform half-pool subsample with `trainer_config`, only its
    seed replaced by one derived from `seed` and `index`."""
    rows = np.sort(rng_for(seed, "shadow-subsample", index).choice(
        shadow_pool.n, size=shadow_pool.n // 2, replace=False))
    subset = Dataset(shadow_pool.features[rows], shadow_pool.labels[rows])
    cfg = dataclasses.replace(trainer_config, seed=derive_seed(seed, "shadow-train", index))
    return nn.train_classifier(subset, architecture, cfg)


def cfd_statistic(costs: np.ndarray) -> np.ndarray:
    """Counterfactual distance statistic: each recourse cost, floored."""
    return np.maximum(costs, recourse.DISTANCE_FLOOR)


def fit_normal_mle(samples: Sequence[float]) -> NormalFit:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 1:
        raise ValueError("need at least one sample")
    mu = float(np.mean(arr))
    return NormalFit(mu=mu, sigma2=float(np.mean((arr - mu) ** 2)), n=int(arr.size))


def normal_quantile(fit: NormalFit, q: float) -> float:
    """mu + sigma * Phi^-1(q); collapses to mu for degenerate fits. q = 0
    and 1 give -inf and inf, as ndtri does."""
    if fit.sigma2 < DEGENERATE_SIGMA2:
        return fit.mu
    return fit.mu + math.sqrt(fit.sigma2) * ndtri(q)


def loss_lrt_score(conf: float, out_fit: NormalFit) -> float:
    """Offline LRT score: OUT-fit CDF of the statistic. Degenerate fits
    snap to {0, 0.5, 1} by the sign of conf - mu."""
    if out_fit.sigma2 < DEGENERATE_SIGMA2:
        if conf > out_fit.mu:
            return 1.0
        return 0.5 if conf == out_fit.mu else 0.0
    return float(ndtr((conf - out_fit.mu) / math.sqrt(out_fit.sigma2)))


def shadow_column(
    model: Model,
    index: int,
    seed: int,
    X: np.ndarray,
    point_seeds: Sequence[int],
    replay: tuple[RecourseConfig, VaeModel | None] | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Shadow model `index`'s column over the rows of X (of the shadow
    models with seed `seed`): its probability of each row and, with
    replay = (recourse config, shadow VAE), its cfd_lrt replay distances.
    The replay is one recourse batch over the rows the model classifies
    negatively, each with the seed of (point_seeds[row], index); a row's
    distance is max(cost, DISTANCE_FLOOR), NaN where the model classifies
    the row positively or the search failed. Never the counterfactuals."""
    probs = nn.predict_proba_batch(model, X)
    if replay is None:
        return probs, None
    recourse_config, vae = replay
    neg = probs < 0.5
    seeds = [derive_seed(seed, f"shadow-recourse-{point_seeds[r]}", index)
             for r in np.flatnonzero(neg)]
    batch = recourse_config.generate_batch(model, X[neg], seeds, vae=vae)
    dists = np.full(len(X), np.nan)
    dists[neg] = np.where(batch.valid, cfd_statistic(batch.costs), np.nan)
    return probs, dists


# --- attack stages consumed by the experiment runner -----------------------
#
# Each scorer takes the transcript's arrays, a row per game round, and
# nothing of the referee's: no game, no model, no membership.

def cfd_attack_scores(costs: np.ndarray) -> AttackScores:
    """Simple counterfactual-distance scores of the game's rounds, from
    the cost of each round's recourse."""
    t = cfd_statistic(costs)
    return AttackScores("cfd", np.arange(t.size), t, t, higher_means_member=True)


def _offline_lrt_scores(attack: str, stats: Sequence[float], shadow_stats: np.ndarray,
                        alphas: Sequence[float], reported: np.ndarray) -> AttackScores:
    """The offline LRT of both LRT attacks: round i's statistic stats[i]
    against the normal MLE fit of row i of `shadow_stats` without its
    NaNs, reported as reported[i]. A round with fewer than two shadow
    statistics is dropped. The score is the fit's CDF (loss_lrt_score),
    and the guess at level alpha is MEMBER iff the statistic reaches the
    fit's (1 - alpha)-quantile."""
    rows, scores = [], []
    member_at: dict[float, list[bool]] = {a: [] for a in alphas}
    for i, (stat, row) in enumerate(zip(stats, shadow_stats)):
        row = row[~np.isnan(row)]
        if row.size < 2:
            continue
        fit = fit_normal_mle(row)
        rows.append(i)
        scores.append(loss_lrt_score(stat, fit))
        for a, guesses in member_at.items():
            guesses.append(stat >= normal_quantile(fit, 1.0 - a))
    rows = np.array(rows, dtype=np.int64)
    return AttackScores(attack, rows, reported[rows],
                        np.array(scores, dtype=np.float64), higher_means_member=True,
                        member_at={a: np.array(g, dtype=bool) for a, g in member_at.items()})


def cfd_lrt_attack_scores(costs: np.ndarray, shadow_dists: np.ndarray,
                          alphas: Sequence[float]) -> AttackScores:
    """One-sided distance LRT: the offline LRT of log t0, the floored cost
    of round i's recourse, against the log of row i of `shadow_dists`,
    round i's distances under the shadow models, NaN where a model gave
    none (row i of each model's shadow_column, replayed with point seed i)."""
    if (np.asarray(shadow_dists) <= 0).any():  # NaN marks a missing distance
        raise ValueError("shadow distances must be positive")
    t0s = cfd_statistic(costs)
    return _offline_lrt_scores("cfd_lrt", np.log(t0s).tolist(), np.log(shadow_dists),
                               alphas, reported=t0s)


def loss_attack_scores(probs: np.ndarray, labels: np.ndarray) -> AttackScores:
    """Loss-threshold baseline: the BCE of round i's label under probs[i],
    the owner's probability of round i's point."""
    losses = nn.bce(probs, labels)
    return AttackScores("loss", np.arange(losses.size), losses, losses,
                        higher_means_member=False)


def loss_lrt_attack_scores(probs: np.ndarray, labels: np.ndarray, shadow_probs: np.ndarray,
                           alphas: Sequence[float]) -> AttackScores:
    """Offline loss-LRT baseline: normal OUT fit of shadow confidences.
    Round i's statistic is the logit confidence of its label under
    probs[i], the owner's probability of its point; row i of
    `shadow_probs` holds that point's probability under each shadow
    model."""
    confs = nn.logit_confidence(probs, labels)
    shadow_confs = nn.logit_confidence(shadow_probs, labels[:, None])
    return _offline_lrt_scores("loss_lrt", confs.tolist(), shadow_confs, alphas,
                               reported=confs)

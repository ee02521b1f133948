"""Membership-inference attacks over recourse outputs.

Two families:

- Distance attacks consume only (x, x') pairs: simple thresholding on the
  counterfactual distance, and a one-sided LRT that fits a log-normal to
  the distances produced for x by shadow models (trained on data disjoint
  from every evaluation point) and scores the observed distance against
  that OUT fit. They never see the owner model, by interface.
- Loss baselines consume the owner model and the true label: thresholding
  on BCE, and the offline loss LRT against a normal OUT fit of
  logit-scaled confidences.

An audit runs two task lists on forked workers, one per CPU in the
process's affinity (see _map_models): every model it trains, then, after
the game, one cfd_lrt replay task per shadow model (a replayed point's
seed is its index among the game's valid recourses), which sends back
one distance per point it replays. Every model and replay keeps its own
seeds, so results are identical at any CPU count.

The normal CDF and quantile of the LRT scores and thresholds are ports of
the Cephes `ndtr`/`ndtri` that SciPy's `special` module runs (see
normal.py), and give SciPy's values bit for bit.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import nn, recourse
from .data import Dataset
from .nn import Model, TrainConfig, VaeModel
from .normal import ndtr, ndtri
from .recourse import CostFn, RecourseResult, ScfeParams, SearchParams
from .seeds import derive_seed, rng_for

DEGENERATE_SIGMA2 = 1e-18


class InvalidRecourseError(ValueError):
    """Distance statistics are only defined for valid recourses."""


class Guess(enum.Enum):
    MEMBER = "MEMBER"
    NON_MEMBER = "NON-MEMBER"

    def __str__(self) -> str:  # serialized form
        return self.value


@dataclass(frozen=True)
class LogNormalFit:
    """MLE fit of log-statistics: mean and population variance."""

    mu: float
    sigma2: float
    n: int


@dataclass(frozen=True)
class NormalFit:
    mu: float
    sigma2: float
    n: int


@dataclass(frozen=True)
class AttackScore:
    point_id: str
    attack: str
    statistic: float
    score: float
    higher_means_member: bool
    guess_at: dict[float, Guess] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "point_id": self.point_id,
            "attack": self.attack,
            "statistic": self.statistic,
            "score": self.score,
            "direction": "higher" if self.higher_means_member else "lower",
            "guess_at": {repr(a): g.value for a, g in sorted(self.guess_at.items())},
        }


@dataclass(frozen=True)
class RecourseConfig:
    """Which generator the game (and the shadow replay) uses."""

    algorithm: str = "scfe"  # scfe | growing_spheres | cchvae
    cost_fn: CostFn = CostFn("l1")
    scfe_params: ScfeParams = ScfeParams()
    search_params: SearchParams = SearchParams()

    def __post_init__(self):
        if self.algorithm not in ("scfe", "growing_spheres", "cchvae"):
            raise ValueError(f"unknown recourse algorithm {self.algorithm!r}")

    def generate_batch(self, model: Model, X: np.ndarray, seeds: Sequence[int],
                       vae: VaeModel | None = None) -> list[RecourseResult]:
        """One recourse per row of X, row i with seeds[i]. Row i depends
        only on X[i] and seeds[i], however the rows are split into blocks:
        scfe runs the block as one batch, the ball searches run per row
        with search_params' seed replaced by the row's."""
        if self.algorithm == "scfe":
            return recourse.scfe_batch(model, X, self.scfe_params, self.cost_fn, seeds)
        if self.algorithm == "cchvae" and vae is None:
            raise ValueError("cchvae requires a trained VAE")
        out = []
        for x, seed in zip(X, seeds):
            params = dataclasses.replace(self.search_params, seed=seed)
            if self.algorithm == "growing_spheres":
                out.append(recourse.growing_spheres(model, x, params, self.cost_fn))
            else:
                out.append(recourse.cchvae(model, vae, x, params, self.cost_fn))
        return out


@dataclass
class ShadowEnsemble:
    """N classifiers trained on subsamples of the adversary's pool.

    The pool is disjoint from every evaluation point, so recourse
    distances computed under these models sample the OUT distribution of
    Algorithm-style LRT attacks. One ensemble serves all query points.
    """

    models: list[Model]
    trainer_config: TrainConfig
    recourse_config: RecourseConfig
    seed: int
    vae: VaeModel | None = None

    @property
    def n_models(self) -> int:
        return len(self.models)


def _map_models(fn: Callable[[int], Any], n: int) -> list:
    """[fn(i) for i in range(n)] on one forked worker per CPU in the
    process's affinity (at most n), inline when that is one or fork is
    missing. Workers inherit fn through fork, so it may be a closure; only
    results are pickled back, and a worker's exception re-raises here."""
    workers = min(n, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(i) for i in range(n)]
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_worker_fn.append, initargs=(fn,)) as pool:
        return list(pool.map(_call_worker_fn, range(n)))


# in a _map_models worker, the fn it runs (last appended); empty elsewhere
_worker_fn: list[Callable[[int], Any]] = []


def _call_worker_fn(i: int) -> Any:
    return _worker_fn[-1](i)


def shadow_training_tasks(
    shadow_pool: Dataset,
    n_models: int,
    architecture: Sequence[int],
    trainer_config: TrainConfig,
    recourse_config: RecourseConfig,
    seed: int,
    vae_config: TrainConfig | None = None,
) -> tuple[list[Callable[[], Any]], Callable[[list], ShadowEnsemble]]:
    """The training tasks of a shadow ensemble, and the function that
    builds the ensemble from their results in task order.

    For cchvae recourse the first task trains one shadow VAE on the full
    pool, shared by every shadow model; `vae_config` is the owner's VAE
    training setup (its seed is replaced by one derived from `seed`).
    Then comes one task per shadow model in index order: model i trains
    on a uniform half-pool subsample with `trainer_config`, only its seed
    replaced by one derived from `seed` and i.
    """
    if n_models < 2:
        raise ValueError(f"need at least 2 shadow models, got {n_models}")
    half = shadow_pool.n // 2
    if half < 2:
        raise ValueError(f"shadow pool too small (n={shadow_pool.n})")
    if recourse_config.algorithm == "cchvae" and vae_config is None:
        raise ValueError("cchvae shadow replay needs the owner's VAE TrainConfig")

    def build(i: int) -> Model:
        rows = rng_for(seed, "shadow-subsample", i).choice(
            shadow_pool.n, size=half, replace=False
        )
        subset = shadow_pool.take(np.sort(rows), f"shadow_train_{i}")
        cfg = dataclasses.replace(trainer_config, seed=derive_seed(seed, "shadow-train", i))
        return nn.train_classifier(subset, architecture, cfg)

    tasks: list[Callable[[], Any]] = [functools.partial(build, i) for i in range(n_models)]
    if recourse_config.algorithm == "cchvae":
        tasks.insert(0, functools.partial(nn.train_vae, shadow_pool, dataclasses.replace(
            vae_config, seed=derive_seed(seed, "shadow-vae"))))

    def assemble(results: list) -> ShadowEnsemble:
        vae = results[0] if recourse_config.algorithm == "cchvae" else None
        return ShadowEnsemble(models=results[-n_models:], trainer_config=trainer_config,
                              recourse_config=recourse_config, seed=seed, vae=vae)

    return tasks, assemble


def cfd_statistic(x: np.ndarray, result: RecourseResult) -> float:
    """Counterfactual distance statistic: the recourse cost, floored."""
    if not result.valid:
        raise InvalidRecourseError("cfd_statistic needs a valid recourse")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != np.asarray(result.counterfactual).shape:
        raise nn.DimensionMismatchError(
            f"point shape {x.shape} does not match counterfactual"
        )
    return max(result.cost, recourse.DISTANCE_FLOOR)


def fit_lognormal_mle(samples: Sequence[float]) -> LogNormalFit:
    """Mean / population variance of the log-samples."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 1:
        raise ValueError("need at least one sample")
    if not (arr > 0).all():
        raise ValueError("log-normal fit requires strictly positive samples")
    logs = np.log(arr)
    mu = float(np.mean(logs))
    sigma2 = float(np.mean((mu - logs) ** 2))
    return LogNormalFit(mu=mu, sigma2=sigma2, n=int(arr.size))


def fit_normal_mle(samples: Sequence[float]) -> NormalFit:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 1:
        raise ValueError("need at least one sample")
    mu = float(np.mean(arr))
    return NormalFit(mu=mu, sigma2=float(np.mean((arr - mu) ** 2)), n=int(arr.size))


def lognormal_quantile(fit: LogNormalFit, q: float) -> float:
    """exp(mu + sigma * Phi^-1(q)); collapses to exp(mu) for degenerate fits."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {q}")
    if fit.sigma2 < DEGENERATE_SIGMA2:
        return float(np.exp(fit.mu))
    return float(np.exp(fit.mu + np.sqrt(fit.sigma2) * ndtri(q)))


def cfd_lrt_decide(t0: float, fit: LogNormalFit, alpha: float) -> Guess:
    """One-sided LRT decision at false-positive level alpha: NON-MEMBER
    iff t0 exceeds the (1-alpha)-quantile of the OUT fit."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    return Guess.NON_MEMBER if t0 > lognormal_quantile(fit, 1.0 - alpha) else Guess.MEMBER


def cfd_lrt_score(t0: float, fit: LogNormalFit) -> float:
    """OUT-distribution CDF of the observed distance, in [0, 1].

    Sweeping a threshold over this score reproduces cfd_lrt_decide across
    all alpha. Degenerate fits snap to {0, 0.5, 1} by the sign of
    log t0 - mu.
    """
    if t0 <= 0:
        raise ValueError(f"distance statistic must be positive, got {t0}")
    log_t0 = math.log(t0)
    if fit.sigma2 < DEGENERATE_SIGMA2:
        if log_t0 > fit.mu:
            return 1.0
        return 0.5 if log_t0 == fit.mu else 0.0
    return float(ndtr((log_t0 - fit.mu) / math.sqrt(fit.sigma2)))


def loss_lrt_score(conf: float, out_fit: NormalFit) -> float:
    """Offline loss-LRT score: OUT-fit CDF of the logit confidence."""
    if out_fit.sigma2 < DEGENERATE_SIGMA2:
        if conf > out_fit.mu:
            return 1.0
        return 0.5 if conf == out_fit.mu else 0.0
    return float(ndtr((conf - out_fit.mu) / math.sqrt(out_fit.sigma2)))


def shadow_distance_matrix(
    X: np.ndarray,
    ensemble: ShadowEnsemble,
    point_seeds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recourse distance of each row of X under each shadow model.

    Runs model-major: each shadow model issues one recourse batch over the
    rows it classifies negatively, with the seed of (point_seeds[row],
    model index). Returns the (n_points, n_models) distance matrix, NaN
    where the model already classifies the row positively or the recourse
    failed, and per row the counts of those two skip reasons. Row i
    depends only on X[i] and point_seeds[i], so splitting X into blocks
    and stacking their matrices gives the same result. Each model's task
    sends back only its negative-row mask and one distance per negative
    row, never the counterfactuals.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)

    def replay(i: int) -> tuple[np.ndarray, np.ndarray]:
        model = ensemble.models[i]
        neg = nn.predict_proba_batch(model, X) < 0.5
        seeds = [derive_seed(ensemble.seed, f"shadow-recourse-{point_seeds[r]}", i)
                 for r in np.flatnonzero(neg)]
        results = ensemble.recourse_config.generate_batch(model, X[neg], seeds,
                                                          vae=ensemble.vae)
        return neg, np.array([max(r.cost, recourse.DISTANCE_FLOOR) if r.valid else np.nan
                              for r in results], dtype=np.float64)

    dists = np.full((X.shape[0], ensemble.n_models), np.nan)
    positive = np.zeros(X.shape[0], dtype=np.int64)
    failed = np.zeros(X.shape[0], dtype=np.int64)
    for i, (neg, dist) in enumerate(_map_models(replay, ensemble.n_models)):
        positive += ~neg
        failed[neg] += np.isnan(dist)
        dists[neg, i] = dist
    return dists, positive, failed


# --- attack stages consumed by the experiment runner -----------------------
#
# The distance attacks deliberately take no model argument: the statistic
# is computed from the game transcript and the shadow ensemble alone.

def cfd_attack_scores(samples: Sequence) -> list[AttackScore]:
    """Simple counterfactual-distance scores for a list of GameSamples."""
    out = []
    for s in samples:
        t = cfd_statistic(s.point, s.recourse)
        out.append(AttackScore(
            point_id=s.point_id, attack="cfd", statistic=t, score=t,
            higher_means_member=True,
        ))
    return out


def cfd_lrt_attack_scores(
    samples: Sequence,
    ensemble: ShadowEnsemble,
    alphas: Sequence[float] = (0.01, 0.05, 0.1),
) -> list[AttackScore]:
    """One-sided distance-LRT scores; one shared ensemble, per-point fits.

    The shadow replay runs as one recourse batch per shadow model over
    the sample points (see shadow_distance_matrix); sample i uses point
    seed i. A point whose shadow-distance sample starves (fewer than two
    shadow models yield a recourse for it) is dropped.
    """
    if not samples:
        return []
    observed = [cfd_statistic(s.point, s.recourse) for s in samples]
    dists, _, _ = shadow_distance_matrix(
        np.array([s.point for s in samples]), ensemble, range(len(samples)))
    out = []
    for s, t0, row in zip(samples, observed, dists):
        row = row[~np.isnan(row)]
        if row.size < 2:
            continue
        fit = fit_lognormal_mle(row)
        out.append(AttackScore(
            point_id=s.point_id, attack="cfd_lrt", statistic=t0,
            score=cfd_lrt_score(t0, fit), higher_means_member=True,
            guess_at={a: cfd_lrt_decide(t0, fit, a) for a in alphas},
        ))
    return out


def loss_attack_scores(samples: Sequence, owner_model: Model) -> list[AttackScore]:
    """Loss-threshold baseline from one batched forward pass of the owner model."""
    if not samples:
        return []
    probs = nn.predict_proba_batch(owner_model, np.array([s.point for s in samples]))
    out = []
    for s, p in zip(samples, probs):
        stat = nn.bce_from_proba(p, s.label)
        out.append(AttackScore(
            point_id=s.point_id, attack="loss", statistic=stat, score=stat,
            higher_means_member=False,
        ))
    return out


def loss_lrt_attack_scores(
    samples: Sequence,
    owner_model: Model,
    ensemble: ShadowEnsemble,
    alphas: Sequence[float] = (0.01, 0.05, 0.1),
) -> list[AttackScore]:
    """Offline loss-LRT baseline: normal OUT fit of shadow confidences, from
    one batched forward pass per model (the owner and each shadow)."""
    if not samples:
        return []
    X = np.array([s.point for s in samples])
    owner_p = nn.predict_proba_batch(owner_model, X)
    shadow_p = [nn.predict_proba_batch(m, X) for m in ensemble.models]
    z_upper = {a: ndtri(1.0 - a) for a in alphas}
    out = []
    for i, s in enumerate(samples):
        conf = nn.logit_confidence_from_proba(owner_p[i], s.label)
        confs = [nn.logit_confidence_from_proba(p[i], s.label) for p in shadow_p]
        fit = fit_normal_mle(confs)
        score = loss_lrt_score(conf, fit)
        guesses = {}
        for a in alphas:
            if fit.sigma2 < DEGENERATE_SIGMA2:
                thr = fit.mu
            else:
                thr = fit.mu + math.sqrt(fit.sigma2) * z_upper[a]
            guesses[a] = Guess.MEMBER if conf >= thr else Guess.NON_MEMBER
        out.append(AttackScore(
            point_id=s.point_id, attack="loss_lrt", statistic=conf, score=score,
            higher_means_member=True, guess_at=guesses,
        ))
    return out

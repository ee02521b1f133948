"""Counterfactual recourse generators and cost functions.

Three generators share one contract: given a negatively classified point,
return the cheapest found input that the model classifies positively.

- scfe_batch: Adam descent on BCE-to-target plus a weighted cost term,
  with the trade-off weight decayed on failure, for a block of points.
- growing_spheres: uniform sampling in input-space l1 balls of growing
  radius, returning the cheapest valid sample at the first hit radius.
- cchvae: the same growing search in a VAE's latent space; candidates are
  decoded back so results stay in the decoder's range.

The ball searches take one point; attack.RecourseConfig.generate_batch
runs any of the three for a block of points. Each stores the row_costs
of its counterfactual as its cost.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import nn
from .nn import Model, VaeModel
from .seeds import derive_seed

DISTANCE_FLOOR = 1e-12

# scfe_batch runs its rows in blocks of about this many values, so each of
# its (rows, d) scratch arrays stays near 128 KB whatever the input's size
SCFE_BLOCK_VALUES = 16384


class RecoursePreconditionError(ValueError):
    """The query point is not negatively classified."""


@dataclass(frozen=True)
class CostFn:
    """l1 (default) or l2 distance."""

    norm: str = "l1"

    def __post_init__(self):
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"norm must be 'l1' or 'l2', got {self.norm!r}")


@dataclass(frozen=True)
class ScfeParams:
    lam: float = 0.1
    lam_decay: float = 0.5
    max_iters: int = 1000
    step_size: float = 0.05
    max_retries: int = 5
    immutable: tuple[int, ...] = ()  # feature indices recourse may not move

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.lam, self.max_iters, self.step_size)) \
                or self.max_retries < 0:
            raise ValueError(f"invalid ScfeParams {self}")
        if not 0.0 < self.lam_decay < 1.0:
            raise ValueError(f"lam_decay must be in (0,1), got {self.lam_decay}")


@dataclass(frozen=True)
class SearchParams:
    """Growing-ball search schedule, shared by growing_spheres and cchvae."""

    initial_radius: float = 0.1
    radius_step: float = 0.1
    samples_per_radius: int = 500
    max_radius: float = 10.0
    seed: int = 0
    immutable: tuple[int, ...] = ()

    def __post_init__(self):
        if not all(0 < r < np.inf for r in (self.initial_radius, self.radius_step,
                                             self.max_radius)):
            raise ValueError(f"radii must be finite and positive in {self}")
        if self.initial_radius > self.max_radius:
            raise ValueError(f"initial_radius must be at most max_radius in {self}")
        if self.samples_per_radius < 1:
            raise ValueError(f"samples_per_radius must be >= 1, got {self.samples_per_radius}")

    def radii(self) -> np.ndarray:
        count = int(np.floor((self.max_radius - self.initial_radius) / self.radius_step + 1e-12)) + 1
        return self.initial_radius + self.radius_step * np.arange(count)


@dataclass(frozen=True)
class RecourseResult:
    counterfactual: np.ndarray
    cost: float
    valid: bool
    algorithm: str
    trace: dict = field(default_factory=dict)
    seed: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "counterfactual": [float(v) for v in self.counterfactual],
            "cost": self.cost,
            "valid": self.valid,
            "algorithm": self.algorithm,
            "trace": self.trace,
            "seed": self.seed,
        }


def row_costs(delta: np.ndarray, norm: str) -> np.ndarray:
    """The l1 or l2 norm of each row of a (n, d) difference matrix: row i
    of counterfactuals - points is the recourse cost of row i."""
    if np.ndim(delta) != 2:
        raise nn.DimensionMismatchError(f"expected a (n, d) matrix, got shape "
                                        f"{np.shape(delta)}")
    # np.add.reduce skips np.sum's dispatch, a visible cost in small SCFE batches
    if norm == "l1":
        return np.add.reduce(np.abs(delta), axis=1)
    if norm == "l2":
        return np.sqrt(np.add.reduce(delta * delta, axis=1))
    raise ValueError(f"unknown norm {norm!r}")


def norm_subgradient(delta: np.ndarray, norm: str) -> np.ndarray:
    """Subgradient of ||delta||_norm, row by row for a (n, d) matrix;
    zero where delta = 0."""
    if norm == "l1":
        return np.sign(delta)
    if norm == "l2":
        mag = np.sqrt(np.sum(delta * delta, axis=-1, keepdims=True))
        return np.divide(delta, mag, out=np.zeros(np.shape(delta)), where=mag > 0)
    raise ValueError(f"unknown norm {norm!r}")


def _require_negative(model: Model, X: np.ndarray) -> None:
    """Every row of the (n, d) block X must be negatively classified."""
    p = nn.predict_proba_batch(model, X)
    positive = np.flatnonzero(p >= 0.5)
    if positive.size:
        i = int(positive[0])
        raise RecoursePreconditionError(
            f"query point is already positively classified (row {i}, p={p[i]:.6f})"
        )


def _keep_cheaper(best: np.ndarray, best_cost: np.ndarray, xp: np.ndarray,
                  costs: np.ndarray, valid: np.ndarray) -> None:
    """Store the rows of xp that are valid and cheaper than the row's best."""
    cheaper = valid & (costs < best_cost)
    if cheaper.any():
        best[cheaper] = xp[cheaper]
        best_cost[cheaper] = costs[cheaper]


def scfe_batch(model: Model, X: np.ndarray, params: ScfeParams, cost_fn: CostFn,
               seeds: Sequence[int]) -> list[RecourseResult]:
    """Gradient recourse for each row of X: minimize
    BCE(f(x'), 1) + lam * c(x, x') by Adam descent from x' = x.

    After max_iters without a valid iterate, lam is multiplied by
    lam_decay and the search restarts, up to max_retries times. Each row
    returns the cheapest valid iterate seen during its successful attempt,
    or a valid=False result. Rows are independent: every row runs the same
    attempt schedule, so the rows still searching share the attempt count,
    lam and Adam step, and a row leaves at the end of the attempt that
    found its recourse. Every operation is per row, so row i of the result
    is bit-identical to scfe_batch on X[i:i+1] however the points are split
    into batches. Each attempt runs the rows still searching in consecutive
    blocks of max(1, SCFE_BLOCK_VALUES // d), which bounds the search's
    scratch arrays whatever the number of rows.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise nn.DimensionMismatchError(f"expected (n, {model.d}) matrix, got {X.shape}")
    if len(seeds) != X.shape[0]:
        raise ValueError(f"{len(seeds)} seeds for {X.shape[0]} points")
    _require_negative(model, X)
    frozen = np.asarray(params.immutable, dtype=np.int64)
    block = max(1, SCFE_BLOCK_VALUES // X.shape[1])

    results: list[RecourseResult | None] = [None] * X.shape[0]
    active = np.arange(X.shape[0])
    lam = params.lam
    for attempt in range(params.max_retries + 1):
        if active.size == 0:
            break
        if attempt > 0:
            lam *= params.lam_decay
        trace = {"iterations": (attempt + 1) * params.max_iters,
                 "retries_used": attempt, "lambda_final": lam}
        for start in range(0, active.size, block):
            rows = active[start:start + block]
            best, best_cost = _scfe_attempt(model, X[rows], params, lam, cost_fn.norm, frozen)
            for j, r in enumerate(rows):
                if best_cost[j] < np.inf:
                    results[r] = RecourseResult(
                        counterfactual=best[j].copy(), cost=float(best_cost[j]), valid=True,
                        algorithm="scfe", trace=dict(trace), seed=seeds[r])
        active = np.array([r for r in active if results[r] is None], dtype=np.int64)

    for r in active:  # no attempt found these rows a recourse; trace is the last one's
        results[r] = RecourseResult(
            counterfactual=X[r].copy(), cost=0.0, valid=False, algorithm="scfe",
            trace=dict(trace), seed=seeds[r])
    return results


def _scfe_attempt(model: Model, x0: np.ndarray, params: ScfeParams, lam: float,
                  norm: str, frozen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One SCFE attempt at weight lam over the block x0: each row's cheapest
    valid iterate and its cost (inf where none was valid)."""
    xp = x0.copy()
    best = np.empty_like(xp)
    best_cost = np.full(x0.shape[0], np.inf)
    opt = nn.Adam(xp.shape, lr=params.step_size)
    for _ in range(params.max_iters):
        p, g = nn.bce_to_target_grad_batch(model, xp, target=1.0)
        delta = xp - x0
        costs = row_costs(delta, norm)
        _keep_cheaper(best, best_cost, xp, costs, p >= 0.5)
        g = g + lam * norm_subgradient(delta, norm)
        if frozen.size:
            g[:, frozen] = 0.0
        opt.step(xp, g)
    _keep_cheaper(best, best_cost, xp, row_costs(xp - x0, norm),
                  nn.predict_proba_batch(model, xp) >= 0.5)
    return best, best_cost


def uniform_l1_ball_sample(center: np.ndarray, radius: float, count: int,
                           seed: int) -> np.ndarray:
    """`count` points uniform over the l1 ball of `radius` around `center`.

    Signed Dirichlet directions on the l1 sphere, scaled by
    radius * U^(1/d) to fill the ball uniformly.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    center = np.asarray(center, dtype=np.float64)
    d = center.shape[0]
    rng = np.random.default_rng(seed)
    g = rng.standard_exponential((count, d))
    signs = rng.integers(0, 2, size=(count, d)) * 2 - 1
    surface = signs * g / g.sum(axis=1, keepdims=True)
    scale = radius * rng.random(count) ** (1.0 / d)
    return center + surface * scale[:, None]


def growing_spheres(model: Model, x: np.ndarray, params: SearchParams,
                    cost_fn: CostFn) -> RecourseResult:
    """Random input-space search in l1 balls of growing radius."""
    return _ball_search(model, None, x, params, cost_fn)


def cchvae(model: Model, vae: VaeModel, x: np.ndarray, params: SearchParams,
           cost_fn: CostFn) -> RecourseResult:
    """Latent-space recourse: growing l1-ball search around the encoder
    mean of x, candidates decoded back to input space, cost measured there.

    With an immutable mask the decoded candidates have those coordinates
    pinned back to x, so the counterfactual reconstructs as
    project(decode(z)) rather than decode(z) alone.
    """
    return _ball_search(model, vae, x, params, cost_fn)


def _ball_search(model: Model, vae: VaeModel | None, x: np.ndarray,
                 params: SearchParams, cost_fn: CostFn) -> RecourseResult:
    """Growing l1-ball search: in input space without a VAE
    (growing_spheres), in the VAE's latent space with one (cchvae).

    Samples around the search centre, decodes the candidates (identity
    without a VAE) with immutable coordinates pinned to x, and picks the
    cheapest valid candidate at the first accepting radius. The pick is
    decoded again on its own, then re-checked and costed as a one-row
    block, so the stored result equals any later re-evaluation of its
    recorded search point (a decoded block differs from a one-row decode
    in the last bits).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if vae is not None and vae.d != x.shape[0]:
        raise nn.DimensionMismatchError(f"vae expects d={vae.d}, point has {x.shape[0]}")
    _require_negative(model, x[None, :])
    frozen = np.asarray(params.immutable, dtype=np.int64)

    def decode(raw: np.ndarray) -> np.ndarray:
        pts = raw if vae is None else vae.decode_batch(raw)
        if frozen.size:
            pts = np.array(pts, copy=True)
            pts[:, frozen] = x[frozen]
        return pts

    algorithm, point_key = (("growing_spheres", "search_point") if vae is None
                            else ("cchvae", "latent_point"))
    center = x if vae is None else vae.encode_batch(x[None, :])[0][0]
    radii = params.radii()
    for ri, r in enumerate(radii):
        raw = uniform_l1_ball_sample(center, float(r), params.samples_per_radius,
                                     derive_seed(params.seed, "ball-radius", ri))
        candidates = decode(raw)
        hit = np.flatnonzero(nn.predict_proba_batch(model, candidates) >= 0.5)
        if hit.size == 0:
            continue
        costs = row_costs(candidates[hit] - x, cost_fn.norm)
        for local in np.argsort(costs, kind="stable"):
            idx = hit[local]
            final = decode(raw[idx:idx + 1])
            if nn.predict_proba_batch(model, final)[0] >= 0.5:
                trace = {"radius": float(r), "radii_tried": ri + 1,
                         "samples_per_radius": params.samples_per_radius,
                         point_key: [float(v) for v in raw[idx]]}
                # a copy: without a VAE or a mask, final is a view that
                # would pin the radius's whole sample block
                c = float(row_costs(final - x, cost_fn.norm)[0])
                return RecourseResult(final[0].copy(), c, True, algorithm,
                                      trace=trace, seed=params.seed)
    trace = {"radius": float(radii[-1]), "radii_tried": int(radii.size),
             "samples_per_radius": params.samples_per_radius}
    return RecourseResult(x.copy(), 0.0, False, algorithm, trace=trace, seed=params.seed)

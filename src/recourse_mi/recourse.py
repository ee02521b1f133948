"""Counterfactual recourse generators and cost functions.

Three generators share one contract: given a block of negatively
classified points and one seed per point, return a RecourseBatch holding,
per row, the cheapest found input that the model classifies positively.

- scfe: Adam descent on BCE-to-target plus a weighted cost term, with the
  trade-off weight decayed on failure, run over the whole block at once.
- growing_spheres: uniform sampling in input-space l1 balls of growing
  radius, returning the cheapest valid sample at the first hit radius.
- cchvae: the same growing search in a VAE's latent space; candidates are
  decoded back so results stay in the decoder's range.

The ball searches run row by row inside the block. Every generator checks
its norm (l1 or l2) and immutable indices once per block, stores the
row_costs of its counterfactual as its cost, and makes row i depend only
on row i of the block and its seed. RecourseConfig dispatches to them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import nn
from .data import block_rows
from .nn import Model, VaeModel
from .seeds import derive_seed

DISTANCE_FLOOR = 1e-12


class RecoursePreconditionError(ValueError):
    """The query point is not negatively classified."""


@dataclass(frozen=True)
class ScfeParams:
    lam: float = 0.1
    lam_decay: float = 0.5
    max_iters: int = 1000
    step_size: float = 0.05
    max_retries: int = 5

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
class RecourseConfig:
    """The config's recourse section, a field per key the search reads:
    the generator, the cost norm, the features recourse may not change."""

    algorithm: str = "scfe"  # scfe | growing_spheres | cchvae
    norm: str = "l1"
    immutable: tuple[int, ...] = ()
    scfe_params: ScfeParams = ScfeParams()
    search_params: SearchParams = SearchParams()

    def __post_init__(self):
        if self.algorithm not in ("scfe", "growing_spheres", "cchvae"):
            raise ValueError(f"unknown recourse algorithm {self.algorithm!r}")

    def generate_batch(self, model: Model, X: np.ndarray, seeds: Sequence[int],
                       vae: VaeModel | None = None) -> RecourseBatch:
        """One recourse per row of X, row i with seeds[i]. Row i depends
        only on X[i] and seeds[i], however the rows are split into blocks."""
        if self.algorithm == "scfe":
            return scfe(model, X, self.scfe_params, self.norm, seeds, self.immutable)
        if self.algorithm == "growing_spheres":
            return growing_spheres(model, X, self.search_params, self.norm, seeds,
                                   self.immutable)
        if vae is None:
            raise ValueError("cchvae requires a trained VAE")
        return cchvae(model, vae, X, self.search_params, self.norm, seeds, self.immutable)


@dataclass(frozen=True, eq=False)
class RecourseBatch:
    """One recourse per row of a block of points: row i's counterfactual,
    cost and validity, the seed it searched with, and in `columns` its
    search record. scfe records `iterations`, `retries_used` and
    `lambda_final`; the ball searches record `radius`, `radii_tried`,
    `samples_per_radius` and the accepted sample, `search_point` or
    `latent_point` (NaN in a failed row). A failed row's counterfactual is
    its point and its cost 0."""

    algorithm: str
    counterfactuals: np.ndarray  # (n, d)
    costs: np.ndarray  # (n,)
    valid: np.ndarray  # (n,) bool
    seeds: np.ndarray  # (n,) uint64
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return self.costs.shape[0]

    @property
    def trace(self) -> dict[str, int]:
        """The block's search counters: iterations and retries (scfe) or
        radii tried (ball searches) summed over the rows, and the
        configured samples per radius; all 0 for an empty block."""
        c = self.columns
        if self.algorithm == "scfe":
            return {"iterations": int(c["iterations"].sum()),
                    "retries_used": int(c["retries_used"].sum())}
        return {"radii_tried": int(c["radii_tried"].sum()),
                "samples_per_radius": int(c["samples_per_radius"].max(initial=0))}

    def row_json(self, i: int) -> dict[str, Any]:
        """Row i as one JSON record, its search record under "trace"; the
        accepted sample appears only in a valid row."""
        valid = bool(self.valid[i])
        return {
            "counterfactual": self.counterfactuals[i].tolist(),
            "cost": self.costs[i].item(),
            "valid": valid,
            "algorithm": self.algorithm,
            "trace": {k: v[i].tolist() for k, v in self.columns.items()
                      if valid or v.ndim == 1},
            "seed": self.seeds[i].item(),
        }

    def take(self, rows) -> RecourseBatch:
        """The batch of the selected rows (an index array or boolean mask)."""
        return RecourseBatch(self.algorithm, self.counterfactuals[rows], self.costs[rows],
                             self.valid[rows], self.seeds[rows],
                             {k: v[rows] for k, v in self.columns.items()})


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


def _query_block(model: Model, X: np.ndarray, seeds: Sequence[int], norm: str,
                 immutable: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """X as a contiguous float64 (n, d) block and `immutable` as an index
    array, once norm is l1 or l2, each index is an integer in [0, d), X fits
    the model, it has one seed per row and every row is negatively classified."""
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    if not all(isinstance(i, (int, np.integer)) and 0 <= i < model.d for i in immutable):
        raise ValueError(f"immutable must list integers in [0, {model.d}), got {immutable!r}")
    frozen = np.asarray(immutable, dtype=np.int64)
    X = nn._as_matrix(X, model.d)
    if len(seeds) != X.shape[0]:
        raise ValueError(f"{len(seeds)} seeds for {X.shape[0]} points")
    p = nn.predict_proba_batch(model, X)
    positive = np.flatnonzero(p >= 0.5)
    if positive.size:
        i = int(positive[0])
        raise RecoursePreconditionError(
            f"query point is already positively classified (row {i}, p={p[i]:.6f})"
        )
    return X, frozen


def _keep_cheaper(best: np.ndarray, best_cost: np.ndarray, xp: np.ndarray,
                  costs: np.ndarray, valid: np.ndarray) -> None:
    """Store the rows of xp that are valid and cheaper than the row's best."""
    cheaper = valid & (costs < best_cost)
    if cheaper.any():
        best[cheaper] = xp[cheaper]
        best_cost[cheaper] = costs[cheaper]


def scfe(model: Model, X: np.ndarray, params: ScfeParams, norm: str,
         seeds: Sequence[int], immutable: Sequence[int] = ()) -> RecourseBatch:
    """Gradient recourse for each row of X: minimize
    BCE(f(x'), 1) + lam * ||x' - x||_norm by Adam descent from x' = x,
    with the gradient of the immutable features zeroed.

    After max_iters without a valid iterate, lam is multiplied by
    lam_decay and the search restarts, up to max_retries times. Each row
    keeps the cheapest valid iterate seen during its successful attempt,
    or fails. Rows are independent: every row runs the same attempt
    schedule, so the rows still searching share the attempt count, lam
    and Adam step, and a row leaves at the end of the attempt that found
    its recourse. Every operation is per row, so row i of the batch is
    bit-identical to scfe on X[i:i+1] however the points are split into
    batches. Each attempt runs the rows still searching in consecutive
    blocks of data.block_rows(d) rows, which bounds the search's scratch
    arrays whatever the number of rows. A failed row records the last
    attempt.
    """
    X, frozen = _query_block(model, X, seeds, norm, immutable)
    block = block_rows(X.shape[1])
    n = X.shape[0]
    counterfactuals, costs, valid = X.copy(), np.zeros(n), np.zeros(n, dtype=bool)
    retries, lam_final = np.zeros(n, dtype=np.int64), np.zeros(n)
    active = np.arange(n)
    lam = params.lam
    for attempt in range(params.max_retries + 1):
        if active.size == 0:
            break
        if attempt > 0:
            lam *= params.lam_decay
        retries[active], lam_final[active] = attempt, lam
        for start in range(0, active.size, block):
            rows = active[start:start + block]
            best, best_cost = _scfe_attempt(model, X[rows], params, lam, norm, frozen)
            found = best_cost < np.inf
            counterfactuals[rows[found]] = best[found]
            costs[rows[found]] = best_cost[found]
            valid[rows[found]] = True
        active = active[~valid[active]]
    return RecourseBatch("scfe", counterfactuals, costs, valid, np.asarray(seeds, np.uint64),
                         {"iterations": (retries + 1) * params.max_iters,
                          "retries_used": retries, "lambda_final": lam_final})


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


def growing_spheres(model: Model, X: np.ndarray, params: SearchParams, norm: str,
                    seeds: Sequence[int], immutable: Sequence[int] = ()) -> RecourseBatch:
    """Random input-space search in l1 balls of growing radius, for each
    row of X with its seed."""
    return _ball_search(model, None, X, params, norm, seeds, immutable)


def cchvae(model: Model, vae: VaeModel, X: np.ndarray, params: SearchParams,
           norm: str, seeds: Sequence[int], immutable: Sequence[int] = ()) -> RecourseBatch:
    """Latent-space recourse for each row x of X: growing l1-ball search
    around the encoder mean of x, candidates decoded back to input space
    (as project(decode(z)) under an immutable mask), cost measured there."""
    return _ball_search(model, vae, X, params, norm, seeds, immutable)


def _ball_search(model: Model, vae: VaeModel | None, X: np.ndarray, params: SearchParams,
                 norm: str, seeds: Sequence[int], immutable: Sequence[int]) -> RecourseBatch:
    """Growing l1-ball search for each row x of X with its seed: in input
    space around x without a VAE (growing_spheres), in the VAE's latent
    space around the encoder mean of x alone with one (cchvae).

    Each row samples around its centre, decodes the candidates (identity
    without a VAE) with immutable coordinates pinned to x, and picks the
    cheapest valid candidate at the first accepting radius. The pick is
    decoded again on its own, then re-checked and costed as a one-row
    block, so the stored row equals any later re-evaluation of its
    recorded search point (a decoded block differs from a one-row decode
    in the last bits).
    """
    X, frozen = _query_block(model, X, seeds, norm, immutable)
    if vae is not None and vae.d != X.shape[1]:
        raise nn.DimensionMismatchError(f"vae expects d={vae.d}, points have {X.shape[1]}")

    def decode(raw: np.ndarray, x: np.ndarray) -> np.ndarray:
        pts = raw if vae is None else vae.decode_batch(raw)
        if frozen.size:
            pts = np.array(pts, copy=True)
            pts[:, frozen] = x[frozen]
        return pts

    radii = params.radii()
    n = X.shape[0]
    counterfactuals, costs, valid = X.copy(), np.zeros(n), np.zeros(n, dtype=bool)
    radius, radii_tried = np.full(n, radii[-1]), np.full(n, radii.size)
    points = np.full((n, X.shape[1] if vae is None else vae.latent_dim), np.nan)
    for i, (x, seed) in enumerate(zip(X, seeds)):
        center = x if vae is None else vae.encode_batch(x[None, :])[0][0]
        for ri, r in enumerate(radii):
            raw = uniform_l1_ball_sample(center, float(r), params.samples_per_radius,
                                         derive_seed(seed, "ball-radius", ri))
            candidates = decode(raw, x)
            hit = np.flatnonzero(nn.predict_proba_batch(model, candidates) >= 0.5)
            if hit.size == 0:
                continue
            for idx in hit[np.argsort(row_costs(candidates[hit] - x, norm),
                                      kind="stable")]:
                final = decode(raw[idx:idx + 1], x)
                if nn.predict_proba_batch(model, final)[0] >= 0.5:
                    counterfactuals[i], costs[i] = final[0], row_costs(final - x, norm)[0]
                    valid[i], radius[i], radii_tried[i], points[i] = True, r, ri + 1, raw[idx]
                    break
            if valid[i]:
                break
    algorithm, point_key = (("growing_spheres", "search_point") if vae is None
                            else ("cchvae", "latent_point"))
    return RecourseBatch(algorithm, counterfactuals, costs, valid, np.asarray(seeds, np.uint64),
                         {"radius": radius, "radii_tried": radii_tried,
                          "samples_per_radius": np.full(n, params.samples_per_radius),
                          point_key: points})

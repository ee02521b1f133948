"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the inverse normal
CDF is bisection on math.erf, AUC is the O(n^2) pairwise count, gradients
come from central finite differences, the two-sided distance LRT trains
per-point IN/OUT models directly, and SCFE is the one-point-at-a-time
loop that the batched engine replaced.
"""
from __future__ import annotations

import math

import numpy as np


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def normal_inverse_cdf(q: float, tol: float = 1e-13) -> float:
    """Bisection on normal_cdf; independent of scipy."""
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lognormal_quantile_oracle(mu: float, sigma2: float, q: float) -> float:
    return math.exp(mu + math.sqrt(sigma2) * normal_inverse_cdf(q))


def pairwise_auc(scores, members) -> float:
    """P(score_member > score_non) + 0.5 P(equal), by explicit counting."""
    scores = np.asarray(scores, dtype=np.float64)
    members = np.asarray(members, dtype=bool)
    pos = scores[members]
    neg = scores[~members]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central differences of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def grid_cheapest_valid_logistic(theta, bias, x, norm, bounds, resolution=801):
    """Brute-force cheapest positively-classified grid point for a 2-d
    logistic model: the recourse-problem optimum (min cost s.t. flip)."""
    (a_lo, a_hi), (b_lo, b_hi) = bounds
    xs = np.linspace(a_lo, a_hi, resolution)
    ys = np.linspace(b_lo, b_hi, resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    valid = theta[0] * gx + theta[1] * gy + bias >= 0.0  # sigmoid(z) >= 0.5
    dx, dy = gx - x[0], gy - x[1]
    if norm == "l1":
        c = np.abs(dx) + np.abs(dy)
    else:
        c = np.sqrt(dx * dx + dy * dy)
    c = np.where(valid, c, np.inf)
    i, j = np.unravel_index(np.argmin(c), c.shape)
    return np.array([gx[i, j], gy[i, j]]), float(c[i, j])


def lognormal_logpdf(t: float, mu: float, sigma2: float) -> float:
    z = (math.log(t) - mu) ** 2 / (2.0 * sigma2)
    return -math.log(t) - 0.5 * math.log(2.0 * math.pi * sigma2) - z


def two_sided_distance_llr(t0: float, in_fit, out_fit) -> float:
    """log [ Pr(t0 | IN fit) / Pr(t0 | OUT fit) ] for log-normal fits."""
    return (lognormal_logpdf(t0, in_fit.mu, max(in_fit.sigma2, 1e-12))
            - lognormal_logpdf(t0, out_fit.mu, max(out_fit.sigma2, 1e-12)))


def _forward_backward_one(weights, biases, x: np.ndarray, target: float):
    """(probability, d BCE(f(x), target) / dx) for one point, on vectors."""
    if len(weights) == 1:
        # logistic model: p = sigmoid(theta.x + b), grad = (p - target) theta
        z = float(x @ weights[0][:, 0]) + float(biases[0][0])
        p = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        return p, (p - target) * weights[0][:, 0]
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    z = float(acts[-1] @ weights[-1][:, 0]) + float(biases[-1][0])
    p = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
    g = (p - target) * weights[-1][:, 0]
    for w, act in zip(reversed(weights[:-1]), reversed(acts[1:])):
        g = (g * (act > 0)) @ w.T
    return p, g


def _norm(delta: np.ndarray, norm: str) -> float:
    if norm == "l1":
        return float(np.sum(np.abs(delta)))
    return float(np.sqrt(np.sum(delta * delta)))


def scfe_reference(model, x, params, norm: str) -> dict:
    """Per-point SCFE: Adam descent on BCE(f(x'), 1) + lam * ||x' - x||,
    restarting with lam * lam_decay after each attempt of max_iters
    without a valid iterate. Returns counterfactual, cost, valid, trace.
    """
    W, B = model.weights, model.biases
    x = np.asarray(x, dtype=np.float64)
    frozen = np.asarray(params.immutable, dtype=np.int64)
    b1, b2, eps = 0.9, 0.999, 1e-8

    def prob(v):
        return _forward_backward_one(W, B, v, 1.0)[0]

    total_iters = 0
    lam = params.lam
    for attempt in range(params.max_retries + 1):
        if attempt > 0:
            lam *= params.lam_decay
        best, best_cost = None, np.inf
        xp = x.copy()
        m, v = np.zeros_like(x), np.zeros_like(x)
        for t in range(1, params.max_iters + 1):
            p, g = _forward_backward_one(W, B, xp, 1.0)
            total_iters += 1
            if p >= 0.5:
                c = _norm(xp - x, norm)
                if c < best_cost:
                    best, best_cost = xp.copy(), c
            delta = xp - x
            if norm == "l1":
                sub = np.sign(delta)
            else:
                mag = float(np.sqrt(np.sum(delta * delta)))
                sub = delta / mag if mag > 0 else np.zeros_like(delta)
            g = g + lam * sub
            if frozen.size:
                g[frozen] = 0.0
            lr_t = params.step_size * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            xp -= lr_t * m / (np.sqrt(v) + eps)
        if prob(xp) >= 0.5:
            c = _norm(xp - x, norm)
            if c < best_cost:
                best, best_cost = xp.copy(), c
        if best is not None and prob(best) >= 0.5:
            return {"counterfactual": best, "cost": best_cost, "valid": True,
                    "trace": {"iterations": total_iters, "retries_used": attempt,
                              "lambda_final": lam}}
    return {"counterfactual": x.copy(), "cost": 0.0, "valid": False,
            "trace": {"iterations": total_iters, "retries_used": params.max_retries,
                      "lambda_final": lam}}

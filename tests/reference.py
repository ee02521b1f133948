"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the inverse normal
CDF is bisection on math.erf, AUC is the O(n^2) pairwise count, gradients
come from central finite differences, the two-sided distance LRT trains
per-point IN/OUT models directly, SCFE is the one-point-at-a-time loop
that the batched engine replaced, growing_spheres and cchvae are the two
wrappers around a closure-driven ball search that the single search body
replaced (costing their pick with the one-row norm `_norm`, and
returning one row's JSON record), and the
classifier and VAE trainers run Adam over a list of separate parameter
arrays, as they did before the flat parameter vector. The data pipeline is the copy-based one that
the in-place stages replaced: each class drawn on its own and stacked,
(x - mean) / np.std, and one row gather per partition; the CSV writer
is csv.writer over repr(float(v)) of each cell, and the CSV reader
float()s each cell into lists of rows that np.array stacks at the end.
"""
from __future__ import annotations

import csv
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



# --- ball searches: growing_spheres and cchvae as two wrappers that pass
# batch and single-point decode/validate closures to one search loop -----

def _ball_search_reference(predict_batch, decode_batch, decode_single, search_center,
                           x, params, cost_fn, validate_single, seed):
    """(counterfactual or None, cost, trace) of the cheapest valid
    candidate at the first accepting radius, rebuilt and re-checked
    through the single-point closures."""
    from recourse_mi.recourse import row_costs, uniform_l1_ball_sample
    from recourse_mi.seeds import derive_seed

    radii = params.radii()
    for ri, r in enumerate(radii):
        raw = uniform_l1_ball_sample(search_center, float(r), params.samples_per_radius,
                                     derive_seed(seed, "ball-radius", ri))
        candidates = decode_batch(raw)
        probs = predict_batch(candidates)
        hit = np.flatnonzero(probs >= 0.5)
        if hit.size == 0:
            continue
        costs = row_costs(candidates[hit] - x, cost_fn.norm)
        for local in np.argsort(costs, kind="stable"):
            idx = hit[local]
            final = decode_single(raw[idx])
            if validate_single(final):
                trace = {"radius": float(r), "radii_tried": ri + 1,
                         "samples_per_radius": params.samples_per_radius,
                         "search_point": [float(v) for v in raw[idx]]}
                return final, _norm(final - x, cost_fn.norm), trace
    return None, 0.0, {"radius": float(radii[-1]) if radii.size else 0.0,
                       "radii_tried": int(radii.size),
                       "samples_per_radius": params.samples_per_radius}


def _freezer_reference(x, immutable):
    """(batch, single-point) projections pinning immutable coordinates to x."""
    idx = np.asarray(immutable, dtype=np.int64)
    if idx.size == 0:
        return (lambda pts: pts), (lambda pt: pt)

    def project_batch(pts):
        pts = np.array(pts, copy=True)
        pts[:, idx] = x[idx]
        return pts

    def project_single(pt):
        pt = np.array(pt, copy=True)
        pt[idx] = x[idx]
        return pt

    return project_batch, project_single


def _one_row(v, d):
    """v as a C-contiguous (1, d) float64 matrix."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    assert v.shape == (d,)
    return v.reshape(1, -1)


def _row_record(algorithm, x, found, c, trace, seed):
    """The JSON record of one recourse: RecourseBatch.row_json's fields."""
    valid = found is not None
    return {"counterfactual": [float(v) for v in (found if valid else x)],
            "cost": float(c) if valid else 0.0, "valid": valid, "algorithm": algorithm,
            "trace": trace, "seed": seed}


def growing_spheres_reference(model, x, params, cost_fn, seed):
    """The row record of the input-space ball search."""
    from recourse_mi import nn
    from recourse_mi.recourse import _query_block

    x = _query_block(model, x[None, :], [seed])[0]
    project_batch, project_single = _freezer_reference(x, params.immutable)
    found, c, trace = _ball_search_reference(
        predict_batch=lambda pts: nn.predict_proba_batch(model, pts),
        decode_batch=project_batch, decode_single=project_single,
        search_center=x, x=x, params=params, cost_fn=cost_fn,
        validate_single=lambda pt: nn.predict_proba_batch(model, _one_row(pt, model.d))[0] >= 0.5,
        seed=seed)
    return _row_record("growing_spheres", x, found, c, trace, seed)


def cchvae_reference(model, vae, x, params, cost_fn, seed):
    """The row record of the latent-space ball search around the encoder
    mean of x, each candidate decoded back and projected."""
    from recourse_mi import nn
    from recourse_mi.recourse import _query_block

    x = _query_block(model, x[None, :], [seed])[0]
    project_batch, project_single = _freezer_reference(x, params.immutable)
    z_center = vae.encode_batch(_one_row(x, vae.d))[0][0]
    found, c, trace = _ball_search_reference(
        predict_batch=lambda pts: nn.predict_proba_batch(model, pts),
        decode_batch=lambda zs: project_batch(vae.decode_batch(zs)),
        decode_single=lambda z: project_single(vae.decode_batch(_one_row(z, vae.latent_dim))[0]),
        search_center=z_center, x=x, params=params, cost_fn=cost_fn,
        validate_single=lambda pt: nn.predict_proba_batch(model, _one_row(pt, model.d))[0] >= 0.5,
        seed=seed)
    if found is not None:
        trace["latent_point"] = trace.pop("search_point")
    return _row_record("cchvae", x, found, c, trace, seed)


# --- list-of-arrays trainers: the optimiser loop over separate parameter
# arrays that the flat-vector trainers replaced -------------------------

def sigmoid_reference(z: np.ndarray) -> np.ndarray:
    """Stable sigmoid by boolean masks: 1 / (1 + exp(-z)) where z >= 0,
    exp(z) / (1 + exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class AdamReference:
    """Adam with bias correction over a list of parameter arrays."""

    def __init__(self, shapes, lr, betas=(0.9, 0.999), eps=1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads) -> None:
        self.t += 1
        lr_t = self.lr * np.sqrt(1.0 - self.b2**self.t) / (1.0 - self.b1**self.t)
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= lr_t * m / (np.sqrt(v) + self.eps)


def _forward_reference(weights, biases, x, keep=False):
    acts = [x]
    a = x
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        acts.append(a)
    p = sigmoid_reference((a @ weights[-1] + biases[-1])[:, 0])
    return (p, acts) if keep else p


def _mean_bce_reference(p, y, floor=1e-7) -> float:
    pc = np.clip(np.where(y == 1, p, 1.0 - p), floor, 1.0 - floor)
    return float(-np.mean(np.log(pc)))


def train_classifier_reference(data, architecture, config):
    """(weights, biases, training_meta) of Adam on binary cross entropy,
    one array per layer weight and bias; raises TrainingDivergedError as
    the package trainer does."""
    from recourse_mi.nn import TrainingDivergedError
    from recourse_mi.seeds import rng_for

    sizes = [data.d] + [int(w) for w in architecture] + [1]
    rng = rng_for(config.seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))

    x_all = data.features
    y_all = data.labels.astype(np.float64)
    batch = config.effective_batch_size(data.n)
    opt = AdamReference([w.shape for w in weights] + [b.shape for b in biases],
                        config.learning_rate)
    shuffle_rng = rng_for(config.seed, "shuffle")
    epoch1_loss = None
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(data.n)
        for start in range(0, data.n, batch):
            idx = order[start : start + batch]
            xb, yb = x_all[idx], y_all[idx]
            p, acts = _forward_reference(weights, biases, xb, keep=True)
            g = ((p - yb) / xb.shape[0]).reshape(-1, 1)
            grads_w = [None] * len(weights)
            grads_b = [None] * len(biases)
            for li in range(len(weights) - 1, -1, -1):
                grads_w[li] = acts[li].T @ g
                grads_b[li] = g.sum(axis=0)
                if li > 0:
                    g = (g @ weights[li].T) * (acts[li] > 0)
            opt.step(weights + biases, grads_w + grads_b)
        if not all(np.isfinite(a).all() for a in weights + biases):
            raise TrainingDivergedError(epoch, f"non-finite parameters at epoch {epoch}")
        if epoch == 1 or epoch == config.epochs:
            loss = _mean_bce_reference(_forward_reference(weights, biases, x_all), y_all)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, f"non-finite loss at epoch {epoch}")
            if epoch == 1:
                epoch1_loss = loss
    final_p = _forward_reference(weights, biases, x_all)
    meta = {
        "seed": config.seed,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "batch_size": batch,
        "epoch1_train_loss": epoch1_loss,
        "final_train_loss": _mean_bce_reference(final_p, y_all),
        "train_accuracy": float(np.mean((final_p >= 0.5) == (y_all == 1.0))),
    }
    return weights, biases, meta


VAE_ARRAY_NAMES = ("enc_w1 enc_b1 enc_w_mu enc_b_mu enc_w_lv enc_b_lv "
                   "dec_w1 dec_b1 dec_w2 dec_b2").split()


def train_vae_reference(data, config, latent_dim=8, hidden_dim=20):
    """({name: array}, training_meta) of the tabular VAE trained with
    Adam over its ten separate parameter arrays."""
    from recourse_mi.seeds import rng_for

    rng = rng_for(config.seed, "vae-init")
    d = data.d

    def unif(fan_in, fan_out):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    P = dict(enc_w1=unif(d, hidden_dim), enc_b1=np.zeros(hidden_dim),
             enc_w_mu=unif(hidden_dim, latent_dim), enc_b_mu=np.zeros(latent_dim),
             enc_w_lv=unif(hidden_dim, latent_dim), enc_b_lv=np.zeros(latent_dim),
             dec_w1=unif(latent_dim, hidden_dim), dec_b1=np.zeros(hidden_dim),
             dec_w2=unif(hidden_dim, d), dec_b2=np.zeros(d))
    params = [P[n] for n in VAE_ARRAY_NAMES]
    opt = AdamReference([p.shape for p in params], config.learning_rate)
    shuffle_rng = rng_for(config.seed, "vae-shuffle")
    noise_rng = rng_for(config.seed, "vae-noise")
    batch = config.effective_batch_size(data.n)
    x_all = data.features

    def elbo_loss(x, eps, collect_grads=False):
        n = x.shape[0]
        h_enc_pre = x @ P["enc_w1"] + P["enc_b1"]
        h_enc = np.maximum(h_enc_pre, 0.0)
        mu = h_enc @ P["enc_w_mu"] + P["enc_b_mu"]
        lv = h_enc @ P["enc_w_lv"] + P["enc_b_lv"]
        std = np.exp(0.5 * lv)
        z = mu + std * eps
        h_dec_pre = z @ P["dec_w1"] + P["dec_b1"]
        h_dec = np.maximum(h_dec_pre, 0.0)
        xhat = h_dec @ P["dec_w2"] + P["dec_b2"]
        resid = xhat - x
        recon = 0.5 * np.sum(resid * resid) / n
        kl = -0.5 * np.sum(1.0 + lv - mu * mu - np.exp(lv)) / n
        loss = recon + kl
        if not collect_grads:
            return loss, None
        d_xhat = resid / n
        d_hdec = (d_xhat @ P["dec_w2"].T) * (h_dec_pre > 0)
        d_z = d_hdec @ P["dec_w1"].T
        d_mu = d_z + mu / n
        d_lv = d_z * (0.5 * std * eps) + (-0.5 * (1.0 - np.exp(lv))) / n
        d_henc = (d_mu @ P["enc_w_mu"].T + d_lv @ P["enc_w_lv"].T) * (h_enc_pre > 0)
        return loss, [x.T @ d_henc, d_henc.sum(axis=0), h_enc.T @ d_mu, d_mu.sum(axis=0),
                      h_enc.T @ d_lv, d_lv.sum(axis=0), z.T @ d_hdec, d_hdec.sum(axis=0),
                      h_dec.T @ d_xhat, d_xhat.sum(axis=0)]

    def full_elbo():
        return elbo_loss(x_all, np.zeros((data.n, latent_dim)))[0]

    epoch1 = None
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(data.n)
        for start in range(0, data.n, batch):
            idx = order[start : start + batch]
            eps = noise_rng.standard_normal((idx.size, latent_dim))
            _, grads = elbo_loss(x_all[idx], eps, collect_grads=True)
            opt.step(params, grads)
        if epoch == 1:
            epoch1 = full_elbo()
    meta = {
        "seed": config.seed,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "epoch1_elbo_loss": epoch1,
        "final_elbo_loss": full_elbo(),
    }
    return P, meta


def synthetic_reference(spec):
    """(features, labels, provenance) of the two-cluster dataset, with
    each class drawn into its own array and the two stacked."""
    rng = np.random.default_rng(spec.seed)
    v0 = rng.integers(0, 2, size=spec.d) * 2 - 1
    v1 = rng.integers(0, 2, size=spec.d) * 2 - 1
    while np.array_equal(v0, v1):
        v1 = rng.integers(0, 2, size=spec.d) * 2 - 1
    v0 = v0.astype(np.float64) * spec.class_separation
    v1 = v1.astype(np.float64) * spec.class_separation
    x0 = rng.standard_normal((spec.n_per_class, spec.d)) + v0
    x1 = rng.standard_normal((spec.n_per_class, spec.d)) + v1
    labels = np.concatenate([np.zeros(spec.n_per_class, dtype=np.int64),
                             np.ones(spec.n_per_class, dtype=np.int64)])
    prov = {"kind": "synthetic", "d": spec.d, "n_per_class": spec.n_per_class,
            "seed": spec.seed, "class_separation": spec.class_separation,
            "vertices": [v0.tolist(), v1.tolist()]}
    return np.vstack([x0, x1]), labels, prov


def standardize_reference(features):
    """(standardized features, mean, std) with np.std's population std."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    return (features - mean) / std, mean, std


def split_reference(features, labels, provenance, owner_n, shadow_n, eval_out_n, seed):
    """{role: (features, labels, provenance)} of the owner/shadow/eval-out
    partitions, each gathered from the full arrays by its sorted rows."""
    from recourse_mi.seeds import rng_for

    perm = rng_for(seed, "split-permutation").permutation(features.shape[0])
    bounds = [0, owner_n, owner_n + shadow_n, owner_n + shadow_n + eval_out_n]
    parts = {}
    for role, a, b in zip(("owner_train", "shadow_pool", "eval_out"), bounds, bounds[1:]):
        rows = np.sort(perm[a:b])
        parts[role] = (features[rows], labels[rows],
                       {"kind": "subset", "role": role, "rows": rows.tolist(),
                        "parent": provenance})
    return parts


def write_csv_reference(features, labels, names, path, label_column="label"):
    """The dataset CSV written cell by cell through csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [label_column])
        for row, lab in zip(features, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])


def tabular_arrays_reference(path, label_column, label_rule):
    """(features, labels, provenance) of a CSV file parsed cell by cell:
    every cell through float(), checked finite, into a list of rows."""
    from pathlib import Path

    from recourse_mi.data import TabularParseError

    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TabularParseError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise TabularParseError(
                f"{path}: label column {label_column!r} not in header {header}"
            )
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        rows, raw_labels = [], []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise TabularParseError(
                    f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
                )
            values = []
            for col_idx, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise TabularParseError(
                        f"{path}: row {row_no}, column {header[col_idx]!r}: "
                        f"non-numeric cell {cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise TabularParseError(
                        f"{path}: row {row_no}, column {header[col_idx]!r}: "
                        f"non-finite cell {cell.strip()!r}"
                    )
                if col_idx == label_idx:
                    raw_labels.append(value)
                else:
                    values.append(value)
            rows.append(values)
    if not rows:
        raise TabularParseError(f"{path}: no data rows")
    features = np.array(rows, dtype=np.float64)
    scores = np.array(raw_labels, dtype=np.float64)
    if label_rule == "binary":
        if not np.isin(scores, (0.0, 1.0)).all():
            bad = int(np.flatnonzero(~np.isin(scores, (0.0, 1.0)))[0]) + 1
            raise TabularParseError(
                f"{path}: row {bad}, column {label_column!r}: "
                f"label {scores[bad - 1]} is not 0/1 (rule=binary)"
            )
        labels = scores.astype(np.int64)
    else:
        labels = (scores > float(np.median(scores))).astype(np.int64)
    prov = {"kind": "file", "path": str(path), "label_column": label_column,
            "label_rule": label_rule, "feature_names": feature_names}
    return features, labels, prov

"""From-scratch differentiable binary classifiers and a tabular VAE.

Everything is plain numpy: fully-connected ReLU networks (an empty
architecture list means logistic regression) trained with Adam on binary
cross entropy, plus input gradients for recourse search. Predictions
and losses are batched: predict_proba_batch computes each row on its
own, and bce and logit_confidence work elementwise. Determinism is a
hard requirement here - identical data, architecture and TrainConfig must
yield bit-identical parameters, because the membership-inference game is
replayed from seeds.

A model trains on one flat float64 parameter vector whose reshaped views
are its weights and biases, and one flat gradient buffer that backprop
fills view by view, so Adam updates the whole model in one pass. Both
trainers run that pass in one minibatch loop, _fit, with one divergence rule.

save_model writes a model as one JSON document, manifest.json, with its
arrays inline as nested lists; load_model reads it back bit for bit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, block_rows
from .seeds import rng_for

PROB_FLOOR = 1e-7  # keeps losses and logits finite on interpolating models

VAE_LATENT_DIM = 8
VAE_HIDDEN_DIM = 20

MODEL_FORMAT_VERSION = 2


class DimensionMismatchError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
    """A parameter went non-finite after an epoch, or the full-data loss after
    the first or the last (_fit's one rule); carries the 1-based epoch."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")

    def __reduce__(self):  # so a shadow-training worker can send it back intact
        return type(self), (self.epoch, str(self))


@dataclass
class TrainConfig:
    """Adam training hyperparameters.

    batch_size=None applies the default policy: full batch when n <= 256,
    otherwise 64. An explicit value is used as given.
    """

    learning_rate: float = 1e-4
    epochs: int = 250
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def effective_batch_size(self, n: int) -> int:
        if self.batch_size is not None:
            return min(self.batch_size, n)
        return n if n <= 256 else 64


@dataclass
class Model:
    """Feed-forward binary classifier: linear/ReLU stack + sigmoid head."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    architecture: list[int]
    d: int
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        sizes = [self.d] + list(self.architecture) + [1]
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("parameter count does not match architecture")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ValueError(
                    f"layer {i} parameter shape {w.shape}/{b.shape} does not match "
                    f"architecture {sizes}"
                )


@dataclass
class VaeModel:
    """Tabular VAE: d -> 20 -> (latent mean, log-variance), latent -> 20 -> d."""

    enc_w1: np.ndarray
    enc_b1: np.ndarray
    enc_w_mu: np.ndarray
    enc_b_mu: np.ndarray
    enc_w_lv: np.ndarray
    enc_b_lv: np.ndarray
    dec_w1: np.ndarray
    dec_b1: np.ndarray
    dec_w2: np.ndarray
    dec_b2: np.ndarray
    d: int
    latent_dim: int
    hidden_dim: int
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        shapes = _vae_shapes(self.d, self.latent_dim, self.hidden_dim)
        for (name, a), shape in zip(self._arrays(), shapes):
            if np.shape(a) != shape:
                raise ValueError(f"VAE array {name} has shape {np.shape(a)}, expected {shape}")

    def encode_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and log-variance heads for each row of x."""
        h = np.maximum(x @ self.enc_w1 + self.enc_b1, 0.0)
        return h @ self.enc_w_mu + self.enc_b_mu, h @ self.enc_w_lv + self.enc_b_lv

    def decode_batch(self, z: np.ndarray) -> np.ndarray:
        h = np.maximum(z @ self.dec_w1 + self.dec_b1, 0.0)
        return h @ self.dec_w2 + self.dec_b2

    def _arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(n, getattr(self, n)) for n in _VAE_ARRAYS]


_VAE_ARRAYS = ("enc_w1 enc_b1 enc_w_mu enc_b_mu enc_w_lv enc_b_lv "
               "dec_w1 dec_b1 dec_w2 dec_b2").split()


def _vae_shapes(d: int, latent_dim: int, hidden_dim: int) -> list[tuple[int, ...]]:
    """The shapes of the _VAE_ARRAYS: each weight, then its bias."""
    h, z = hidden_dim, latent_dim
    return [s for w in ((d, h), (h, z), (h, z), (z, h), (h, d)) for s in (w, w[1:])]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e = exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, e / (1 + e)
    # below. min(z, -z) is -|z| that keeps the sign bit of a nan.
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


class Adam:
    """Adam (betas 0.9 and 0.999, eps 1e-8) with bias correction on one
    float64 array (a flat parameter vector, or an (n, d) block of SCFE
    points), moments and scratch preallocated: a step is twelve elementwise
    operations."""

    def __init__(self, shape: int | tuple[int, ...], lr: float):
        self.lr = lr
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self._s = np.empty(shape)
        self._u = np.empty(shape)

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """p -= lr_t * m / (sqrt(v) + eps), in place."""
        self.t += 1
        lr_t = self.lr * np.sqrt(1.0 - self.b2**self.t) / (1.0 - self.b1**self.t)
        m, v, s, u = self.m, self.v, self._s, self._u
        m *= self.b1
        np.multiply(1.0 - self.b1, g, out=s)
        m += s
        v *= self.b2
        np.multiply(1.0 - self.b2, g, out=s)
        s *= g
        v += s
        np.sqrt(v, out=s)
        s += self.eps
        np.multiply(lr_t, m, out=u)
        u /= s
        p -= u


def _flat_views(shapes: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One zeroed float64 vector and a reshaped view of it per shape, in order."""
    sizes = [int(np.prod(s)) for s in shapes]
    flat = np.zeros(sum(sizes))
    ends = np.cumsum(sizes)
    return flat, [flat[e - n : e].reshape(s) for s, n, e in zip(shapes, sizes, ends)]


def _uniform_fan_in(w: np.ndarray, rng: np.random.Generator) -> None:
    # Kaiming-style uniform fan-in init, in place; biases stay zero
    bound = np.sqrt(6.0 / w.shape[0])
    w[...] = rng.uniform(-bound, bound, size=w.shape)


def _rowwise(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w one row at a time: row i is bit-identical to a[i:i+1] @ w at
    any batch size, where one (n, d) product sums in an order that
    depends on n. `a` must be C-contiguous."""
    return np.matmul(a[:, None, :], w)[:, 0, :]


def _forward_batch(model: Model, x: np.ndarray, keep: bool = False, matmul=_rowwise):
    """Probabilities for a (n, d) batch; optionally keep activations.

    The default per-row products make each row's probability independent
    of the batch; training passes np.matmul for whole-batch products."""
    acts = [x]
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = matmul(a, w)
        a += b
        np.maximum(a, 0.0, out=a)
        if keep:
            acts.append(a)
    logit = matmul(a, model.weights[-1])[:, 0]
    logit += model.biases[-1]
    p = _sigmoid(logit)
    return (p, acts) if keep else p


def _as_matrix(x: np.ndarray, d: int) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != d:
        raise DimensionMismatchError(f"expected (n, {d}) matrix, got {x.shape}")
    return x


def predict_proba_batch(model: Model, x: np.ndarray) -> np.ndarray:
    """Probability of the positive class for each row of x; a row is
    classified positive iff its probability is >= 0.5. Row i equals
    predict_proba_batch(model, x[i:i+1]) bit for bit. The rows run in
    blocks of data.block_rows(widest hidden layer), which bounds the
    activations held at once; each row is computed on its own, so the
    blocks change no bit."""
    x = _as_matrix(x, model.d)
    rows = block_rows(max(model.architecture, default=1))
    p = np.empty(x.shape[0])
    for start in range(0, x.shape[0], rows):
        p[start : start + rows] = _forward_batch(model, x[start : start + rows])
    return p


def _prob_of_label(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The probability p assigns to label y, elementwise, clamped to
    [PROB_FLOOR, 1 - PROB_FLOOR]; every label must be 0 or 1."""
    y = np.asarray(y)
    binary = np.isin(y, (0, 1))
    if not binary.all():
        raise ValueError(f"label must be 0 or 1, got {y[~binary].flat[0]}")
    return np.clip(np.where(y == 1, p, 1.0 - p), PROB_FLOOR, 1.0 - PROB_FLOOR)


def bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary cross entropy: -log of the clamped probability p assigns to
    label y, elementwise (p and y broadcast)."""
    return -np.log(_prob_of_label(p, y))


def logit_confidence(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The logit of the clamped probability p assigns to label y, elementwise."""
    p_y = _prob_of_label(p, y)
    return np.log(p_y) - np.log1p(-p_y)


def bce_to_target_grad_batch(model: Model, x: np.ndarray,
                             target: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities (n,) and d BCE(f(x_i), target) / dx_i (n, d) for a
    (n, d) batch, in one forward/backward pass. Row i is bit-identical to
    the batch of one x[i:i+1]."""
    p, acts = _forward_batch(model, _as_matrix(x, model.d), keep=True)
    # dL/dlogit for BCE over sigmoid is exactly p - target
    g = (p - target)[:, None] * model.weights[-1][:, 0]
    for w, act in zip(reversed(model.weights[:-1]), reversed(acts[1:])):
        g = _rowwise(g * (act > 0), w.T)
    return p, g


def _fit(theta: np.ndarray, grad: np.ndarray, n: int, config: TrainConfig, stage: str,
         step: Callable[[np.ndarray], None],
         full_loss: Callable[[], float]) -> tuple[float, float]:
    """Adam on the flat parameter vector theta over minibatches of the n
    rows, reshuffled each epoch from rng stage `stage`; step(rows) fills
    the flat gradient `grad`. TrainingDivergedError if any parameter is
    non-finite after an epoch, or full_loss() after the first or the last
    epoch; returns full_loss() after those two epochs."""
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    batch = config.effective_batch_size(n)
    opt = Adam(theta.shape, config.learning_rate)
    shuffle_rng = rng_for(config.seed, stage)
    losses = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, batch):
            step(order[start : start + batch])
            opt.step(theta, grad)
        if not np.isfinite(theta).all():
            raise TrainingDivergedError(epoch, f"non-finite parameters at epoch {epoch}")
        if epoch == 1 or epoch == config.epochs:
            losses.append(full_loss())
            if not np.isfinite(losses[-1]):
                raise TrainingDivergedError(epoch, f"non-finite loss at epoch {epoch}")
    return losses[0], losses[-1]


def train_classifier(
    data: Dataset, architecture: Sequence[int], config: TrainConfig
) -> Model:
    """Train a classifier with Adam on binary cross entropy.

    Deterministic for a fixed config seed: initialization and per-epoch
    shuffling both derive from it. Raises TrainingDivergedError if the
    loss or any parameter goes non-finite.
    """
    architecture = [int(w) for w in architecture]
    if any(w < 1 for w in architecture):
        raise ValueError(f"architecture widths must be positive, got {architecture}")

    sizes = [data.d] + architecture + [1]
    shapes = list(zip(sizes[:-1], sizes[1:])) + [(s,) for s in sizes[1:]]
    n_layers = len(sizes) - 1
    # weights, then biases: views of one parameter vector and of one gradient
    # vector that backprop writes into
    theta, params = _flat_views(shapes)
    grad, grads = _flat_views(shapes)
    weights, biases = params[:n_layers], params[n_layers:]
    init_rng = rng_for(config.seed, "init")
    for w in weights:
        _uniform_fan_in(w, init_rng)
    model = Model(weights, biases, architecture, data.d)
    x_all = data.features
    y_all = data.labels.astype(np.float64)

    def step(rows: np.ndarray) -> None:
        xb, yb = x_all[rows], y_all[rows]
        p, acts = _forward_batch(model, xb, keep=True, matmul=np.matmul)
        g = ((p - yb) / xb.shape[0]).reshape(-1, 1)
        for li in range(n_layers - 1, -1, -1):
            np.matmul(acts[li].T, g, out=grads[li])
            np.add.reduce(g, axis=0, out=grads[n_layers + li])
            if li > 0:
                # a one-column layer's backward product is an outer
                # product: one rounded product per element either way
                g = g * weights[li][:, 0] if weights[li].shape[1] == 1 else g @ weights[li].T
                g *= acts[li] > 0

    p_all = None

    def full_loss() -> float:
        nonlocal p_all  # the last pass also gives the training accuracy
        p_all = _forward_batch(model, x_all, matmul=np.matmul)
        return float(np.mean(bce(p_all, y_all)))

    epoch1_loss, final_loss = _fit(theta, grad, data.n, config, "shuffle", step, full_loss)
    model.training_meta = {
        "seed": config.seed,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "batch_size": config.effective_batch_size(data.n),
        "epoch1_train_loss": epoch1_loss,
        "final_train_loss": final_loss,
        "train_accuracy": float(np.mean((p_all >= 0.5) == (y_all == 1.0))),
    }
    return model


def train_vae(data: Dataset, config: TrainConfig) -> VaeModel:
    """Train the tabular VAE, VAE_LATENT_DIM latent and VAE_HIDDEN_DIM
    hidden units (Gaussian decoder with unit observation variance, KL to a
    standard normal, both terms weighted equally). Expects standardized
    features. Raises TrainingDivergedError if any parameter, or the ELBO
    at the latent mean, goes non-finite.
    """
    shapes = _vae_shapes(data.d, VAE_LATENT_DIM, VAE_HIDDEN_DIM)
    theta, params = _flat_views(shapes)
    grad, grads = _flat_views(shapes)
    rng = rng_for(config.seed, "vae-init")
    for w in params[0::2]:
        _uniform_fan_in(w, rng)
    vae = VaeModel(**dict(zip(_VAE_ARRAYS, params)), d=data.d,
                   latent_dim=VAE_LATENT_DIM, hidden_dim=VAE_HIDDEN_DIM)
    noise_rng = rng_for(config.seed, "vae-noise")
    x_all = data.features

    def step(rows: np.ndarray) -> None:
        # backprop of the minibatch ELBO, one reparameterised sample per row
        x = x_all[rows]
        n = x.shape[0]
        eps = noise_rng.standard_normal((n, VAE_LATENT_DIM))
        h_enc_pre = x @ vae.enc_w1 + vae.enc_b1
        h_enc = np.maximum(h_enc_pre, 0.0)
        mu = h_enc @ vae.enc_w_mu + vae.enc_b_mu
        lv = h_enc @ vae.enc_w_lv + vae.enc_b_lv
        std = np.exp(0.5 * lv)
        z = mu + std * eps
        h_dec_pre = z @ vae.dec_w1 + vae.dec_b1
        h_dec = np.maximum(h_dec_pre, 0.0)
        d_xhat = (h_dec @ vae.dec_w2 + vae.dec_b2 - x) / n
        d_hdec = (d_xhat @ vae.dec_w2.T) * (h_dec_pre > 0)
        d_z = d_hdec @ vae.dec_w1.T
        d_mu = d_z + mu / n
        d_lv = d_z * (0.5 * std * eps) + (-0.5 * (1.0 - np.exp(lv))) / n
        d_henc = (d_mu @ vae.enc_w_mu.T + d_lv @ vae.enc_w_lv.T) * (h_enc_pre > 0)
        for gw, gb, a, da in zip(grads[0::2], grads[1::2], (x, h_enc, h_enc, z, h_dec),
                                 (d_henc, d_mu, d_lv, d_hdec, d_xhat)):
            np.matmul(a.T, da, out=gw)
            np.add.reduce(da, axis=0, out=gb)

    def full_elbo():
        # the ELBO with the decoder run at the latent mean: deterministic
        mu, lv = vae.encode_batch(x_all)
        resid = vae.decode_batch(mu) - x_all
        recon = 0.5 * np.sum(resid * resid) / data.n
        kl = -0.5 * np.sum(1.0 + lv - mu * mu - np.exp(lv)) / data.n
        return recon + kl

    epoch1, final = _fit(theta, grad, data.n, config, "vae-shuffle", step, full_elbo)
    vae.training_meta = {
        "seed": config.seed,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "epoch1_elbo_loss": epoch1,
        "final_elbo_loss": final,
    }
    return vae


# --- serialization: one JSON document per model, arrays inline ------------

def save_model(model: Model | VaeModel, directory: str | Path) -> None:
    """Write the model, its arrays as nested lists, to directory/manifest.json.
    json writes each float with repr, so the round trip is bit-exact."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(model, Model):
        doc = {"kind": "classifier", "architecture": model.architecture,
               "weights": [w.tolist() for w in model.weights],
               "biases": [b.tolist() for b in model.biases]}
    else:
        doc = {"kind": "vae", "latent_dim": model.latent_dim, "hidden_dim": model.hidden_dim,
               **{name: a.tolist() for name, a in model._arrays()}}
    doc.update(format_version=MODEL_FORMAT_VERSION, d=model.d, training_meta=model.training_meta)
    # json.dumps encodes in C in one shot, where json.dump runs the Python encoder
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    (directory / "manifest.json").write_text(text, encoding="utf-8")


def _float_array(cells) -> np.ndarray:
    a = np.array(cells)  # ValueError for a ragged array
    if a.dtype != np.float64:  # a null, string or bool cell; save_model writes floats
        raise ValueError(f"expected an array of floats, got one of {a.dtype}")
    return a


def load_model(directory: str | Path) -> Model | VaeModel:
    """The model save_model wrote to `directory`. ValueError, naming the
    directory, unless its manifest.json holds one model of this format;
    Model and VaeModel check that the arrays fit the declared sizes."""
    directory = Path(directory)
    try:
        with open(directory / "manifest.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format_version "
                             f"{doc.get('format_version')!r}, expected {MODEL_FORMAT_VERSION}")
        if doc["kind"] == "classifier":
            return Model(weights=[_float_array(w) for w in doc["weights"]],
                         biases=[_float_array(b) for b in doc["biases"]],
                         architecture=list(doc["architecture"]), d=doc["d"],
                         training_meta=doc["training_meta"])
        if doc["kind"] == "vae":
            return VaeModel(**{name: _float_array(doc[name]) for name in _VAE_ARRAYS},
                            d=doc["d"], latent_dim=doc["latent_dim"],
                            hidden_dim=doc["hidden_dim"], training_meta=doc["training_meta"])
        raise ValueError(f"unknown model kind {doc['kind']!r}")
    except KeyError as exc:
        raise ValueError(f"{directory}: manifest.json has no {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:  # not a model document
        raise ValueError(f"{directory}: {exc}") from None

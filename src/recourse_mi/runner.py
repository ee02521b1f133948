"""Config-driven experiment pipeline for the recourse membership game.

One experiment: build data, split it into owner / adversary-shadow /
held-out pools, train the owner model, sample negatively-classified
member and non-member points, issue one recourse per point, stream the
shadow models of the offline LRTs, score every configured attack in both
threshold directions, and persist a report, per-point score streams, ROC
tables and a trace of stage times, task times, peak memory and skip
counts. An audit runs on one worker pool (see run_experiment); prepare
trains only the owner's models, for the commands that need no shadows.
Every stage seed derives from the master seed, so everything but the
trace is reproducible byte-for-byte at any CPU count, and each point's
recourse does not depend on how the points are batched.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import attack as attack_mod
from . import metrics as metrics_mod
from . import nn
from .attack import AttackScore, Guess, RecourseConfig
from .data import (Dataset, SplitBundle, SyntheticSpec, split_in_place, standardize_in_place,
                   synthetic_arrays, tabular_arrays)
from .nn import Model, TrainConfig, VaeModel
from .pool import TaskPool, run_all
from .recourse import CostFn, RecourseResult, ScfeParams, SearchParams
from .seeds import derive_seed, rng_for

SCHEMA_VERSION = 2
KNOWN_ATTACKS = ("cfd", "cfd_lrt", "loss", "loss_lrt")


class ConfigError(ValueError):
    """Bad experiment configuration (unknown keys, missing fields, ...)."""


class GameSetupError(RuntimeError):
    """The game cannot be played as configured (e.g. too few negatives)."""


@dataclass(frozen=True)
class GameSample:
    """One game round: a negatively classified point, its ground-truth
    membership, and the single recourse issued for it."""

    point_id: str
    point: np.ndarray
    label: int
    membership: Guess
    recourse: RecourseResult


@dataclass
class ExperimentConfig:
    data: dict
    model_architecture: list[int]
    train: TrainConfig
    recourse: RecourseConfig
    attacks: list[str]
    n_shadow_models: int
    alpha_grid: list[float]
    owner_n: int
    shadow_n: int
    eval_out_n: int
    eval_points: int
    seed: int
    out_dir: str | None = None
    experiment_id: str = "experiment"
    vae_train: TrainConfig | None = None
    snapshot: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    config: dict
    master_seed: int
    experiment_id: str
    model_meta: dict
    game_meta: dict
    attack_metrics: dict[str, dict[str, metrics_mod.MetricsReport]]
    best_direction: dict[str, str]
    scores: dict[str, list[AttackScore]]
    membership: dict[str, str]
    trace: dict[str, Any]
    curves: dict[str, dict[str, metrics_mod.RocCurve]]  # saved as CSV, not in to_json
    data_provenance: dict = field(default_factory=dict)
    version: str = "0.1.0"

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "version": self.version,
            "experiment_id": self.experiment_id,
            "config": self.config,
            "master_seed": self.master_seed,
            "data_provenance": self.data_provenance,
            "model": self.model_meta,
            "game": self.game_meta,
            "attacks": {
                name: {
                    "directions": {
                        direction: rep.to_json()
                        for direction, rep in dirs.items()
                    },
                    "best_direction": self.best_direction[name],
                }
                for name, dirs in self.attack_metrics.items()
            },
        }

    def save(self, out_dir: str | Path) -> Path:
        """report.json, one scores_<attack>.jsonl per attack (a record per
        scored point), one roc_<attack>_<direction>.csv per curve, and the
        trace in trace.json."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        for path, doc in ((report_path, self.to_json()), (out_dir / "trace.json", self.trace)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        for name, score_list in self.scores.items():
            with open(out_dir / f"scores_{name}.jsonl", "w", encoding="utf-8") as fh:
                for sc in score_list:
                    rec = dict(sc.to_json(), membership=self.membership[sc.point_id])
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for name, dirs in self.attack_metrics.items():
            for direction in dirs:
                curve = self.curves[name][direction]
                metrics_mod.export_log_roc(curve, out_dir / f"roc_{name}_{direction}.csv")
        return report_path


# --- configuration ---------------------------------------------------------

_DEFAULT_CONFIG: dict[str, Any] = {
    "experiment_id": "experiment",
    "data": {
        "kind": "synthetic",
        "d": 20,
        "n_per_class": 2000,
        "class_separation": 1.0,
        "path": None,
        "label_column": None,
        "label_rule": "median-threshold",
        "standardize": True,
    },
    "model": {"architecture": []},
    "train": {"learning_rate": 1e-4, "epochs": 250, "batch_size": None},
    "recourse": {
        "algorithm": "scfe",
        "cost_norm": "l1",
        "immutable": [],
        "scfe": {"lam": 0.1, "lam_decay": 0.5, "max_iters": 1000,
                 "step_size": 0.05, "max_retries": 5},
        "search": {"initial_radius": 0.1, "radius_step": 0.1,
                   "samples_per_radius": 500, "max_radius": 10.0},
        "vae": {"learning_rate": 1e-3, "epochs": 200},
    },
    "attacks": {
        "which": ["cfd"],
        "n_shadow_models": 16,
        "alpha_grid": [0.01, 0.05, 0.1],
    },
    "eval": {"owner_n": 1000, "shadow_n": 2000, "eval_out_n": 1000,
             "eval_points": 200},
    "seed": 0,
    "out_dir": None,
}


def _merge_strict(defaults: dict, given: dict, path: str = "") -> dict:
    out = {}
    for key, default in defaults.items():
        if isinstance(default, dict):
            if not isinstance(given.get(key, {}), dict):
                raise ConfigError(f"{path}{key} must be a JSON object, got {given[key]!r}")
            out[key] = _merge_strict(default, given.get(key, {}), f"{path}{key}.")
        elif key in given:
            out[key] = given[key]
        else:
            out[key] = default
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(path + k for k in unknown)}")
    return out


def normalize_config(raw: dict) -> dict:
    """Apply defaults and reject unknown keys; returns the full snapshot."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw = dict(raw)
    raw.pop("sweep", None)  # handled by run_sweep
    snap = _merge_strict(_DEFAULT_CONFIG, raw)
    if not _is_int(snap["seed"]):
        raise ConfigError(f"seed must be an integer, got {snap['seed']!r}")
    kind = snap["data"]["kind"]
    if kind not in ("synthetic", "file"):
        raise ConfigError(f"data.kind must be 'synthetic' or 'file', got {kind!r}")
    if kind == "file" and not snap["data"]["path"]:
        raise ConfigError("data.kind='file' requires data.path")
    dc = snap["data"]
    if kind == "file" and not (isinstance(dc["label_column"], str) and dc["label_column"]):
        raise ConfigError(f"data.kind='file' requires data.label_column, a non-empty "
                          f"string; got {dc['label_column']!r}")
    if dc["label_rule"] not in ("binary", "median-threshold"):
        raise ConfigError(f"data.label_rule must be 'binary' or 'median-threshold', "
                          f"got {dc['label_rule']!r}")
    if not isinstance(dc["standardize"], bool):
        raise ConfigError(f"data.standardize must be true or false, got {dc['standardize']!r}")
    for key in ("d", "n_per_class") if kind == "synthetic" else ():
        if not (_is_int(snap["data"][key]) and snap["data"][key] >= 1):
            raise ConfigError(f"data.{key} must be a positive integer, got {snap['data'][key]!r}")
    sep = snap["data"]["class_separation"]
    if kind == "synthetic" and not (_is_real(sep) and sep > 0):
        raise ConfigError(f"data.class_separation must be a positive number, got {sep!r}")
    rc = snap["recourse"]
    for name, section, keys in (("train", snap["train"], ("epochs", "batch_size")),
                                ("recourse.scfe", rc["scfe"], ("max_iters", "max_retries")),
                                ("recourse.search", rc["search"], ("samples_per_radius",)),
                                ("recourse.vae", rc["vae"], ("epochs",))):
        for key in keys:
            if not (_is_int(section[key]) or (key == "batch_size" and section[key] is None)):
                raise ConfigError(f"{name}.{key} must be an integer, got {section[key]!r}")
    arch = snap["model"]["architecture"]
    if not isinstance(arch, list) or not all(_is_int(w) and w >= 1 for w in arch):
        raise ConfigError(f"model.architecture must list positive integer widths, got {arch!r}")
    att, ev = snap["attacks"], snap["eval"]
    for a in att["which"]:
        if a not in KNOWN_ATTACKS:
            raise ConfigError(f"unknown attack {a!r}; known: {KNOWN_ATTACKS}")
    n_shadow = att["n_shadow_models"]
    lrt = sorted(set(att["which"]) & {"cfd_lrt", "loss_lrt"})
    if not _is_int(n_shadow) or (lrt and n_shadow < 2):
        raise ConfigError(f"attacks.n_shadow_models must be an integer, at least 2 "
                          f"for {lrt}; got {n_shadow!r}")
    alphas = att["alpha_grid"]
    if not isinstance(alphas, list) or not all(_is_real(a) and 0 < a < 1 for a in alphas):
        raise ConfigError(f"attacks.alpha_grid values must be in (0, 1), got {alphas!r}")
    for key, n in ev.items():
        if not _is_int(n):
            raise ConfigError(f"eval.{key} must be an integer, got {n!r}")
    if ev["eval_points"] < 2 or ev["eval_points"] % 2:
        raise ConfigError(f"eval.eval_points must be even and >= 2 (half members, "
                          f"half non-members), got {ev['eval_points']!r}")
    _check_eval_sizes(ev, bool(lrt),
                      2 * snap["data"]["n_per_class"] if kind == "synthetic" else None)
    _check_immutable(snap["recourse"]["immutable"],
                     snap["data"]["d"] if kind == "synthetic" else None)
    return snap


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_immutable(immutable: Any, d: int | None) -> None:
    """ConfigError unless `immutable` lists integer feature indices, each
    below d when d is known (a file's d is known once it has loaded)."""
    if not isinstance(immutable, (list, tuple)) or not all(
            _is_int(i) and i >= 0 and (d is None or i < d) for i in immutable):
        raise ConfigError(f"recourse.immutable must list integer feature indices "
                          f"in [0, {d if d is not None else 'd'}), got {immutable!r}")


def _check_eval_sizes(ev: dict, lrt: bool, n: int | None) -> None:
    """ConfigError unless the eval sizes can partition n rows (a file's n is
    known once it has loaded): at least one owner and one held-out row, and
    with an LRT attack a shadow pool of at least 4 rows, since each shadow
    model trains on half of it."""
    least = {"owner_n": 1, "shadow_n": 4 if lrt else 0, "eval_out_n": 1}
    for key, low in least.items():
        if ev[key] < low:
            why = " with an LRT attack (each shadow model trains on half the pool)" \
                if key == "shadow_n" and lrt else ""
            raise ConfigError(f"eval.{key} must be at least {low}{why}, got {ev[key]}")
    total = sum(ev[key] for key in least)
    if n is not None and total > n:
        raise ConfigError(f"eval.owner_n + eval.shadow_n + eval.eval_out_n = {total} "
                          f"exceeds the {n} rows of the data")


def config_from_dict(raw: dict) -> ExperimentConfig:
    snap = normalize_config(raw)
    try:
        train_cfg = TrainConfig(
            learning_rate=snap["train"]["learning_rate"],
            epochs=snap["train"]["epochs"],
            batch_size=snap["train"]["batch_size"],
            seed=0,  # replaced by derived seeds per stage
        )
        rc = snap["recourse"]
        frozen = tuple(rc["immutable"])
        recourse_cfg = RecourseConfig(
            algorithm=rc["algorithm"],
            cost_fn=CostFn(rc["cost_norm"]),
            scfe_params=ScfeParams(**rc["scfe"], immutable=frozen),
            search_params=SearchParams(**rc["search"], immutable=frozen),
        )
        vae_cfg = TrainConfig(
            learning_rate=rc["vae"]["learning_rate"],
            epochs=rc["vae"]["epochs"],
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        data=snap["data"],
        model_architecture=[int(w) for w in snap["model"]["architecture"]],
        train=train_cfg,
        recourse=recourse_cfg,
        attacks=list(snap["attacks"]["which"]),
        n_shadow_models=int(snap["attacks"]["n_shadow_models"]),
        alpha_grid=[float(a) for a in snap["attacks"]["alpha_grid"]],
        owner_n=int(snap["eval"]["owner_n"]),
        shadow_n=int(snap["eval"]["shadow_n"]),
        eval_out_n=int(snap["eval"]["eval_out_n"]),
        eval_points=int(snap["eval"]["eval_points"]),
        seed=snap["seed"],
        out_dir=snap["out_dir"],
        experiment_id=str(snap["experiment_id"]),
        vae_train=vae_cfg,
        snapshot=snap,
    )


def read_raw_config(path: str | Path) -> dict:
    """The parsed JSON object of a config file, before defaults or checks."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_raw_config(path))


# --- pipeline stages -------------------------------------------------------

def _data_arrays(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, dict]:
    """The features (one writable matrix), labels and provenance of the
    configured dataset, standardized in place if configured. A file's
    immutable indices and partition sizes are checked as soon as it has
    loaded."""
    dc = config.data
    if dc["kind"] == "synthetic":
        spec = SyntheticSpec(
            d=int(dc["d"]),
            n_per_class=int(dc["n_per_class"]),
            seed=derive_seed(config.seed, "synthetic-data"),
            class_separation=float(dc["class_separation"]),
        )
        features, labels, prov = synthetic_arrays(spec)
    else:
        features, labels, prov = tabular_arrays(dc["path"], dc["label_column"], dc["label_rule"])
        _check_immutable(config.recourse.scfe_params.immutable, features.shape[1])
        _check_eval_sizes(config.snapshot["eval"],
                          bool(set(config.attacks) & {"cfd_lrt", "loss_lrt"}), features.shape[0])
    if dc["standardize"]:
        prov, _ = standardize_in_place(features, prov)
    return features, labels, prov


def build_dataset(config: ExperimentConfig) -> Dataset:
    """The configured dataset, as `recourse-mi gen-data` writes it."""
    return Dataset(*_data_arrays(config))


def build_split(config: ExperimentConfig) -> tuple[SplitBundle, dict]:
    """The owner/shadow/eval partitions of the configured dataset and the
    full dataset's provenance. Generation, standardization and the split
    all work on one feature matrix, whose rows the partitions view."""
    features, labels, prov = _data_arrays(config)
    bundle = split_in_place(features, labels, prov, config.owner_n, config.shadow_n,
                            config.eval_out_n, seed=derive_seed(config.seed, "split"))
    return bundle, prov


@dataclass
class PreparedExperiment:
    data_provenance: dict
    bundle: SplitBundle
    owner_model: Model
    owner_vae: VaeModel | None
    test_accuracy: float


def _checked_split(config: ExperimentConfig) -> tuple[SplitBundle, dict]:
    bundle, data_provenance = build_split(config)
    owner_rows = set(bundle.owner_train.provenance.get("rows", []))
    shadow_rows = set(bundle.shadow_pool.provenance.get("rows", []))
    out_rows = set(bundle.eval_out.provenance.get("rows", []))
    if owner_rows & shadow_rows or owner_rows & out_rows or shadow_rows & out_rows:
        raise GameSetupError("partition overlap detected; split is broken")
    return bundle, data_provenance


def _owner_tasks(config: ExperimentConfig, bundle: SplitBundle) -> dict:
    """The owner's training tasks by TaskPool tag, longest first so that
    the workers' greedy pick balances the load: its VAE for cchvae, then
    the owner model."""
    tasks = {}
    if config.recourse.algorithm == "cchvae":
        assert config.vae_train is not None
        vae_cfg = dataclasses.replace(config.vae_train, seed=derive_seed(config.seed, "owner-vae"))
        tasks["owner_vae"] = functools.partial(nn.train_vae, bundle.owner_train, vae_cfg)
    train_cfg = dataclasses.replace(config.train, seed=derive_seed(config.seed, "owner-train"))
    tasks["owner"] = functools.partial(nn.train_classifier, bundle.owner_train,
                                       config.model_architecture, train_cfg)
    return tasks


def prepare(config: ExperimentConfig) -> PreparedExperiment:
    """Data, splits, the owner model and, for cchvae, its VAE, trained on
    one TaskPool. The train command and play_game use this; an audit runs
    run_experiment, which also streams the shadow models."""
    bundle, data_provenance = _checked_split(config)
    done = run_all(_owner_tasks(config, bundle))
    return PreparedExperiment(
        data_provenance=data_provenance,
        bundle=bundle,
        owner_model=done["owner"],
        owner_vae=done.get("owner_vae"),
        test_accuracy=nn.accuracy(done["owner"], bundle.eval_out),
    )


def _sample_game(config: ExperimentConfig, prep: PreparedExperiment) -> tuple[list[GameSample], dict]:
    """Draw balanced negatively-classified member/non-member points and
    issue one recourse each. Failed recourses are dropped with counts."""
    owner = prep.owner_model
    train_ds = prep.bundle.owner_train
    out_ds = prep.bundle.eval_out

    p_train = nn.predict_proba_batch(owner, train_ds.features)
    p_out = nn.predict_proba_batch(owner, out_ds.features)
    eligible = np.zeros(train_ds.n, dtype=bool)
    eligible[prep.bundle.eval_in] = True
    neg_train = np.flatnonzero((p_train < 0.5) & eligible)
    neg_out = np.flatnonzero(p_out < 0.5)
    k = config.eval_points // 2
    if neg_train.size < k or neg_out.size < k:
        raise GameSetupError(
            f"need {k} negatively-classified points per side, got "
            f"{neg_train.size} member candidates and {neg_out.size} non-member candidates"
        )
    rng = rng_for(config.seed, "game-sample")
    member_rows = np.sort(rng.choice(neg_train, size=k, replace=False))
    non_member_rows = np.sort(rng.choice(neg_out, size=k, replace=False))

    queries: list[tuple[str, np.ndarray, int, Guess]] = []
    for r in member_rows:
        queries.append((f"m{int(r):05d}", train_ds.features[r], int(train_ds.labels[r]),
                        Guess.MEMBER))
    for r in non_member_rows:
        queries.append((f"n{int(r):05d}", out_ds.features[r], int(out_ds.labels[r]),
                        Guess.NON_MEMBER))

    seeds = [derive_seed(config.seed, "game-recourse", idx) for idx in range(len(queries))]
    results = config.recourse.generate_batch(
        owner, np.array([q[1] for q in queries]), seeds, vae=prep.owner_vae)
    raw_samples = [GameSample(point_id=pid, point=x, label=y, membership=membership,
                              recourse=res)
                   for (pid, x, y, membership), res in zip(queries, results)]
    kept = [s for s in raw_samples if s.recourse.valid]
    failures = {
        "member": sum(1 for s in raw_samples
                      if s.membership is Guess.MEMBER and not s.recourse.valid),
        "non_member": sum(1 for s in raw_samples
                          if s.membership is Guess.NON_MEMBER and not s.recourse.valid),
    }
    n_m = sum(1 for s in kept if s.membership is Guess.MEMBER)
    n_n = len(kept) - n_m
    if min(n_m, n_n) == 0:
        raise GameSetupError(
            f"all recourses failed on one side (members kept {n_m}, non-members kept {n_n})"
        )
    unbalanced = abs(n_m - n_n) / max(n_m, n_n) > 0.10
    meta = {
        "n_member": n_m,
        "n_non_member": n_n,
        "requested_per_side": k,
        "recourse_failures": failures,
        "unbalanced_flag": bool(unbalanced),
    }
    return kept, meta


def play_game(config: ExperimentConfig) -> list[GameSample]:
    """Run the game protocol end to end and return its samples."""
    prep = prepare(config)
    samples, _ = _sample_game(config, prep)
    return samples


def _attack_scores(
    config: ExperimentConfig,
    owner_model: Model,
    samples: list[GameSample],
    columns: attack_mod.ShadowColumns | None,
) -> dict[str, list[AttackScore]]:
    # Distance attacks receive only the game transcript (and the shadow
    # distances); the owner model is deliberately out of reach here.
    out: dict[str, list[AttackScore]] = {}
    for name in config.attacks:
        if name == "cfd":
            out[name] = attack_mod.cfd_attack_scores(samples)
        elif name == "cfd_lrt":
            assert columns is not None
            out[name] = attack_mod.cfd_lrt_attack_scores(
                samples, columns.dists, alphas=config.alpha_grid)
        elif name == "loss":
            out[name] = attack_mod.loss_attack_scores(samples, owner_model)
        elif name == "loss_lrt":
            assert columns is not None
            out[name] = attack_mod.loss_lrt_attack_scores(
                samples, owner_model, columns.probs, alphas=config.alpha_grid)
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Full pipeline; persists report.json, the score and ROC files and
    trace.json when out_dir is set.

    One TaskPool serves the whole audit. It trains every model, longest
    first: the shadow VAE (cchvae with cfd_lrt, for the replay), the
    owner's models (_owner_tasks), then the shadow models of the offline
    LRTs (attack.shadow_training_tasks). The game runs here as soon as the
    owner (and its VAE) return, while the workers keep training shadow
    models; then each shadow model is taken in completion order, fills
    its column of the offline LRTs (its probabilities here, its cfd_lrt
    replay on the pool) and is dropped (attack.ShadowStream).

    trace.json holds the wall seconds of the stages up to the owner model
    (prepare_s), the game (game_s) and the shadow columns and attack
    scores (attacks_s); each pool task's wall and process seconds, as
    measured where it ran (tasks); the audit process's ru_maxrss in KiB
    at each stage boundary (ru_maxrss_kb); and for cfd_lrt the shadow
    skips summed over the points (shadow_skips) and the number of starved
    points it dropped (cfd_lrt_starved).
    """
    trace: dict[str, Any] = {"ru_maxrss_kb": {}}

    def stage(name: str) -> None:
        trace["ru_maxrss_kb"][name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    t0 = time.perf_counter()
    bundle, data_provenance = _checked_split(config)
    stage("data")
    shadow_seed = derive_seed(config.seed, "shadow-ensemble")
    tasks = {}
    if "cfd_lrt" in config.attacks and config.recourse.algorithm == "cchvae":
        vae_cfg = dataclasses.replace(config.vae_train,
                                      seed=derive_seed(shadow_seed, "shadow-vae"))
        tasks["shadow_vae"] = functools.partial(nn.train_vae, bundle.shadow_pool, vae_cfg)
    tasks.update(_owner_tasks(config, bundle))
    n_shadow = config.n_shadow_models if set(config.attacks) & {"cfd_lrt", "loss_lrt"} else 0
    if n_shadow:  # the last tasks, streamed
        tasks.update(attack_mod.shadow_training_tasks(
            bundle.shadow_pool, n_shadow, config.model_architecture, config.train, shadow_seed))
    with TaskPool(tasks) as pool:
        for tag in list(tasks)[:len(tasks) - n_shadow]:
            pool.start(tag)
        stream = attack_mod.ShadowStream(pool, n_shadow) if n_shadow else None
        owner_vae = pool.take("owner_vae") if "owner_vae" in tasks else None
        owner = pool.take("owner")
        prep = PreparedExperiment(data_provenance, bundle, owner, owner_vae,
                                  test_accuracy=nn.accuracy(owner, bundle.eval_out))
        trace["prepare_s"] = time.perf_counter() - t0
        stage("owner")

        t1 = time.perf_counter()
        samples, game_meta = _sample_game(config, prep)
        trace["game_s"] = time.perf_counter() - t1
        stage("game")

        t2 = time.perf_counter()
        columns = None
        if stream is not None:
            shadow_vae = pool.take("shadow_vae") if "shadow_vae" in tasks else None
            replay = ((config.recourse, shadow_seed, shadow_vae)
                      if "cfd_lrt" in config.attacks else None)
            columns = stream.columns(np.array([s.point for s in samples]), range(len(samples)),
                                     probs="loss_lrt" in config.attacks, replay=replay)
            stage("shadows")
        trace["tasks"] = pool.times
    scores = _attack_scores(config, owner, samples, columns)
    trace["attacks_s"] = time.perf_counter() - t2
    if "cfd_lrt" in scores:
        trace["shadow_skips"] = {"positive": int(columns.positive.sum()),
                                 "failed": int(columns.failed.sum())}
        trace["cfd_lrt_starved"] = len(samples) - len(scores["cfd_lrt"])

    membership = {s.point_id: s.membership.value for s in samples}
    attack_metrics: dict[str, dict[str, metrics_mod.MetricsReport]] = {}
    best_direction: dict[str, str] = {}
    curves: dict[str, dict[str, metrics_mod.RocCurve]] = {}
    for name, score_list in scores.items():
        if not score_list:
            raise GameSetupError(f"attack {name!r} produced no scores")
        values = [sc.score for sc in score_list]
        truth = [membership[sc.point_id] for sc in score_list]
        game_meta.setdefault("scored_points", {})[name] = {
            "n_scored": len(score_list),
            "n_skipped": len(samples) - len(score_list),
        }
        native_higher = score_list[0].higher_means_member
        dirs: dict[str, metrics_mod.MetricsReport] = {}
        curves[name] = {}
        for direction, higher in (("standard", native_higher),
                                  ("reversed", not native_higher)):
            curve = metrics_mod.roc(values, truth, higher_means_member=higher)
            curves[name][direction] = curve
            dirs[direction] = metrics_mod.report(curve, alphas=(0.1, 0.01))
        attack_metrics[name] = dirs
        best_direction[name] = max(dirs, key=lambda d: dirs[d].auc)
    stage("end")

    report = ExperimentReport(
        config=config.snapshot,
        master_seed=config.seed,
        experiment_id=config.experiment_id,
        model_meta={
            "architecture": config.model_architecture,
            "train_accuracy": prep.owner_model.training_meta.get("train_accuracy"),
            "test_accuracy": prep.test_accuracy,
            "final_train_loss": prep.owner_model.training_meta.get("final_train_loss"),
        },
        game_meta=game_meta,
        attack_metrics=attack_metrics,
        best_direction=best_direction,
        scores=scores,
        membership=membership,
        trace=trace,
        curves=curves,
        data_provenance=data_provenance,
    )
    if config.out_dir:
        report.save(config.out_dir)
    return report


def write_summary(report_docs: Sequence[dict], path: str | Path) -> None:
    """One CSV row per (experiment, attack, direction) of report.json
    documents (ExperimentReport.to_json())."""
    if not report_docs:
        raise ValueError("a summary needs at least one report")
    lines = ["experiment_id,attack,direction,auc,ba,tpr_at_0.1,tpr_at_0.01"]
    for doc in report_docs:
        for name in sorted(doc["attacks"]):
            for direction in ("standard", "reversed"):
                m = doc["attacks"][name]["directions"][direction]
                tpr = m["tpr_at_fpr"]
                lines.append(
                    f"{doc['experiment_id']},{name},{direction},{m['auc']!r},"
                    f"{m['balanced_accuracy']!r},{tpr['0.1']!r},{tpr['0.01']!r}"
                )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run_sweep(raw_config: dict, out_dir: str | Path | None = None) -> list[ExperimentReport]:
    """Cross-product sweep over data.d and/or master seeds.

    The config's optional "sweep" section holds {"d": [...], "seed": [...]},
    each a non-empty list of integers (d at least 1); each combination runs
    as its own experiment and a combined summary.csv is written next to the
    per-run reports. Every combination's config is checked before the
    first one trains.
    """
    raw_config = dict(raw_config)
    sweep_spec = raw_config.pop("sweep", {})
    if not isinstance(sweep_spec, dict):
        raise ConfigError(f"sweep must be a JSON object, got {sweep_spec!r}")
    unknown = set(sweep_spec) - {"d", "seed"}
    if unknown:
        raise ConfigError(f"unknown sweep key(s): {sorted(unknown)}")
    for key, values in sweep_spec.items():
        least = 1 if key == "d" else None
        if not (isinstance(values, list) and values
                and all(_is_int(v) and (least is None or v >= least) for v in values)):
            raise ConfigError(f"sweep.{key} must be a non-empty list of integers"
                              f"{f' >= {least}' if least else ''}, got {values!r}")
    ds = sweep_spec.get("d", [None])
    seeds = sweep_spec.get("seed", [None])
    out_dir = Path(out_dir) if out_dir else None

    configs = []
    for d in ds:
        for seed in seeds:
            variant = json.loads(json.dumps(raw_config))
            parts = []
            if d is not None:
                data = variant.setdefault("data", {})
                if isinstance(data, dict):  # otherwise config_from_dict rejects it
                    data["d"] = d
                parts.append(f"d{d}")
            if seed is not None:
                variant["seed"] = seed
                parts.append(f"seed{seed}")
            run_id = "_".join(parts) if parts else "run"
            base_id = variant.get("experiment_id", "experiment")
            variant["experiment_id"] = f"{base_id}_{run_id}" if parts else base_id
            if out_dir is not None:
                variant["out_dir"] = str(out_dir / run_id)
            configs.append(config_from_dict(variant))
    reports = [run_experiment(cfg) for cfg in configs]
    if out_dir is not None:
        write_summary([r.to_json() for r in reports], out_dir / "summary.csv")
    return reports

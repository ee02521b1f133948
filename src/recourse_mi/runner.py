"""Config-driven experiment pipeline for the recourse membership game.

One pipeline, run_experiment, on one worker pool: build data, split it
into owner / adversary-shadow / held-out pools, train the owner model,
sample negatively-classified member and non-member points, issue one
recourse batch over them (a Game of arrays keeps the rounds whose
recourse is valid), collect the shadow models' columns of the offline
LRTs, score every configured attack in both threshold directions, and
persist a report, per-point score streams, ROC tables and a trace of
stage times, task times, peak memory and skip counts. The train and
recourse commands run it up to the owner and up to the game. Every
stage seed derives from the master seed, so everything but the trace is
reproducible byte-for-byte at any CPU count, and each point's recourse
does not depend on how the points are batched.
"""
from __future__ import annotations

import copy
import csv
import dataclasses
import functools
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__
from . import attack as attack_mod
from . import metrics as metrics_mod
from . import nn
from .data import (Dataset, SplitBundle, SplitSizeError, SyntheticSpec, split_in_place,
                   standardize_in_place, synthetic_arrays, tabular_arrays)
from .nn import Model, TrainConfig, VaeModel
from .pool import TaskPool
from .recourse import RecourseBatch, RecourseConfig, ScfeParams, SearchParams
from .seeds import derive_seed, rng_for

SCHEMA_VERSION = 2
KNOWN_ATTACKS = ("cfd", "cfd_lrt", "loss", "loss_lrt")


class ConfigError(ValueError):
    """Bad experiment configuration (unknown keys, missing fields, ...)."""


class GameSetupError(RuntimeError):
    """The game cannot be played as configured (e.g. too few negatives)."""


@dataclass(frozen=True, eq=False)
class Game:
    """The kept rounds of the membership game, one row each: a negatively
    classified point, its label, its ground-truth membership and the one
    recourse issued for it (row i of `recourse`, always valid)."""

    point_ids: list[str]
    points: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) int
    member: np.ndarray  # (n,) bool
    recourse: RecourseBatch


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
    vae_train: TrainConfig
    out_dir: str | None
    snapshot: dict


@dataclass(frozen=True, eq=False)
class AttackResult:
    """One attack's scores and, per threshold direction ("standard", then
    "reversed"), its ROC curve and metrics; best_direction is the one with
    the larger AUC, the first on a tie."""

    scores: attack_mod.AttackScores
    curves: dict[str, metrics_mod.RocCurve]  # saved as CSV, not in to_json
    metrics: dict[str, metrics_mod.MetricsReport]
    best_direction: str


@dataclass
class ExperimentReport:
    """One audit or the prefix of it that ran: its config snapshot, model
    and game metadata, the game's kept rounds, one AttackResult per attack
    in config order, the trace, and the owner model and VAE (unsaved)."""

    config: dict
    model_meta: dict
    game_meta: dict
    attacks: dict[str, AttackResult]
    game: Game | None  # None when the run stopped at the owner
    trace: dict[str, Any]
    owner_model: Model
    owner_vae: VaeModel | None
    data_provenance: dict

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "experiment_id": self.config["experiment_id"],
            "config": self.config,
            "master_seed": self.config["seed"],
            "data_provenance": self.data_provenance,
            "model": self.model_meta,
            "game": self.game_meta,
            "attacks": {
                name: {
                    "directions": {
                        direction: rep.to_json()
                        for direction, rep in result.metrics.items()
                    },
                    "best_direction": result.best_direction,
                }
                for name, result in self.attacks.items()
            },
        }

    def save(self, out_dir: str | Path) -> Path:
        """report.json, one scores_<attack>.jsonl per attack (a record per
        scored point), one roc_<attack>_<direction>.csv per curve, and the
        trace in trace.json."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        write_json(report_path, self.to_json())
        write_json(out_dir / "trace.json", self.trace)
        for name, result in self.attacks.items():
            write_jsonl(out_dir / f"scores_{name}.jsonl",
                        result.scores.records(self.game.point_ids, self.game.member))
            for direction, curve in result.curves.items():
                metrics_mod.export_log_roc(curve, out_dir / f"roc_{name}_{direction}.csv")
        return report_path


def write_json(path: str | Path, doc: Any) -> None:
    """`doc` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One compact JSON object with sorted keys per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# --- configuration ---------------------------------------------------------

# One row per config key: (key path, type, bounds, default). A type is int,
# float (any finite int or float), bool, str, a tuple of the allowed
# strings, or a one-item list of one of these for a list of such values.
# Bounds (low, high) hold for a number or each listed number: inclusive for
# int, exclusive for float, None for no bound. A row whose default is None
# also accepts null. normalize_config builds the snapshot from these rows,
# keeping each given value as given, then applies _check_rules.
CONFIG_TABLE: tuple[tuple[str, Any, tuple | None, Any], ...] = (
    ("experiment_id", str, None, "experiment"),
    ("seed", int, None, 0),
    ("out_dir", str, None, None),
    ("data.kind", ("synthetic", "file"), None, "synthetic"),
    ("data.d", int, (1, 10_000), 20),
    ("data.n_per_class", int, (1, None), 2000),
    ("data.class_separation", float, (0, None), SyntheticSpec.class_separation),
    ("data.path", str, None, None),
    ("data.label_column", str, None, None),
    ("data.label_rule", ("binary", "median-threshold"), None, "median-threshold"),
    ("data.standardize", bool, None, True),
    ("model.architecture", [int], (1, None), []),
    ("train.learning_rate", float, (0, None), TrainConfig.learning_rate),
    ("train.epochs", int, (1, None), TrainConfig.epochs),
    ("train.batch_size", int, (1, None), TrainConfig.batch_size),
    ("recourse.algorithm", ("scfe", "growing_spheres", "cchvae"), None, RecourseConfig.algorithm),
    ("recourse.cost_norm", ("l1", "l2"), None, RecourseConfig.norm),
    ("recourse.immutable", [int], (0, None), []),
    ("recourse.scfe.lam", float, (0, None), ScfeParams.lam),
    ("recourse.scfe.lam_decay", float, (0, 1), ScfeParams.lam_decay),
    ("recourse.scfe.max_iters", int, (1, None), ScfeParams.max_iters),
    ("recourse.scfe.step_size", float, (0, None), ScfeParams.step_size),
    ("recourse.scfe.max_retries", int, (0, None), ScfeParams.max_retries),
    ("recourse.search.initial_radius", float, (0, None), SearchParams.initial_radius),
    ("recourse.search.radius_step", float, (0, None), SearchParams.radius_step),
    ("recourse.search.samples_per_radius", int, (1, None), SearchParams.samples_per_radius),
    ("recourse.search.max_radius", float, (0, None), SearchParams.max_radius),
    ("recourse.vae.learning_rate", float, (0, None), 1e-3),
    ("recourse.vae.epochs", int, (1, None), 200),
    ("attacks.which", [str], None, ["cfd"]),
    ("attacks.n_shadow_models", int, (0, 1024), 16),
    ("attacks.alpha_grid", [float], (0, 1), [0.01, 0.05, 0.1]),
    ("eval.owner_n", int, (1, None), 1000),
    ("eval.shadow_n", int, (0, None), 2000),
    ("eval.eval_out_n", int, (1, None), 1000),
    ("eval.eval_points", int, (2, None), 200),
)
_ROWS = {row[0]: row for row in CONFIG_TABLE}
_NOUNS = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
          bool: ("true or false", ""), str: ("a string", "strings")}


def _fits(value: Any, kind: Any, bounds: tuple | None) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0], bounds) for v in value)
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    if kind in (bool, str):
        return isinstance(value, kind)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        return False
    low, high = bounds or (None, None)
    if kind is int:
        return (low is None or value >= low) and (high is None or value <= high)
    # also false for nan, inf and ints too large for a float
    return abs(value) <= np.finfo(float).max and (low is None or value > low) \
        and (high is None or value < high)


def _requirement(key: str) -> str:
    """What the table requires of the value at `key`, as error messages
    (and the README's table of keys) word it."""
    _, kind, bounds, default = _ROWS[key]
    many = isinstance(kind, list)
    base = kind[0] if many else kind
    text = f"one of {base}" if isinstance(base, tuple) else _NOUNS[base][many]
    if bounds:
        low, high = bounds
        closed = base is int
        text += (f" {'>=' if closed else '>'} {low}" if high is None else
                 f" in {'[' if closed else '('}{low}, {high}{']' if closed else ')'}")
    return ("a list of " if many else "") + text + (" or null" if default is None else "")


def normalize_config(raw: dict) -> dict:
    """The full snapshot of a config: every CONFIG_TABLE key, given or by
    default. ConfigError names the first key whose value breaks its row or
    a rule of _check_rules, or the unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw = {k: v for k, v in raw.items() if k != "sweep"}  # handled by run_sweep
    snap: dict = {}
    for key, _, _, default in CONFIG_TABLE:
        *sections, name = key.split(".")
        given, node = raw, snap
        for depth, section in enumerate(sections, start=1):
            given = given.get(section, {})
            if not isinstance(given, dict):
                raise ConfigError(f"{'.'.join(sections[:depth])} must be a JSON object, "
                                  f"got {given!r}")
            node = node.setdefault(section, {})
        value = given.get(name, list(default) if isinstance(default, list) else default)
        node[name] = _checked(key, value)
    unknown = _unknown_keys(raw, snap)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    _check_rules(snap)
    return snap


def _checked(key: str, value: Any) -> Any:
    """value, once it fits the CONFIG_TABLE row of key."""
    _, kind, bounds, default = _ROWS[key]
    if not (_fits(value, kind, bounds) or value is None and default is None):
        raise ConfigError(f"{key} must be {_requirement(key)}, got {value!r}")
    return value


def _unknown_keys(given: dict, known: dict, path: str = "") -> list[str]:
    out = []
    for key, value in given.items():
        if key not in known:
            out.append(path + key)
        elif isinstance(known[key], dict):
            out += _unknown_keys(value, known[key], f"{path}{key}.")
    return out


def _check_rules(snap: dict, d: int | None = None) -> None:
    """The rules that tie keys together, checked once every key fits its
    row. The data's column count d is known for synthetic data, and for a
    file once it has loaded. Whether the partitions fit the data's rows is
    the split's check (build_split)."""
    dc, rc, att, ev = snap["data"], snap["recourse"], snap["attacks"], snap["eval"]
    if d is None and dc["kind"] == "synthetic":
        d = dc["d"]
    which, search = att["which"], rc["search"]
    unknown = [a for a in which if a not in KNOWN_ATTACKS]
    lrt = sorted(set(which) & {"cfd_lrt", "loss_lrt"})
    rules = (
        (dc["kind"] == "file" and not (dc["path"] and dc["label_column"]),
         f"data.kind='file' requires data.path and data.label_column, both non-empty "
         f"strings; got {dc['path']!r} and {dc['label_column']!r}"),
        (unknown, f"unknown attack(s) {unknown} in attacks.which; known: {KNOWN_ATTACKS}"),
        (not which or len(set(which)) < len(which),
         f"attacks.which must name at least one attack and none twice, got {which!r}"),
        (len(set(att["alpha_grid"])) < len(att["alpha_grid"]),
         f"attacks.alpha_grid must list no value twice, got {att['alpha_grid']!r}"),
        (lrt and att["n_shadow_models"] < 2,
         f"attacks.n_shadow_models must be at least 2 for {lrt}, got {att['n_shadow_models']!r}"),
        (lrt and ev["shadow_n"] < 4, f"eval.shadow_n must be at least 4 with an LRT attack "
         f"(each shadow model trains on half the pool), got {ev['shadow_n']!r}"),
        (ev["eval_points"] % 2, f"eval.eval_points must be even (half members, half "
         f"non-members), got {ev['eval_points']!r}"),
        (ev["eval_points"] // 2 > min(ev["owner_n"], ev["eval_out_n"]),
         f"eval.eval_points must be at most twice eval.owner_n ({ev['owner_n']!r}) and twice "
         f"eval.eval_out_n ({ev['eval_out_n']!r}), got {ev['eval_points']!r}"),
        (search["initial_radius"] > search["max_radius"],
         f"recourse.search.initial_radius must be at most recourse.search.max_radius "
         f"({search['max_radius']!r}), got {search['initial_radius']!r}"),
        (d is not None and any(i >= d for i in rc["immutable"]),
         f"recourse.immutable must list feature indices in [0, {d}), got {rc['immutable']!r}"),
        (d is not None and set(range(d)) <= set(rc["immutable"]),
         f"recourse.immutable must leave at least one of the {d} features free, since no "
         f"recourse can move a point otherwise; got {rc['immutable']!r}"),
    )
    for broken, message in rules:
        if broken:
            raise ConfigError(message)


def config_from_dict(raw: dict) -> ExperimentConfig:
    snap = normalize_config(raw)
    rc = snap["recourse"]
    return ExperimentConfig(
        data=snap["data"],
        model_architecture=list(snap["model"]["architecture"]),
        train=TrainConfig(learning_rate=snap["train"]["learning_rate"],
                          epochs=snap["train"]["epochs"],
                          batch_size=snap["train"]["batch_size"],
                          seed=0),  # replaced by derived seeds per stage
        recourse=RecourseConfig(algorithm=rc["algorithm"], norm=rc["cost_norm"],
                                immutable=tuple(rc["immutable"]),
                                scfe_params=ScfeParams(**rc["scfe"]),
                                search_params=SearchParams(**rc["search"])),
        attacks=list(snap["attacks"]["which"]),
        n_shadow_models=snap["attacks"]["n_shadow_models"],
        alpha_grid=[float(a) for a in snap["attacks"]["alpha_grid"]],
        **snap["eval"],  # owner_n, shadow_n, eval_out_n, eval_points
        seed=snap["seed"], out_dir=snap["out_dir"],
        vae_train=TrainConfig(learning_rate=rc["vae"]["learning_rate"],
                              epochs=rc["vae"]["epochs"]),
        snapshot=snap,
    )


def _read_json(path: str | Path, what: str) -> Any:
    """The parsed JSON of the file at path, or a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def read_raw_config(path: str | Path) -> dict:
    """The parsed JSON object of a config file, before defaults or checks."""
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_raw_config(path))


# --- pipeline stages -------------------------------------------------------

def _data_arrays(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, dict]:
    """The features (one writable matrix), labels and provenance of the
    configured dataset, standardized in place if configured. A data file
    that cannot be read or standardized is a ConfigError naming data.path,
    and its immutable indices are checked once it has loaded."""
    dc = config.data
    try:
        if dc["kind"] == "synthetic":
            features, labels, prov = synthetic_arrays(SyntheticSpec(
                d=int(dc["d"]),
                n_per_class=int(dc["n_per_class"]),
                seed=derive_seed(config.seed, "synthetic-data"),
                class_separation=float(dc["class_separation"]),
            ))
        else:
            features, labels, prov = tabular_arrays(dc["path"], dc["label_column"],
                                                    dc["label_rule"])
        if dc["standardize"]:
            prov = standardize_in_place(features, prov)
    except (OSError, csv.Error, ValueError) as exc:
        if dc["kind"] != "file":
            raise
        raise ConfigError(f"data.path {dc['path']!r} cannot be used: {exc}") from exc
    if dc["kind"] == "file":
        _check_rules(config.snapshot, features.shape[1])
    return features, labels, prov


def build_dataset(config: ExperimentConfig) -> Dataset:
    """The configured dataset, as `recourse-mi gen-data` writes it."""
    return Dataset(*_data_arrays(config))


def build_split(config: ExperimentConfig) -> tuple[SplitBundle, dict]:
    """The owner/shadow/eval partitions of the configured dataset and the
    full dataset's provenance. Generation, standardization and the split
    all work on one feature matrix, whose rows the partitions view."""
    features, labels, prov = _data_arrays(config)
    try:
        bundle = split_in_place(features, labels, prov, config.owner_n, config.shadow_n,
                                config.eval_out_n, seed=derive_seed(config.seed, "split"))
    except SplitSizeError as exc:  # partitions larger than the data, before any training
        raise ConfigError(f"eval: {exc}") from None
    return bundle, prov


def check_out(path: str | Path, file: bool = False) -> None:
    """A ConfigError where the output directory `path`, or with `file` the
    output file `path`, cannot be written: where the nearest existing one
    of `path` and its parents is not a directory (an existing output file
    is overwritten), or where an output file is a directory."""
    full = Path(path).absolute()
    nearest = next(p for p in (full, *full.parents) if p.exists())
    if file and nearest == full:  # a file there is overwritten, a directory is not
        broken, why = full.is_dir(), "is a directory"
    else:
        broken, why = not nearest.is_dir(), "is not a directory"
    if broken:
        raise ConfigError(f"output {'file' if file else 'directory'} {path} cannot be used: "
                          f"{nearest} {why}")


def _model_tasks(config: ExperimentConfig, bundle: SplitBundle,
                 shadows: bool) -> tuple[dict, dict]:
    """Every model task of an audit by TaskPool tag, the one place that
    chooses which models train, on which rows and with which seeds.
    `first`, started at once and longest first: the shadow VAE (cchvae
    with cfd_lrt), the owner's VAE (cchvae), the owner. The shadow tasks,
    none unless `shadows` is set and an LRT attack configured: "shadow_{i}"
    in index order, started on (game points X, shadow VAE), trains shadow
    model i and returns its attack.shadow_column over X, a point's replay
    seed its row in X."""
    cchvae = config.recourse.algorithm == "cchvae"
    replays = shadows and "cfd_lrt" in config.attacks
    shadow_seed = derive_seed(config.seed, "shadow-ensemble")
    first = {}
    if cchvae and replays:
        vae_cfg = dataclasses.replace(config.vae_train, seed=derive_seed(shadow_seed, "shadow-vae"))
        first["shadow_vae"] = functools.partial(nn.train_vae, bundle.shadow_pool, vae_cfg)
    if cchvae:
        vae_cfg = dataclasses.replace(config.vae_train, seed=derive_seed(config.seed, "owner-vae"))
        first["owner_vae"] = functools.partial(nn.train_vae, bundle.owner_train, vae_cfg)
    train_cfg = dataclasses.replace(config.train, seed=derive_seed(config.seed, "owner-train"))
    first["owner"] = functools.partial(nn.train_classifier, bundle.owner_train,
                                       config.model_architecture, train_cfg)

    def shadow(i: int, X: np.ndarray, vae: VaeModel | None) -> tuple:
        model = attack_mod.train_shadow(bundle.shadow_pool, i, config.model_architecture,
                                        config.train, shadow_seed)
        return attack_mod.shadow_column(model, i, shadow_seed, X, range(len(X)),
                                        (config.recourse, vae) if replays else None)

    lrt = shadows and {"cfd_lrt", "loss_lrt"} & set(config.attacks)
    return first, {f"shadow_{i}": functools.partial(shadow, i)
                   for i in range(config.n_shadow_models if lrt else 0)}


def _sample_game(config: ExperimentConfig, owner: Model, owner_vae: VaeModel | None,
                 bundle: SplitBundle, p_out: np.ndarray) -> tuple[Game, dict, dict]:
    """Draw balanced negatively-classified member/non-member points and
    issue one recourse batch over them; p_out holds the owner's
    probability of each eval_out row. Failed recourses are dropped with
    counts; the batch's trace (search counters) is returned as well."""
    train_ds = bundle.owner_train
    out_ds = bundle.eval_out

    p_train = nn.predict_proba_batch(owner, train_ds.features)
    neg_train = np.flatnonzero(p_train < 0.5)
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

    point_ids = [f"m{int(r):05d}" for r in member_rows] + \
        [f"n{int(r):05d}" for r in non_member_rows]
    points = np.concatenate([train_ds.features[member_rows], out_ds.features[non_member_rows]])
    labels = np.concatenate([train_ds.labels[member_rows], out_ds.labels[non_member_rows]])
    member = np.arange(2 * k) < k
    seeds = [derive_seed(config.seed, "game-recourse", idx) for idx in range(2 * k)]
    batch = config.recourse.generate_batch(owner, points, seeds, vae=owner_vae)
    failed = ~batch.valid
    failures = {"member": int(failed[member].sum()), "non_member": int(failed[~member].sum())}
    n_m, n_n = k - failures["member"], k - failures["non_member"]
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
    kept = batch.valid
    if kept.all():  # nothing to drop, so nothing to copy
        return Game(point_ids, points, labels, member, batch), meta, batch.trace
    return Game([pid for pid, v in zip(point_ids, kept) if v], points[kept], labels[kept],
                member[kept], batch.take(kept)), meta, batch.trace


def _stage(trace: dict[str, Any], name: str | None, span: str | None = None,
           since: float = 0.0) -> float:
    """Close a stage: the audit process's ru_maxrss (KiB) under name and,
    if it closes the timed span begun at `since` (a perf_counter reading),
    its wall seconds under `span`. Returns the time, the next span's start."""
    now = time.perf_counter()
    if span is not None:
        trace[span] = now - since
    if name is not None:
        trace["ru_maxrss_kb"][name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return now


def run_experiment(config: ExperimentConfig, stop: str = "report") -> ExperimentReport:
    """The audit pipeline, run through the stage `stop`: "owner" (data,
    split, the owner model and, for cchvae, its VAE), then "game", then
    "report" (shadow models, attack scores and metrics; saved as
    report.json, the score and ROC files and trace.json when out_dir is
    set). A run stopped before "report" trains only the owner's models and
    writes nothing; the train and recourse commands run such prefixes. An
    out_dir that cannot be a directory (check_out) is a ConfigError before
    any data is built.

    One TaskPool serves the whole audit, one task per model, all listed
    by _model_tasks. It first starts the shadow VAE and the owner's
    models, longest first; the game runs here as soon as the owner (and
    its VAE) return. Then every shadow task starts on the game's points
    and the shadow VAE, and returns only its model's column of the
    offline LRTs, its probabilities and, for cfd_lrt, its replay's
    distances, so the audit process never holds a shadow model. The
    columns are taken in model order and stacked into one matrix of
    probabilities and one of distances, a row per game point.

    trace.json holds the wall seconds of the stages up to the owner model
    (prepare_s), the game (game_s) and the shadow columns and attack scores
    (attacks_s); the pool's worker count (workers) and each pool task's start
    from the pool's creation, wall and process seconds, as measured where it
    ran (tasks; a shadow task's cover its model's training, probabilities and
    replay); the game batch's search counters (game_search); the audit
    process's ru_maxrss in KiB at each stage boundary (ru_maxrss_kb); and for
    cfd_lrt the shadow skips summed over the points (shadow_skips) and the
    number of starved points it dropped (cfd_lrt_starved).
    """
    if stop not in ("owner", "game", "report"):
        raise ValueError(f"stop must be 'owner', 'game' or 'report', got {stop!r}")
    if stop == "report" and config.out_dir:
        check_out(config.out_dir)
    trace: dict[str, Any] = {"ru_maxrss_kb": {}}
    start = time.perf_counter()
    bundle, data_provenance = build_split(config)
    _stage(trace, "data")
    first, shadows = _model_tasks(config, bundle, shadows=stop == "report")
    with TaskPool({**first, **shadows}) as pool:
        trace["tasks"], trace["workers"] = pool.times, pool.workers
        for tag in first:
            pool.start(tag)
        owner_vae = pool.take("owner_vae") if "owner_vae" in first else None
        owner = pool.take("owner")
        p_out = nn.predict_proba_batch(owner, bundle.eval_out.features)
        correct = (p_out >= 0.5) == (bundle.eval_out.labels == 1)
        report = ExperimentReport(
            config=config.snapshot,
            model_meta={
                "architecture": config.model_architecture,
                "train_accuracy": owner.training_meta.get("train_accuracy"),
                "test_accuracy": float(np.mean(correct)),
                "final_train_loss": owner.training_meta.get("final_train_loss"),
            },
            game_meta={},
            attacks={},
            game=None,
            trace=trace,
            owner_model=owner,
            owner_vae=owner_vae,
            data_provenance=data_provenance,
        )
        start = _stage(trace, "owner", "prepare_s", start)
        if stop == "owner":
            return report

        game, report.game_meta, trace["game_search"] = _sample_game(config, owner, owner_vae,
                                                                    bundle, p_out)
        report.game = game
        start = _stage(trace, "game", "game_s", start)
        if stop == "game":
            return report

        probs = dists = None
        if shadows:
            shadow_vae = pool.take("shadow_vae") if "shadow_vae" in first else None
            for tag in shadows:
                pool.start(tag, game.points, shadow_vae)
            columns = [pool.take(tag) for tag in shadows]  # in model order
            probs = np.column_stack([p for p, _ in columns])
            if "cfd_lrt" in config.attacks:
                dists = np.column_stack([d for _, d in columns])
            _stage(trace, "shadows")
    # the scorers receive the transcript's arrays, never the game's answer
    # key; the loss attacks share one pass of the owner over the game's points
    costs, labels = game.recourse.costs, game.labels
    if {"loss", "loss_lrt"} & set(config.attacks):
        owner_probs = nn.predict_proba_batch(owner, game.points)
    scorers = {
        "cfd": lambda: attack_mod.cfd_attack_scores(costs),
        "cfd_lrt": lambda: attack_mod.cfd_lrt_attack_scores(costs, dists, config.alpha_grid),
        "loss": lambda: attack_mod.loss_attack_scores(owner_probs, labels),
        "loss_lrt": lambda: attack_mod.loss_lrt_attack_scores(owner_probs, labels, probs,
                                                              config.alpha_grid),
    }
    scores = {name: scorers[name]() for name in config.attacks}
    _stage(trace, None, "attacks_s", start)
    if "cfd_lrt" in scores:
        trace["shadow_skips"] = {"positive": int((probs >= 0.5).sum()),
                                 "failed": int(((probs < 0.5) & np.isnan(dists)).sum())}
        trace["cfd_lrt_starved"] = len(game.point_ids) - scores["cfd_lrt"].rows.size

    for name, sc in scores.items():
        if sc.rows.size == 0:
            raise GameSetupError(f"attack {name!r} produced no scores")
        truth = game.member[sc.rows]
        report.game_meta.setdefault("scored_points", {})[name] = {
            "n_scored": int(sc.rows.size),
            "n_skipped": len(game.point_ids) - int(sc.rows.size),
        }
        curves = {direction: metrics_mod.roc(sc.score, truth, higher_means_member=higher)
                  for direction, higher in (("standard", sc.higher_means_member),
                                            ("reversed", not sc.higher_means_member))}
        reports = {direction: metrics_mod.report(curve) for direction, curve in curves.items()}
        report.attacks[name] = AttackResult(sc, curves, reports,
                                            max(reports, key=lambda d: reports[d].auc))
    _stage(trace, "end")
    if config.out_dir:
        report.save(config.out_dir)
    return report


def summary_rows(doc: Any) -> list[list]:
    """The summary.csv rows of a report.json document, one per attack and
    direction; KeyError or TypeError where it lacks a value of theirs."""
    experiment_id, fprs = doc["experiment_id"], [repr(a) for a in metrics_mod.REPORT_FPRS]
    rows = []
    for name in sorted(doc["attacks"]):
        for direction in ("standard", "reversed"):
            m = doc["attacks"][name]["directions"][direction]
            rows.append([experiment_id, name, direction, m["auc"], m["balanced_accuracy"],
                         *(m["tpr_at_fpr"][a] for a in fprs)])
    return rows


def read_report(path: str | Path) -> dict:
    """The report.json document at path, or a ConfigError that names the
    path where it cannot be read or lacks a value of its summary rows."""
    doc = _read_json(path, "report")
    try:
        summary_rows(doc)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"report {path} is not an audit report: "
                          f"{type(exc).__name__} {exc}") from exc
    return doc


def write_summary(report_docs: Sequence[dict], path: str | Path) -> None:
    """One CSV row per (experiment, attack, direction) of report.json
    documents (summary_rows)."""
    if not report_docs:
        raise ValueError("a summary needs at least one report")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["experiment_id", "attack", "direction", "auc", "ba",
                         *(f"tpr_at_{a!r}" for a in metrics_mod.REPORT_FPRS)])
        for doc in report_docs:
            writer.writerows(summary_rows(doc))


def run_sweep(raw_config: dict) -> list[ExperimentReport]:
    """Cross-product sweep over data.d and/or master seeds.

    The config's optional "sweep" section holds {"d": [...], "seed": [...]},
    each a non-empty list of distinct values that the data.d and seed rows
    of CONFIG_TABLE accept; d only for synthetic data, since a file fixes
    d. The base config is checked once, values that each run overrides
    included; each combination then runs on a copy of its snapshot, in
    <out_dir>/<run id> when out_dir is set, with a combined summary.csv
    beside the runs. Every run's config, then every run's directory in run
    order and summary.csv (check_out), is checked before any data is built.
    """
    spec = raw_config.get("sweep", {})
    if not isinstance(spec, dict) or set(spec) - {"d", "seed"}:
        raise ConfigError(f"sweep must be a JSON object with the keys d and/or seed, got {spec!r}")
    for key, target in (("d", "data.d"), ("seed", "seed")):
        _, kind, bounds, _ = _ROWS[target]
        if key in spec and not (spec[key] and _fits(spec[key], [kind], bounds)
                                and len(set(spec[key])) == len(spec[key])):
            raise ConfigError(f"sweep.{key} must be a non-empty list of distinct {target} "
                              f"values, each {_requirement(target)}; got {spec[key]!r}")
    snap = normalize_config(raw_config)
    if "d" in spec and snap["data"]["kind"] == "file":
        raise ConfigError("sweep.d cannot vary d with data.kind 'file': the file fixes d")
    out_dir = Path(snap["out_dir"]) if snap["out_dir"] else None

    configs = []
    for d in spec.get("d", [snap["data"]["d"]]):
        for seed in spec.get("seed", [snap["seed"]]):
            variant = copy.deepcopy(snap)
            variant["data"]["d"], variant["seed"] = d, seed
            run_id = "_".join(f"{key}{value}" for key, value in (("d", d), ("seed", seed))
                              if key in spec)
            if run_id:
                variant["experiment_id"] += f"_{run_id}"
            if out_dir is not None:
                variant["out_dir"] = str(out_dir / (run_id or "run"))
            configs.append(config_from_dict(variant))
    if out_dir is not None:
        for cfg in configs:
            check_out(cfg.out_dir)
        check_out(out_dir / "summary.csv", file=True)
    reports = [run_experiment(cfg) for cfg in configs]
    if out_dir is not None:
        write_summary([r.to_json() for r in reports], out_dir / "summary.csv")
    return reports

import functools
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from recourse_mi import attack, runner
from recourse_mi.nn import Model, predict_proba_batch
from recourse_mi.pool import TaskPool
from recourse_mi.seeds import derive_seed


def make_logistic(theta, bias) -> Model:
    """Logistic-regression Model with given weights/bias."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1, 1)
    return Model(
        weights=[theta],
        biases=[np.array([float(bias)])],
        architecture=[],
        d=theta.shape[0],
    )


def prob_of(model: Model, x: np.ndarray) -> float:
    """The probability of one point: row 0 of predict_proba_batch over the
    batch of x alone."""
    return float(predict_proba_batch(model, x[None, :])[0])


def records(batch) -> list[dict]:
    """Every row of a RecourseBatch as its JSON record."""
    return [batch.row_json(i) for i in range(len(batch))]


@pytest.fixture(autouse=True)
def no_leftover_workers():
    """Fail a test that leaves worker processes running; end them first."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert not left, f"worker processes left running: {left}"


def use_cpus(monkeypatch, n: int) -> None:
    """Make the process's CPU affinity read as n CPUs, so a TaskPool runs
    its tasks on min(n, tasks) workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def halfspace_2d() -> Model:
    """Positive iff x1 > 1 (boundary distance from origin is exactly 1)."""
    return make_logistic([4.0, 0.0], -4.0)


def run_all(tasks: dict) -> dict:
    """{tag: task()} for every task, on one TaskPool, started in order."""
    with TaskPool(tasks) as pool:
        for tag in tasks:
            pool.start(tag)
        return {tag: pool.take(tag) for tag in tasks}


def train_shadows(shadow_pool, n_models, architecture, trainer_config, seed) -> list[Model]:
    """The shadow models that an audit's shadow tasks (runner._model_tasks)
    train through attack.train_shadow, in index order, trained by run_all."""
    done = run_all({i: functools.partial(attack.train_shadow, shadow_pool, i, architecture,
                                         trainer_config, seed) for i in range(n_models)})
    return list(done.values())


def shadow_matrices(models, X, point_seeds, replay=None):
    """The shadow probability and distance matrices (None without a replay)
    of the given shadow models over the rows of X, a column per model in
    model order, as an audit stacks them: task i of one TaskPool (forked
    workers when use_cpus allows), started on (X, point_seeds, replay),
    returns models[i]'s attack.shadow_column. `replay` is (recourse
    config, shadow seed, shadow VAE): the task's arguments and the seed its
    shadow models hold."""
    seed, replay = (replay[1], (replay[0], replay[2])) if replay else (0, None)
    tasks = {i: functools.partial(attack.shadow_column, m, i, seed) for i, m in enumerate(models)}
    with TaskPool(tasks) as pool:
        for i in tasks:
            pool.start(i, X, point_seeds, replay)
        columns = [pool.take(i) for i in tasks]
    probs = np.column_stack([p for p, _ in columns])
    return probs, None if replay is None else np.column_stack([d for _, d in columns])


def skip_counts(probs, dists):
    """Per point, the replay skips of the models that classify it
    positively and of those whose search failed."""
    return (probs >= 0.5).sum(axis=1), ((probs < 0.5) & np.isnan(dists)).sum(axis=1)


def batch_split_agreement(cfg, cuts) -> tuple[bool, bool]:
    """Whether the game recourses and the shadow distance matrix of the
    experiment `cfg` (scfe or growing_spheres recourse) come out the same
    when its game points are issued in blocks split at the row indices
    `cuts` as in one block."""
    rep = runner.run_experiment(cfg, stop="game")
    game = rep.game
    X, seeds = game.points, game.recourse.seeds
    blocks = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, len(X)])]
    split = [r for b in blocks for r in records(cfg.recourse.generate_batch(
        rep.owner_model, X[b], seeds[b], vae=rep.owner_vae))]
    game_equal = split == records(game.recourse)
    shadow_seed = derive_seed(cfg.seed, "shadow-ensemble")
    bundle, _ = runner.build_split(cfg)
    models = train_shadows(bundle.shadow_pool, cfg.n_shadow_models,
                           cfg.model_architecture, cfg.train, shadow_seed)
    replay = (cfg.recourse, shadow_seed, None)
    whole = shadow_matrices(models, X, range(len(X)), replay=replay)
    parts = [shadow_matrices(models, X[b], range(len(X))[b], replay=replay) for b in blocks]
    matrix_equal = all(np.array_equal(got, np.concatenate(stacked), equal_nan=True)
                       for got, stacked in zip(whole, zip(*parts), strict=True))
    return game_equal, matrix_equal

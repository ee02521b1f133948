import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from recourse_mi import attack, runner
from recourse_mi.nn import Model


def make_logistic(theta, bias) -> Model:
    """Logistic-regression Model with given weights/bias."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1, 1)
    return Model(
        weights=[theta],
        biases=[np.array([float(bias)])],
        architecture=[],
        d=theta.shape[0],
    )


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


def batch_split_agreement(cfg, cuts) -> tuple[bool, bool]:
    """Whether the game recourses and the shadow distance matrix of the
    experiment `cfg` come out the same when its game points are issued
    in blocks split at the row indices `cuts` as in one block."""
    prep = runner.prepare(cfg)
    samples, _ = runner._sample_game(cfg, prep)
    X = np.array([s.point for s in samples])
    seeds = [s.recourse.seed for s in samples]
    blocks = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, len(samples)])]
    split = [r.to_json() for b in blocks for r in cfg.recourse.generate_batch(
        prep.owner_model, X[b], seeds[b], vae=prep.owner_vae)]
    game_equal = split == [s.recourse.to_json() for s in samples]
    ensemble = prep.ensemble
    whole = attack.shadow_distance_matrix(X, ensemble, range(len(X)))
    parts = [attack.shadow_distance_matrix(X[b], ensemble, range(len(X))[b]) for b in blocks]
    matrix_equal = all(np.array_equal(got, np.concatenate(pieces), equal_nan=True)
                       for got, pieces in zip(whole, zip(*parts)))
    return game_equal, matrix_equal

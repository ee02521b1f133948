import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import recourse_mi
from recourse_mi import data as data_mod, normal, recourse
from recourse_mi.attack import (
    NormalFit,
    cfd_lrt_attack_scores,
    cfd_statistic,
    fit_normal_mle,
    loss_attack_scores,
    loss_lrt_attack_scores,
    loss_lrt_score,
    normal_quantile,
    shadow_column,
)
from recourse_mi.data import Dataset, SyntheticSpec, generate_synthetic, standardize
from recourse_mi.nn import (
    TrainConfig,
    TrainingDivergedError,
    bce,
    logit_confidence,
    predict_proba_batch,
    train_classifier,
    train_vae,
)
from recourse_mi.pool import TaskPool
from recourse_mi.recourse import (
    RecourseConfig,
    RecoursePreconditionError,
    ScfeParams,
    SearchParams,
    growing_spheres,
    row_costs,
)
from recourse_mi.seeds import derive_seed

from conftest import (has_children, make_logistic, prob_of, records, run_all, shadow_matrices,
                      skip_counts, train_shadows, use_cpus)
from reference import lognormal_quantile_oracle, normal_cdf


def loss_of(m, x, y):
    return float(bce(prob_of(m, x), y))


def confidence_of(m, x, y):
    return float(logit_confidence(prob_of(m, x), y))


def shadow_distances(x, models, replay, point_seed):
    """The shadow distances of one point in model order: its row of a
    one-row distance matrix, without the NaNs of skipped models."""
    row = shadow_matrices(models, x[None, :], [point_seed], replay=replay)[1][0]
    return row[~np.isnan(row)]


def cfd_lrt_scores(points, costs, models, replay, alphas=(0.01, 0.05, 0.1)):
    """cfd_lrt scores of the rounds at `points`, whose recourses cost
    `costs`, against the shadow distance matrix, round i replayed with
    point seed i."""
    _, dists = shadow_matrices(models, points, range(len(points)), replay=replay)
    return cfd_lrt_attack_scores(np.asarray(costs, dtype=np.float64), dists, alphas)


class TestCfdStatistic:
    def test_pass_through(self):
        assert cfd_statistic(np.array([2.0])).tolist() == [2.0]

    def test_floor(self):
        assert cfd_statistic(np.array([0.0, 2.0])).tolist() == [1e-12, 2.0]

    def test_matches_recomputed_cost(self, halfspace_2d):
        x = np.array([0.0, 0.0])
        res = growing_spheres(halfspace_2d, x[None], SearchParams(), "l1", [1])
        stat = cfd_statistic(res.costs)[0]
        assert stat == row_costs(res.counterfactuals - x, "l1")[0]


class TestLogNormalFit:
    """cfd_lrt's log-normal fit: fit_normal_mle of the log-samples."""

    def test_all_e(self):
        fit = fit_normal_mle(np.log([np.e, np.e, np.e]))
        assert fit.mu == pytest.approx(1.0, abs=1e-15)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-15)
        assert fit.n == 3

    def test_single_sample(self):
        fit = fit_normal_mle(np.log([1.0]))
        assert fit.mu == 0.0 and fit.sigma2 == 0.0 and fit.n == 1

    def test_one_and_e_squared(self):
        fit = fit_normal_mle(np.log([1.0, np.e**2]))
        assert fit.mu == pytest.approx(1.0, abs=1e-12)
        assert fit.sigma2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            cfd_lrt_one(1.0, [1.0, 0.0], (0.05,))
        with pytest.raises(ValueError):
            fit_normal_mle(np.log([]))

    def test_matches_direct_formula(self):
        # the two-line MLE computed longhand, independent of the module
        rng = np.random.default_rng(0)
        s = rng.lognormal(mean=0.3, sigma=0.8, size=257)
        fit = fit_normal_mle(np.log(s))
        logs = [float(np.log(v)) for v in s]
        mu = sum(logs) / len(logs)
        sigma2 = sum((mu - l) ** 2 for l in logs) / len(logs)
        assert fit.mu == pytest.approx(mu, abs=1e-12)
        assert fit.sigma2 == pytest.approx(sigma2, abs=1e-12)


class TestLogNormalQuantile:
    """The log-normal quantile of a fit of log-samples: exp(normal_quantile)."""

    def test_median_is_exp_mu(self):
        for s2 in (0.0, 0.5, 4.0):
            assert math.exp(normal_quantile(NormalFit(0.0, s2, 5), 0.5)) == \
                pytest.approx(1.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        for mu in (-1.0, 0.0, 0.7):
            for s2 in (0.04, 1.0, 2.5):
                for q in (0.01, 0.1, 0.5, 0.9, 0.975, 0.99):
                    got = math.exp(normal_quantile(NormalFit(mu, s2, 8), q))
                    want = lognormal_quantile_oracle(mu, s2, q)
                    assert got == pytest.approx(want, abs=1e-8, rel=1e-8)

    def test_degenerate_fit(self):
        fit = NormalFit(1.0, 0.0, 3)
        for q in (0.01, 0.5, 0.99):
            assert math.exp(normal_quantile(fit, q)) == pytest.approx(np.e, abs=1e-12)

    def test_monotone_in_q(self):
        fit = NormalFit(0.2, 0.9, 10)
        qs = np.linspace(0.01, 0.99, 50)
        vals = [math.exp(normal_quantile(fit, q)) for q in qs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_q_zero_and_one_give_zero_and_inf(self):
        # the ends of the distance range, as ndtri gives -inf and inf
        assert math.exp(normal_quantile(NormalFit(0.0, 1.0, 3), 0.0)) == 0.0
        assert math.exp(normal_quantile(NormalFit(0.0, 1.0, 3), 1.0)) == math.inf


def cfd_lrt_one(t0, dists, alphas):
    """cfd_lrt's statistic, score and guesses (alpha -> member) of one
    point with distance t0 and shadow distances `dists`."""
    sc = cfd_lrt_attack_scores(np.array([t0], dtype=float), np.array([dists], dtype=float),
                               alphas)
    assert sc.rows.tolist() == [0]
    return SimpleNamespace(statistic=sc.statistic.item(), score=sc.score.item(),
                           member_at={a: bool(m[0]) for a, m in sc.member_at.items()})


class TestCfdLrtDecide:
    """cfd_lrt's guess at level alpha: MEMBER iff log t0 reaches the
    (1 - alpha)-quantile of the fit of the log shadow distances."""

    def test_degenerate_above(self):
        sc = cfd_lrt_one(np.e + 0.1, [np.e] * 4, (0.05,))
        assert sc.member_at == {0.05: True} and sc.score == 1.0

    def test_degenerate_below(self):
        sc = cfd_lrt_one(np.e - 0.1, [np.e] * 4, (0.05,))
        assert sc.member_at == {0.05: False} and sc.score == 0.0

    @given(
        dists=st.lists(st.floats(1e-3, 50.0), min_size=2, max_size=16),
        t0=st.floats(1e-6, 50.0),
        alpha=st.floats(0.001, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_score_decision_coherence(self, dists, t0, alpha):
        fit = fit_normal_mle(np.log(dists))
        sc = cfd_lrt_one(t0, dists, (alpha,))
        stat = np.log([t0]).item()  # logged as the shadow distances are
        assert sc.member_at[alpha] is (stat >= normal_quantile(fit, 1.0 - alpha))
        assert sc.score == loss_lrt_score(stat, fit)

    def test_a_distance_equal_to_every_shadow_distance_scores_the_tie(self):
        # the statistic and the shadow distances go through one log, so each
        # point sits on its degenerate fit's mean; math.log beside np.log
        # scored some of these points 1.0 or 0.0
        t0s = np.random.default_rng(3).lognormal(size=20_000)
        sc = cfd_lrt_attack_scores(t0s, np.repeat(t0s[:, None], 4, axis=1), (0.05,))
        assert sc.rows.size == t0s.size and (sc.score == 0.5).all()

    def test_score_threshold_sweep_matches_decisions(self):
        # away from rounding, MEMBER exactly when the score reaches 1 - alpha
        rng = np.random.default_rng(12)
        for _ in range(100):
            dists = rng.lognormal(float(rng.normal()), float(rng.uniform(0.1, 1.4)), size=16)
            t0 = float(rng.lognormal())
            alpha = float(rng.uniform(0.01, 0.99))
            sc = cfd_lrt_one(t0, dists, (alpha,))
            assert abs(sc.score - (1 - alpha)) > 1e-9
            assert sc.member_at[alpha] is (sc.score >= 1 - alpha)


class TestLevelAlpha:
    """Both LRTs guess MEMBER for an alpha share of the statistics drawn
    from a point's own OUT fit, within 4 binomial standard errors."""

    ALPHAS = (0.01, 0.05, 0.1)
    N = 20_000

    def assert_level(self, scores):
        assert scores.rows.size == self.N
        for a in self.ALPHAS:
            share = scores.member_at[a].mean()
            assert abs(share - a) <= 4 * math.sqrt(a * (1 - a) / self.N), (a, share)

    def test_cfd_lrt(self):
        rng = np.random.default_rng(0)
        dists = rng.lognormal(0.3, math.sqrt(0.5), size=16)
        fit = fit_normal_mle(np.log(dists))
        t0s = np.exp(rng.normal(fit.mu, math.sqrt(fit.sigma2), size=self.N))
        self.assert_level(cfd_lrt_attack_scores(t0s, np.tile(dists, (self.N, 1)), self.ALPHAS))

    def test_loss_lrt(self):
        # with a weight of 1 and no bias, a label-1 point's confidence is the point
        rng = np.random.default_rng(1)
        shadow_p = 1 / (1 + np.exp(-rng.normal(0.5, 1.2, size=8)))
        fit = fit_normal_mle(logit_confidence(shadow_p, 1))
        xs = rng.normal(fit.mu, math.sqrt(fit.sigma2), size=self.N)
        probs = predict_proba_batch(make_logistic([1.0], 0.0), xs[:, None])
        self.assert_level(loss_lrt_attack_scores(probs, np.ones(self.N, dtype=np.int64),
                                                 np.tile(shadow_p, (self.N, 1)), self.ALPHAS))


class TestCfdLrtScore:
    """cfd_lrt's score of a distance t0: loss_lrt_score of log t0 against
    the fit of the log shadow distances."""

    def test_median_is_half(self):
        for mu in (-1.0, 0.0, 2.0):
            fit = NormalFit(mu, 1.3, 9)
            assert loss_lrt_score(math.log(float(np.exp(mu))), fit) == \
                pytest.approx(0.5, abs=1e-12)

    def test_one_sigma(self):
        fit = NormalFit(0.0, 1.0, 9)
        assert loss_lrt_score(math.log(np.e), fit) == pytest.approx(normal_cdf(1.0), abs=1e-9)
        assert loss_lrt_score(math.log(np.e), fit) == pytest.approx(0.841345, abs=1e-6)

    def test_degenerate_snaps(self):
        fit = NormalFit(0.0, 0.0, 3)
        assert loss_lrt_score(math.log(0.5), fit) == 0.0
        assert loss_lrt_score(math.log(1.0), fit) == 0.5
        assert loss_lrt_score(math.log(2.0), fit) == 1.0

    def test_zero_t0_scores_at_the_distance_floor(self):
        # cfd_statistic floors t0, so log t0 is always finite
        dists = [1 / np.e, np.e]
        sc = cfd_lrt_one(0.0, dists, (0.05,))
        assert sc.statistic == recourse.DISTANCE_FLOOR
        assert sc.score == loss_lrt_score(math.log(recourse.DISTANCE_FLOOR),
                                          fit_normal_mle(np.log(dists)))


class TestLossScores:
    def test_loss_lrt_median(self):
        fit = NormalFit(0.7, 2.0, 8)
        assert loss_lrt_score(0.7, fit) == pytest.approx(0.5, abs=1e-12)

    def test_loss_lrt_one_sigma(self):
        fit = NormalFit(0.0, 4.0, 8)
        assert loss_lrt_score(2.0, fit) == pytest.approx(0.841345, abs=1e-6)

    def test_loss_lrt_monotone(self):
        fit = NormalFit(0.0, 1.0, 8)
        confs = np.linspace(-3, 3, 41)
        scores = [loss_lrt_score(c, fit) for c in confs]
        assert all(a <= b for a, b in zip(scores, scores[1:]))

    def test_loss_lrt_degenerate(self):
        fit = NormalFit(1.0, 0.0, 8)
        assert loss_lrt_score(2.0, fit) == 1.0
        assert loss_lrt_score(1.0, fit) == 0.5
        assert loss_lrt_score(0.0, fit) == 0.0

    def test_loss_attack_uses_bce_with_lower_direction(self):
        sc = loss_attack_scores(np.array([0.5]), np.array([1]))
        assert sc.rows.tolist() == [0]
        assert sc.statistic[0] == pytest.approx(np.log(2), abs=1e-12)
        assert sc.higher_means_member is False

    def test_loss_is_softplus_of_negative_confidence(self):
        m = make_logistic([2.0, -1.0], 0.25)
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = rng.normal(size=2)
            y = int(rng.integers(0, 2))
            conf = confidence_of(m, x, y)
            assert loss_of(m, x, y) == pytest.approx(np.log1p(np.exp(-conf)), abs=1e-9)

    def test_fit_normal_mle_population_variance(self):
        fit = fit_normal_mle([1.0, 3.0])
        assert fit.mu == 2.0 and fit.sigma2 == 1.0 and fit.n == 2


@pytest.fixture(scope="module")
def shadow_setup():
    """A standardized 2-d pool, 8 logistic shadow models trained on it and
    their growing_spheres replay setup (recourse config, seed, no VAE)."""
    ds = generate_synthetic(SyntheticSpec(d=2, n_per_class=300, seed=31,
                                          class_separation=1.0))
    std = standardize(ds)
    cfg = TrainConfig(learning_rate=0.05, epochs=60, seed=0)
    rc = RecourseConfig(algorithm="growing_spheres", norm="l1",
                        search_params=SearchParams(samples_per_radius=200))
    models = train_shadows(std, n_models=8, architecture=[], trainer_config=cfg, seed=99)
    return std, models, (rc, 99, None)


def test_batched_loss_scores_equal_per_point_losses(shadow_setup):
    # one forward pass per model over all points; every statistic must
    # equal its one-point loss / logit confidence, clamped tails included
    std, models, _ = shadow_setup
    owner = train_classifier(std, [8], TrainConfig(learning_rate=0.05, epochs=30, seed=4))
    rng = np.random.default_rng(8)
    points = np.concatenate([std.features[:25], rng.normal(scale=40.0, size=(5, 2))])
    labels = np.arange(len(points)) % 2
    owner_probs = predict_proba_batch(owner, points)
    loss = loss_attack_scores(owner_probs, labels)
    probs, _ = shadow_matrices(models, points, range(len(points)))
    lrt = loss_lrt_attack_scores(owner_probs, labels, probs, (0.01, 0.05, 0.1))
    assert loss.higher_means_member is False
    for i, (x, y) in enumerate(zip(points, labels)):
        assert loss.statistic[i] == loss.score[i] == loss_of(owner, x, y)
        conf = confidence_of(owner, x, y)
        fit = fit_normal_mle([confidence_of(m, x, y) for m in models])
        assert lrt.statistic[i] == conf and lrt.score[i] == loss_lrt_score(conf, fit)
    assert loss.rows.tolist() == lrt.rows.tolist() == list(range(len(points)))


class TestShadowEnsemble:
    """The shadow models of train_shadow, and their columns stacked in
    model order into the matrices that the LRTs take, as an audit stacks
    them; the hand-built cases run on 1 and on 2 CPUs."""

    def test_distances_positive_and_at_most_n(self, shadow_setup):
        std, models, replay = shadow_setup
        x = next(f for f, m in zip(std.features, std.labels)
                 if prob_of(models[0], f) < 0.5)
        d = shadow_distances(x, models, replay, point_seed=0)
        assert 2 <= d.size <= 8
        assert (d > 0).all()

    def test_deterministic(self, shadow_setup):
        std, models, replay = shadow_setup
        x = std.features[0]
        if prob_of(models[0], x) >= 0.5:
            x = std.features[1]
        d1 = shadow_distances(x, models, replay, point_seed=3)
        d2 = shadow_distances(x, models, replay, point_seed=3)
        assert np.array_equal(d1, d2)

    def test_halfspace_models_match_analytic_distance(self, monkeypatch):
        # hand-built shadow models: halfspaces with known boundaries; each
        # GS distance must fall in [distance, 1.5 * distance]
        models = [make_logistic([4.0, 0.0], -4.0 * b) for b in (1.0, 1.5, 2.0)]
        rc = RecourseConfig(algorithm="growing_spheres", norm="l1",
                            search_params=SearchParams(samples_per_radius=500,
                                                       max_radius=10.0))
        runs = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            runs.append(shadow_distances(np.zeros(2), models, (rc, 7, None), point_seed=0))
        d = runs[0]
        assert np.array_equal(runs[1], d) and d.size == 3
        for dist, boundary in zip(d, (1.0, 1.5, 2.0)):
            assert boundary <= dist <= 1.5 * boundary

    def test_too_few_samples_are_dropped(self, monkeypatch):
        # both models classify the query positively -> no distances at all,
        # so the point has no OUT fit and gets no score
        models = [make_logistic([0.0, 0.0], 3.0), make_logistic([0.0, 0.0], 5.0)]
        replay = (RecourseConfig(algorithm="growing_spheres"), 1, None)
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            probs, dists = shadow_matrices(models, np.zeros((1, 2)), [0], replay=replay)
            positive, failed = skip_counts(probs, dists)
            assert positive.tolist() == [2] and failed.tolist() == [0]
            assert np.isnan(dists).all()
            assert cfd_lrt_scores(np.zeros((1, 2)), [2.0], models, replay).rows.size == 0

    def test_cfd_lrt_starved_points_are_dropped(self, monkeypatch):
        # one model accepts everything, the others are halfspaces x1 > 1
        # and x2 > 1: (0, 0) keeps two distances, (0, 2) one, (2, 2) none
        models = [make_logistic([0.0, 0.0], 3.0), make_logistic([4.0, 0.0], -4.0),
                  make_logistic([0.0, 4.0], -4.0)]
        replay = (RecourseConfig(algorithm="growing_spheres"), 1, None)
        points = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            probs, dists = shadow_matrices(models, points, range(3), replay=replay)
            positive, failed = skip_counts(probs, dists)
            assert positive.tolist() == [1, 2, 3] and failed.tolist() == [0, 0, 0]
            assert (~np.isnan(dists)).sum(axis=1).tolist() == [2, 1, 0]
            assert cfd_lrt_scores(points, [2.0] * 3, models, replay).rows.tolist() == [0]
            assert cfd_lrt_scores(points[1:], [2.0] * 2, models, replay).rows.size == 0

    def test_matrix_rows_match_per_point_distances(self, shadow_setup):
        # model-major replay gives each point the distances, in model
        # order, that a one-row replay gives it with the same seed
        std, models, replay = shadow_setup
        X = std.features[:12]
        probs, dists = shadow_matrices(models, X, range(40, 52), replay=replay)
        assert probs.shape == dists.shape == (12, len(models))
        skips = skip_counts(probs, dists)
        for r, x in enumerate(X):
            assert np.isnan(dists[r]).sum() == skips[0][r] + skips[1][r]
            positive = failed = 0
            for i, m in enumerate(models):
                prob, dist = shadow_column(m, i, replay[1], x[None, :], [40 + r],
                                           (replay[0], replay[2]))
                assert prob.tolist() == [prob_of(m, x)] == [probs[r, i]]
                assert np.array_equal(dists[r, i], dist[0], equal_nan=True)
                positive += prob[0] >= 0.5
                failed += bool(prob[0] < 0.5 and np.isnan(dist[0]))
            assert (skips[0][r], skips[1][r]) == (positive, failed)

    def test_matrix_over_a_block_stacks_its_halves(self):
        ds = standardize(generate_synthetic(SyntheticSpec(d=40, n_per_class=200, seed=8,
                                                             class_separation=0.5)))
        rc = RecourseConfig(algorithm="scfe", scfe_params=ScfeParams(max_iters=100,
                                                                     max_retries=1))
        models = train_shadows(ds, n_models=4, architecture=[8],
                               trainer_config=TrainConfig(learning_rate=0.02, epochs=10),
                               seed=3)
        X, seeds = ds.features[:30], list(range(30))
        for i, model in enumerate(models):
            whole = shadow_column(model, i, 3, X, seeds, (rc, None))
            halves = [shadow_column(model, i, 3, X[part], seeds[part], (rc, None))
                      for part in (slice(0, 11), slice(11, 30))]
            for got, parts in zip(whole, zip(*halves)):
                assert np.array_equal(got, np.concatenate(parts), equal_nan=True)
        _, dists = shadow_matrices(models, X, seeds, replay=(rc, 3, None))
        assert np.isnan(dists).any() and not np.isnan(dists).all()

    def test_shadow_task_sends_two_floats_per_row(self, monkeypatch):
        # each shadow task sends back its model's probability and replay
        # distance of each row, not the model nor the d-float
        # counterfactuals of the recourses
        rng = np.random.default_rng(31)
        d, n, k = 200, 40, 4
        models = [make_logistic(rng.normal(size=d) * 0.05, -1.0) for _ in range(k)]
        rc = RecourseConfig(algorithm="scfe",
                            scfe_params=ScfeParams(max_iters=3, max_retries=1))
        X = rng.normal(size=(n, d))
        sent = []
        take = TaskPool.take

        def recording(pool, tag):
            out = take(pool, tag)
            sent.append(len(pickle.dumps(out)))
            return out

        monkeypatch.setattr(TaskPool, "take", recording)
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            del sent[:]
            probs, dists = shadow_matrices(models, X, range(n), replay=(rc, 3, None))
            assert len(sent) == k
            assert sum(sent) <= 16 * n * k + 512 * k
            # the matrix and skip counts still follow the replayed recourses
            for i, model in enumerate(models):
                neg = np.array([prob_of(model, x) < 0.5 for x in X])
                seeds = [derive_seed(3, f"shadow-recourse-{r}", i) for r in np.flatnonzero(neg)]
                batch = rc.generate_batch(model, X[neg], seeds)
                want = np.where(batch.valid, np.maximum(batch.costs, recourse.DISTANCE_FLOOR),
                                np.nan)
                assert np.array_equal(dists[neg, i], want, equal_nan=True)
                assert np.isnan(dists[~neg, i]).all()
            positive, failed = skip_counts(probs, dists)
            assert np.array_equal(positive + failed, np.isnan(dists).sum(axis=1))
            assert positive.sum() > 0 and failed.sum() > 0
            assert not np.isnan(dists).all()

    def test_cfd_lrt_scores_use_per_point_fits(self, shadow_setup):
        std, models, replay = shadow_setup
        owner = models[0]
        js = [j for j, x in enumerate(std.features[:40]) if prob_of(owner, x) < 0.5]
        X = std.features[js]
        costs = growing_spheres(owner, X, SearchParams(), "l1", js).costs
        scores = cfd_lrt_scores(X, costs, models, replay, alphas=(0.1,))
        by_row = dict(zip(scores.rows.tolist(), scores.score.tolist()))
        assert len(by_row) >= len(js) // 2
        for idx, x in enumerate(X):
            row = shadow_distances(x, models, replay, idx)
            if row.size < 2:
                assert idx not in by_row
                continue
            fit = fit_normal_mle(np.log(row))
            t0 = cfd_statistic(costs)[idx]
            assert by_row[idx] == loss_lrt_score(math.log(t0), fit)

    def test_shadow_models_never_trained_on_eval_rows(self, shadow_setup):
        std, models, _ = shadow_setup
        # the pool is the training universe here; the contract is that each
        # shadow trains on a strict subsample of the pool that the builder
        # received - verified via the training metadata row counts
        for m in models:
            assert m.training_meta["train_accuracy"] is not None
        # subsample size is half the pool
        assert models[0].training_meta["batch_size"] <= std.n // 2


class TestWorkers:
    def test_task_pool_forks_workers_that_run_closures_in_order(self, monkeypatch):
        # every inherited task of one TaskPool, results by tag
        offset = 10  # local state in a closure, which pickling could not send
        use_cpus(monkeypatch, 2)
        got = run_all({i: lambda i=i: (i + offset, os.getpid()) for i in range(5)})
        assert list(got) == list(range(5))
        assert [v for v, _ in got.values()] == list(range(10, 15))
        assert os.getpid() not in {pid for _, pid in got.values()}

    @pytest.mark.parametrize("reason", ["one_cpu", "no_affinity", "no_fork", "one_model"])
    def test_task_pool_runs_inline_without_workers(self, monkeypatch, reason):
        use_cpus(monkeypatch, 1 if reason == "one_cpu" else 2)
        if reason == "no_affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        if reason == "no_fork":
            monkeypatch.delattr(os, "fork")
        n = 1 if reason == "one_model" else 3
        got = run_all({i: lambda i=i: (i, os.getpid()) for i in range(n)})
        assert got == {i: (i, os.getpid()) for i in range(n)}

    def test_start_waits_for_an_idle_worker_and_sends_in_start_order(self, monkeypatch,
                                                                     tmp_path):
        # task k logs its start, waits until task k + 1 has started and logs
        # its end 0.1 s later (the last task at once), so on two workers
        # task k + 2 can reach a worker only once task k has ended
        use_cpus(monkeypatch, 2)
        log = tmp_path / "log"
        log.touch()

        def logged() -> list[str]:
            return log.read_text().split()

        def task(k: int, last: bool) -> int:
            with open(log, "a") as fh:
                fh.write(f"start{k}\n")
            if not last:
                while f"start{k + 1}" not in logged():
                    time.sleep(0.005)
                time.sleep(0.1)
            with open(log, "a") as fh:
                fh.write(f"end{k}\n")
            return os.getpid()

        def hung(signum, frame):
            raise TimeoutError("the tasks waited 10 s on each other")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            with TaskPool({k: lambda k=k: task(k, k == 3) for k in range(4)}) as pool:
                pool.start(0)
                while "start0" not in logged():  # so that task 0 logs first
                    time.sleep(0.005)
                pool.start(1)
                for k in (2, 3):
                    pool.start(k)
                    assert f"end{k - 2}" in logged()  # start waited for a worker
                pids = [pool.take(k) for k in range(4)]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert logged() == ["start0", "start1", "end0", "start2", "end1", "start3",
                            "end3", "end2"]
        assert pids[2] == pids[0] != pids[1] == pids[3]  # each to the worker that freed
        assert not has_children()

    def test_an_inline_task_runs_when_it_is_started(self, monkeypatch):
        use_cpus(monkeypatch, 1)
        calls = []
        with TaskPool({k: lambda k=k: calls.append(k) or -k for k in range(3)}) as pool:
            assert pool.workers == 1
            for k in range(3):
                pool.start(k)
                assert calls == list(range(k + 1))
            assert [pool.take(k) for k in (2, 0, 1)] == [-2, 0, -1]
        assert calls == [0, 1, 2]

    def test_an_inline_tasks_exception_re_raises_at_take(self, monkeypatch):
        use_cpus(monkeypatch, 1)

        class LocalError(Exception):  # inline, nothing is pickled
            pass

        def fails():
            raise LocalError("no recourse")

        with TaskPool({"fails": fails, "fine": lambda: 1}) as pool:
            assert pool.workers == 1
            pool.start("fails")
            pool.start("fine")
            assert pool.take("fine") == 1
            with pytest.raises(LocalError, match="^no recourse$") as err:
                pool.take("fails")
        assert "LocalError: no recourse" in str(err.value.__cause__)  # where it was raised
        assert "fails" not in pool.times and "fine" in pool.times

    @pytest.mark.parametrize("algorithm", ["scfe", "growing_spheres", "cchvae"])
    def test_ensemble_and_replay_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                                   algorithm):
        ds = standardize(generate_synthetic(SyntheticSpec(d=6, n_per_class=150, seed=12,
                                                             class_separation=0.5)))
        rc = RecourseConfig(algorithm=algorithm,
                            scfe_params=ScfeParams(max_iters=60, max_retries=1),
                            search_params=SearchParams(samples_per_radius=40, max_radius=2.0))
        vae = (train_vae(ds, TrainConfig(learning_rate=1e-3, epochs=3, seed=6))
               if algorithm == "cchvae" else None)
        runs = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            models = train_shadows(ds, n_models=3, architecture=[8],
                                   trainer_config=TrainConfig(learning_rate=0.02, epochs=8),
                                   seed=5)
            runs.append((models, shadow_matrices(models, ds.features[:30], range(30),
                                                 replay=(rc, 5, vae))))
        (one, (probs, dists)), (two, matrices_two) = runs
        for a, b in zip(one, two, strict=True):
            assert a.training_meta == b.training_meta
            for p, q in zip(a.weights + a.biases, b.weights + b.biases, strict=True):
                assert np.array_equal(p, q)
        for got, want in zip(matrices_two, (probs, dists), strict=True):
            assert np.array_equal(got, want, equal_nan=True)
        positive, failed = skip_counts(probs, dists)
        assert positive.any() and failed.any()
        assert not np.isnan(dists).all()

    def test_shadow_divergence_in_a_worker_raises_with_its_epoch(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        feats = np.ones((20, 2))
        feats[:, 1] = np.nan  # poisons every shadow model's first epoch
        pool = Dataset(feats, np.arange(20) % 2)
        with pytest.raises(TrainingDivergedError) as err:
            train_shadows(pool, n_models=2, architecture=[4],
                          trainer_config=TrainConfig(learning_rate=0.01, epochs=5), seed=0)
        assert err.value.epoch == 1
        assert str(err.value) == "non-finite parameters at epoch 1"
        assert type(err.value.__cause__).__name__ == "_RemoteTraceback"  # raised in a worker

    def test_a_worker_that_exits_without_a_result_names_its_task(self, monkeypatch):
        use_cpus(monkeypatch, 2)

        def hung(signum, frame):
            raise TimeoutError("take waited 5 s for a worker that had exited")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with pytest.raises(RuntimeError, match="^task 'exits' returned no result: its "
                                                   "worker exited with status 3$"):
                run_all({"sleeps": lambda: time.sleep(0.2), "exits": lambda: os._exit(3)})
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not has_children()

    def test_a_worker_lost_while_idle_names_the_next_task(self, monkeypatch):
        use_cpus(monkeypatch, 2)

        def hung(signum, frame):
            raise TimeoutError("start waited 5 s on a worker that had exited")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with TaskPool({"pid_0": os.getpid, "pid_1": os.getpid, "later": lambda: 1}) as pool:
                pool.start("pid_0")
                pool.start("pid_1")  # on the other worker, since the first is busy
                for tag in ("pid_0", "pid_1"):  # kill both idle workers, left unreaped
                    pid = pool.take(tag)
                    os.kill(pid, signal.SIGKILL)
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                with pytest.raises(RuntimeError, match="^task 'later' returned no result: its "
                                                       "worker exited with status -9$"):
                    pool.start("later")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not has_children()

    def test_an_exception_that_does_not_pickle_comes_back_by_its_type(self, monkeypatch):
        use_cpus(monkeypatch, 2)

        class LocalError(Exception):  # a local class does not pickle
            pass

        def fails():
            raise LocalError("no recourse")

        with pytest.raises(RuntimeError, match=r"^task 'fails' cannot send its "
                                               r"\S*LocalError: no recourse back") as err:
            run_all({"fine": lambda: 1, "fails": fails})
        assert "LocalError: no recourse" in str(err.value.__cause__)  # the worker's traceback


class TestGenerateBatch:
    def test_search_generators_keep_per_point_calls(self, halfspace_2d):
        rc = RecourseConfig(algorithm="growing_spheres",
                            search_params=SearchParams(samples_per_radius=100))
        X = np.array([[0.0, 0.0], [-1.0, 2.0], [0.5, -0.5]])
        batch = rc.generate_batch(halfspace_2d, X, [3, 4, 5])
        for i, (x, seed) in enumerate(zip(X, (3, 4, 5))):
            one = growing_spheres(halfspace_2d, x[None], rc.search_params, rc.norm, [seed])
            assert batch.row_json(i) == one.row_json(0)
            assert batch.seeds[i] == seed

    @pytest.mark.parametrize("algorithm,arch,block_rows", [
        pytest.param("scfe", [], None, id="arch0"),
        pytest.param("scfe", [16], None, id="arch1"),
        pytest.param("growing_spheres", [16], None, id="growing_spheres"),
        pytest.param("cchvae", [16], None, id="cchvae"),
        pytest.param("scfe", [16], 5, id="scfe_blocks_of_5"),
    ])
    def test_scfe_rows_do_not_depend_on_the_batch(self, monkeypatch, algorithm, arch,
                                                  block_rows):
        # for every generator, a block, the block split in two, and each
        # point alone give the same recourses bit for bit; with block_rows,
        # each SCFE attempt runs its rows in blocks of 5, which the first
        # attempt's 24 rows fill four times with a 4-row tail
        ds = standardize(generate_synthetic(SyntheticSpec(d=12, n_per_class=150, seed=5,
                                                             class_separation=0.6)))
        if block_rows is not None:
            monkeypatch.setattr(data_mod, "BLOCK_VALUES", block_rows * ds.d)
        model = train_classifier(ds, arch, TrainConfig(learning_rate=0.02, epochs=30, seed=6))
        vae = (train_vae(ds, TrainConfig(learning_rate=1e-3, epochs=30, seed=7))
               if algorithm == "cchvae" else None)
        negative = predict_proba_batch(model, ds.features) < 0.5
        X = ds.features[negative][:24]
        seeds = list(range(200, 224))
        rc = RecourseConfig(algorithm=algorithm,
                            scfe_params=ScfeParams(lam=1.0, max_iters=120),
                            search_params=SearchParams(samples_per_radius=50, max_radius=3.0))
        whole = records(rc.generate_batch(model, X, seeds, vae=vae))
        split = [r for part in (slice(0, 7), slice(7, 24))
                 for r in records(rc.generate_batch(model, X[part], seeds[part], vae=vae))]
        alone = [rc.generate_batch(model, X[i:i + 1], seeds[i:i + 1], vae=vae).row_json(0)
                 for i in range(len(X))]
        assert whole == split == alone
        assert any(r["valid"] for r in whole)
        if block_rows is not None:
            # the precondition covers the whole input and names the global row
            pos = ds.features[~negative][0]
            with pytest.raises(RecoursePreconditionError, match=r"\(row 17, "):
                rc.generate_batch(model, np.insert(X, 17, pos, axis=0), seeds + [224])

    def test_scfe_runs_as_one_batch(self, halfspace_2d):
        rc = RecourseConfig(algorithm="scfe", scfe_params=ScfeParams(max_iters=200))
        X = np.array([[0.0, 0.0], [-1.0, 2.0]])
        batch = rc.generate_batch(halfspace_2d, X, [8, 9])
        assert batch.seeds.tolist() == [8, 9]
        assert batch.valid.all() and batch.algorithm == "scfe"


class TestQuantileCalibration:
    def test_fitted_quantiles_calibrated(self):
        # Kolmogorov-style check: the fraction of fitted samples below the
        # q-quantile approaches q
        rng = np.random.default_rng(17)
        s = rng.lognormal(mean=0.5, sigma=1.1, size=10_000)
        fit = fit_normal_mle(np.log(s))
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            frac = float(np.mean(s < math.exp(normal_quantile(fit, q))))
            assert frac == pytest.approx(q, abs=0.02)


def ulp_neighbours(values, k=8):
    """Each value and its k nearest floats on either side."""
    out = []
    for v in values:
        lo = hi = np.float64(v)
        out.append(lo)
        for _ in range(k):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


def mismatches(port, oracle, xs):
    """Inputs where the port and the oracle differ, as bits: NaN matches NaN
    and the sign of a zero counts."""
    got = np.array([port(float(x)) for x in xs])
    want = oracle(xs)
    same = (got == want) & (np.signbit(got) == np.signbit(want))
    return xs[~(same | (np.isnan(got) & np.isnan(want)))]


class TestNormalPorts:
    """normal.ndtr/ndtri against the scipy.special routines they port."""

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.0, 5e-324])

    def test_ndtr_equals_scipy_on_random_inputs(self):
        rng = np.random.default_rng(2)
        # plus a dense band where erf's x T(x^2)/U(x^2) runs, |z| < sqrt(2)
        z = np.concatenate([rng.uniform(-40.0, 40.0, 120_000), rng.uniform(-1.5, 1.5, 100_000)])
        assert mismatches(normal.ndtr, special.ndtr, z).size == 0

    def test_ndtri_equals_scipy_on_random_inputs(self):
        rng = np.random.default_rng(3)
        tail = 10.0 ** rng.uniform(-300.0, 0.0, 60_000)
        upper = 1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 60_000)
        assert mismatches(normal.ndtri, special.ndtri,
                          np.concatenate([tail, upper])).size == 0

    def test_ndtr_equals_scipy_at_branch_boundaries(self):
        # |z|/sqrt(2) at 1/sqrt(2) (erf or erfc), 1 (erfc's erf fallback)
        # and 8 (P/Q or R/S), and z^2/2 at MAXLOG (erfc underflow)
        edges = [b * math.sqrt(2.0) for b in (normal.SQRT1_2, 1.0, 8.0)]
        edges.append(math.sqrt(2.0 * normal.MAXLOG))
        z = ulp_neighbours(edges + [-e for e in edges])
        assert mismatches(normal.ndtr, special.ndtr, z).size == 0

    def test_ndtri_equals_scipy_at_branch_boundaries(self):
        # q = exp(-2) and 1 - exp(-2) (central or tail), and the x = 8
        # switch from P1/Q1 to P2/Q2 near q = exp(-32), in both tails
        edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0)]
        q = ulp_neighbours(edges)
        assert mismatches(normal.ndtri, special.ndtri, q).size == 0

    def test_special_values_equal_scipy(self):
        assert mismatches(normal.ndtr, special.ndtr, self.SPECIAL).size == 0
        assert mismatches(normal.ndtri, special.ndtri, self.SPECIAL).size == 0
        assert normal.ndtri(0.0) == -math.inf and normal.ndtri(1.0) == math.inf


AUDIT_IMPORTS = """
import json, os, sys, threading
import recourse_mi
from recourse_mi import runner
from recourse_mi.pool import TaskPool
loaded = set(sys.modules)
print(json.dumps(sorted(loaded)))
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any host
threads, take = [], TaskPool.take  # the threads running whenever a result is awaited
TaskPool.take = lambda pool, tag: threads.append(threading.active_count()) or take(pool, tag)
runner.run_experiment(runner.config_from_dict(json.loads(sys.argv[1])))
print(json.dumps(sorted(set(sys.modules) - loaded)))
print(json.dumps(threads))
"""


def test_audit_imports_no_scipy_and_nothing_lazily(tmp_path):
    # Importing the package loads what an audit needs, and never scipy: a
    # module an audit loads for the first time would be timed as audit work.
    # No numpy submodule may load late either (np.setdiff1d, say, pulls in
    # numpy.ma).
    config = {
        "data": {"kind": "synthetic", "d": 6, "n_per_class": 400, "class_separation": 0.5},
        "train": {"learning_rate": 0.05, "epochs": 20},
        "recourse": {"scfe": {"max_iters": 120}},
        "attacks": {"which": ["cfd_lrt", "loss_lrt"], "n_shadow_models": 4},
        "eval": {"owner_n": 250, "shadow_n": 300, "eval_out_n": 200, "eval_points": 20},
        "out_dir": str(tmp_path),
    }
    src = str(Path(recourse_mi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", AUDIT_IMPORTS, json.dumps(config)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    at_import, during_audit, threads = (json.loads(line)
                                        for line in proc.stdout.splitlines()[-3:])
    assert not [m for m in at_import if m.split(".")[0] == "scipy"]
    assert "numpy.random" in at_import
    # the pool forks and pipes by hand: no executor, no helper threads
    assert not [m for m in at_import + during_audit
                if m.split(".")[0] in ("concurrent", "multiprocessing")]
    late = [m for m in during_audit if m.split(".")[0] in ("scipy", "numpy")]
    assert late == []
    assert json.loads((tmp_path / "trace.json").read_text())["workers"] == 2
    assert threads and set(threads) == {1}  # the audit process's main thread alone
    assert (tmp_path / "scores_loss_lrt.jsonl").is_file()

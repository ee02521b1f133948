import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recourse_mi import data as data_mod, recourse
from recourse_mi.data import SyntheticSpec, generate_synthetic, standardize
from recourse_mi.nn import (
    DimensionMismatchError,
    TrainConfig,
    predict_proba_batch,
    train_classifier,
    train_vae,
)
from recourse_mi.recourse import (
    RecoursePreconditionError,
    ScfeParams,
    SearchParams,
    cchvae,
    growing_spheres,
    row_costs,
    scfe,
    uniform_l1_ball_sample,
)

from conftest import make_logistic, prob_of, records
from reference import (
    cchvae_reference,
    grid_cheapest_valid_logistic,
    growing_spheres_reference,
    scfe_reference,
)


def cost(x, xp, norm):
    """The cost of the one counterfactual xp of x: row 0 of row_costs."""
    return float(row_costs(xp[None, :] - x, norm)[0])


def negatives(model, X):
    """The rows of X that the model classifies negatively."""
    return X[predict_proba_batch(model, X) < 0.5]


def row(batch, i=0):
    """Row i of a RecourseBatch as its JSON record's fields, the
    counterfactual as an array."""
    rec = batch.row_json(i)
    return SimpleNamespace(**dict(rec, counterfactual=np.array(rec["counterfactual"])))


class TestCost:
    def test_identity_is_zero(self):
        x = np.array([1.0, -2.0, 3.0])
        assert cost(x, x, "l1") == 0.0
        assert cost(x, x, "l2") == 0.0

    def test_unit_square_corner(self):
        x, xp = np.zeros(2), np.ones(2)
        assert cost(x, xp, "l1") == 2.0
        assert cost(x, xp, "l2") == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_dimension_mismatch(self):
        # row_costs takes a (n, d) difference matrix, not a vector
        with pytest.raises(DimensionMismatchError):
            row_costs(np.zeros(3), "l1")

    def test_row_costs_rejects_an_unknown_norm(self):
        with pytest.raises(ValueError, match="linf"):
            row_costs(np.zeros((1, 2)), "linf")

    @given(st.integers(1, 10), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_norm_inequalities(self, d, seed):
        rng = np.random.default_rng(seed)
        x, xp = rng.normal(size=d), rng.normal(size=d)
        l1 = cost(x, xp, "l1")
        l2 = cost(x, xp, "l2")
        assert l2 <= l1 + 1e-12
        assert l1 <= np.sqrt(d) * l2 + 1e-12

    @given(st.integers(1, 6), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_triangle(self, d, seed):
        rng = np.random.default_rng(seed)
        x, y, z = rng.normal(size=(3, d))
        for norm in ("l1", "l2"):
            assert cost(x, y, norm) == cost(y, x, norm)
            assert cost(x, z, norm) <= cost(x, y, norm) + cost(y, z, norm) + 1e-12

    @pytest.mark.parametrize("d", [1, 7, 800])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("algorithm", ["scfe", "growing_spheres", "cchvae"])
    def test_every_generator_stores_the_row_cost_of_its_counterfactual(self, algorithm,
                                                                      norm, d):
        # the stored cost is the row cost of (x, counterfactual) bit for
        # bit, however the generator computed it; the points sit just on
        # the negative side of a random hyperplane, so every search can
        # find a recourse
        ds, _ = standardize(generate_synthetic(SyntheticSpec(d=d, n_per_class=30, seed=d)))
        theta = np.random.default_rng(d).normal(size=d)
        model = make_logistic(theta, 0.0)
        X = ds.features[:6] - ((ds.features[:6] @ theta + 1e-3) / (theta @ theta))[:, None] * theta
        params = SearchParams(samples_per_radius=50, max_radius=3.0)
        seeds = [0] * len(X)
        if algorithm == "scfe":
            batch = scfe(model, X, ScfeParams(max_iters=100), norm, range(len(X)))
        elif algorithm == "growing_spheres":
            batch = growing_spheres(model, X, params, norm, seeds)
        else:
            vae = train_vae(ds, TrainConfig(learning_rate=1e-3, epochs=2, seed=2))
            batch = cchvae(model, vae, X, params, norm, seeds)
        assert batch.valid.any()
        for x, cf, c in zip(X, batch.counterfactuals, batch.costs):
            assert c == row_costs(cf[None, :] - x, norm)[0]


class TestUniformL1Ball:
    def test_all_points_inside(self):
        for d in (1, 2, 5, 20):
            pts = uniform_l1_ball_sample(np.zeros(d), 0.7, 2000, seed=d)
            norms = np.abs(pts).sum(axis=1)
            # exact at the math level; allow float-roundoff headroom
            assert norms.max() <= 0.7 * (1 + 1e-9)

    def test_inside_with_offset_center(self):
        center = np.array([3.0, -2.0, 11.0])
        pts = uniform_l1_ball_sample(center, 0.5, 5000, seed=4)
        norms = np.abs(pts - center).sum(axis=1)
        assert norms.max() <= 0.5 * (1 + 1e-9)

    def test_1d_mean_distance(self):
        # 1-d l1 ball is the interval [c-r, c+r]; E|p-c| = r/2
        pts = uniform_l1_ball_sample(np.array([2.0]), 1.0, 100_000, seed=7)
        mean_dist = np.abs(pts[:, 0] - 2.0).mean()
        assert mean_dist == pytest.approx(0.5, rel=0.01)

    def test_2d_volume_scaling(self):
        # P(||p|| <= r/2) = (1/2)^d = 1/4 in two dimensions
        pts = uniform_l1_ball_sample(np.zeros(2), 1.0, 100_000, seed=8)
        frac = np.mean(np.abs(pts).sum(axis=1) <= 0.5)
        assert frac == pytest.approx(0.25, abs=0.02)

    def test_deterministic(self):
        a = uniform_l1_ball_sample(np.zeros(3), 1.0, 50, seed=5)
        b = uniform_l1_ball_sample(np.zeros(3), 1.0, 50, seed=5)
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            uniform_l1_ball_sample(np.zeros(2), 0.0, 10, seed=0)


class TestScfe:
    def test_params_reject_an_infinite_step_size(self):
        with pytest.raises(ValueError, match="step_size=inf"):
            ScfeParams(step_size=float("inf"))

    def test_precondition(self):
        m = make_logistic([1.0], 0.0)
        with pytest.raises(RecoursePreconditionError):
            scfe(m, np.array([[5.0]]), ScfeParams(), "l1", [0])

    def test_matches_grid_oracle_on_shifted_halfspace(self):
        # theta=(1,0), b=-2: boundary at x1=2; from the origin the optimal
        # counterfactual sits just past (2, 0).
        m = make_logistic([1.0, 0.0], -2.0)
        x = np.array([0.0, 0.0])
        res = row(scfe(m, x[None], ScfeParams(lam=0.05), "l2", [0]))
        assert res.valid
        assert res.counterfactual[0] == pytest.approx(2.0, abs=0.2)
        assert abs(res.counterfactual[1]) < 0.2
        assert res.cost == pytest.approx(2.0, abs=0.2)

        # brute-force recourse optimum: cheapest grid point the model flips
        oracle_pt, oracle_cost = grid_cheapest_valid_logistic(
            np.array([1.0, 0.0]), -2.0, x, "l2",
            bounds=((0.0, 4.0), (-1.0, 1.0)), resolution=401)
        assert oracle_cost == pytest.approx(2.0, abs=0.02)
        assert abs(res.cost - oracle_cost) <= 0.05 * oracle_cost + 0.05

    def test_validity_when_reachable(self):
        m = make_logistic([2.0, -1.0], 0.3)
        x = np.array([-1.0, 0.5])
        assert prob_of(m, x) < 0.5
        res = row(scfe(m, x[None], ScfeParams(), "l1", [0]))
        assert res.valid
        assert prob_of(m, res.counterfactual) >= 0.5
        # recomputing the cost from the stored vectors gives the stored cost
        assert res.cost == cost(x, res.counterfactual, "l1")

    def test_deterministic(self):
        m = make_logistic([1.0, 1.0], -3.0)
        x = np.array([0.0, 0.0])
        r1 = row(scfe(m, x[None], ScfeParams(), "l1", [9]))
        r2 = row(scfe(m, x[None], ScfeParams(), "l1", [9]))
        assert np.array_equal(r1.counterfactual, r2.counterfactual)
        assert r1.cost == r2.cost and r1.trace == r2.trace

    def test_lambda_decay_on_hard_budget(self):
        # enormous lambda freezes x' at x; retries must decay it until the
        # loss term wins and a valid point appears
        m = make_logistic([1.0], -1.0)
        res = row(scfe(m, np.array([[0.0]]),
                       ScfeParams(lam=1e6, lam_decay=0.01, max_iters=300, max_retries=5),
                       "l1", [0]))
        assert res.valid
        assert res.trace["retries_used"] >= 1

    def test_unreachable_returns_invalid(self):
        # all-zero model predicts exactly 0.5 everywhere... use a strongly
        # negative bias with zero weights: p constant < 0.5, no recourse exists
        m = make_logistic([0.0, 0.0], -3.0)
        res = row(scfe(m, np.array([[0.0, 0.0]]),
                       ScfeParams(max_iters=50, max_retries=1), "l1", [0]))
        assert not res.valid
        assert res.cost == 0.0


@pytest.fixture(scope="module")
def scfe_models():
    ds, _ = standardize(generate_synthetic(SyntheticSpec(d=5, n_per_class=150, seed=3,
                                                         class_separation=0.8)))
    return ds, {"logistic": train_classifier(ds, [], TrainConfig(
                    learning_rate=0.05, epochs=40, seed=4)),
                "mlp": train_classifier(ds, [16, 8], TrainConfig(
                    learning_rate=0.01, epochs=40, seed=4))}


class TestScfeBatch:
    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("immutable", [(), (1, 3)])
    def test_matches_per_point_reference(self, scfe_models, arch, norm, immutable):
        """Batched rows follow the per-point loop: same valid flags and
        trace, cost equal up to summation order. lam=3 is too strong for
        most rows, so the batch mixes rows that finish after different
        numbers of lam-decay retries.

        A row that starts within one Adam step of the boundary (p > 0.45)
        can end with its iterates oscillating across it; there the
        last-bit difference between the engine's logit and the
        reference's own one-point logit grows over the iterations (to
        about 1e-11 in the l2 logistic case), so such rows are held to
        1e-9 and every other row to 1e-12."""
        ds, models = scfe_models
        model = models[arch]
        X = negatives(model, ds.features)[:12]
        params = ScfeParams(lam=3.0, lam_decay=0.3, max_iters=150, max_retries=3)
        batch = scfe(model, X, params, norm, seeds=list(range(100, 112)), immutable=immutable)
        assert len(batch) == len(X)
        retries = set()
        for i, x in enumerate(X):
            res = row(batch, i)
            ref = scfe_reference(model, x, params, norm, immutable)
            assert res.valid == ref["valid"]
            assert res.trace == ref["trace"]
            tol = 1e-9 if prob_of(model, x) > 0.45 else 1e-12
            assert abs(res.cost - ref["cost"]) <= tol
            assert res.seed == 100 + i
            retries.add(res.trace["retries_used"])
            if res.valid:
                assert res.cost == cost(x, res.counterfactual, norm)
                assert prob_of(model, res.counterfactual) >= 0.5
                assert np.array_equal(res.counterfactual[list(immutable)], x[list(immutable)])
        assert len(retries) >= 2 and max(retries) >= 1

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_retries_regroup_rows_across_blocks(self, scfe_models, monkeypatch, arch):
        # blocks of 3 rows: the rows that fail an attempt in different
        # blocks retry together, and every row still equals its own
        # one-row search and the unblocked batch
        ds, models = scfe_models
        model = models[arch]
        X = negatives(model, ds.features)[:12]
        params = ScfeParams(lam=3.0, lam_decay=0.3, max_iters=150, max_retries=3)
        seeds = list(range(100, 112))
        whole = records(scfe(model, X, params, "l1", seeds))
        monkeypatch.setattr(data_mod, "BLOCK_VALUES", 3 * ds.d)
        blocked = records(scfe(model, X, params, "l1", seeds))
        alone = [scfe(model, X[i:i + 1], params, "l1", seeds[i:i + 1]).row_json(0)
                 for i in range(len(X))]
        assert blocked == whole == alone
        retried = [i // 3 for i, r in enumerate(blocked) if r["trace"]["retries_used"] > 0]
        assert len(set(retried)) >= 2

    def test_every_row_must_be_negative(self):
        m = make_logistic([1.0], 0.0)
        with pytest.raises(RecoursePreconditionError):
            scfe(m, np.array([[-1.0], [5.0]]), ScfeParams(), "l1", [0, 1])

    def test_shape_and_seed_count_checked(self):
        m = make_logistic([1.0, 0.0], -1.0)
        with pytest.raises(DimensionMismatchError):
            scfe(m, np.zeros((2, 3)), ScfeParams(), "l1", [0, 1])
        with pytest.raises(ValueError, match="seeds"):
            scfe(m, np.zeros((2, 2)), ScfeParams(), "l1", [0])

    def test_scratch_is_bounded_by_the_row_block(self):
        # 200 rows of d=400 are a 640 KB block, and an (n, d) search keeps
        # about eleven such arrays live; in blocks of data.block_rows(d)
        # rows the traced peak stays near the results' own counterfactuals
        rng = np.random.default_rng(4)
        m = make_logistic(rng.normal(size=400) * 0.05, -6.0)
        X = rng.normal(size=(200, 400))
        tracemalloc.start()
        try:
            batch = scfe(m, X, ScfeParams(max_iters=20), "l1", range(200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(batch) == 200 and batch.valid.any()
        assert peak <= 3_000_000


class TestGrowingSpheres:
    def test_params_reject_a_nan_max_radius(self):
        with pytest.raises(ValueError, match="max_radius=nan"):
            SearchParams(max_radius=float("nan"))

    def test_params_reject_an_initial_radius_above_max_radius(self):
        # such a schedule has no radius, so every search would fail
        with pytest.raises(ValueError, match="initial_radius must be at most max_radius"):
            SearchParams(initial_radius=5.0, max_radius=1.0)
        assert SearchParams(initial_radius=1.0, max_radius=1.0).radii().tolist() == [1.0]

    def test_halfspace_boundary_band(self, halfspace_2d):
        x = np.array([0.0, 0.0])
        res = row(growing_spheres(halfspace_2d, x[None], SearchParams(), "l1", [3]))
        assert res.valid
        # true boundary distance is exactly 1; sampled cost cannot beat it
        assert 1.0 <= res.cost <= 1.5
        assert res.trace["radius"] >= res.cost - 1e-12

    def test_positive_model_rejected_then_near_boundary_first_radius(self):
        m = make_logistic([0.0, 0.0], 5.0)  # positive everywhere
        with pytest.raises(RecoursePreconditionError):
            growing_spheres(m, np.array([[4.0, 4.0]]), SearchParams(), "l1", [0])
        # boundary at x1=-0.005 with the query just below it: the first
        # radius already contains a large valid region
        near = make_logistic([100.0, 0.0], 0.5)
        res = row(growing_spheres(near, np.array([[-0.02, 0.0]]), SearchParams(), "l1", [1]))
        assert res.valid and res.trace["radii_tried"] == 1

    def test_exhausted_radius_returns_invalid(self):
        m = make_logistic([1.0, 0.0], -100.0)  # boundary at x1=100
        res = row(growing_spheres(m, np.zeros((1, 2)), SearchParams(max_radius=2.0), "l1", [2]))
        assert not res.valid

    def test_counterfactual_owns_its_row(self, halfspace_2d):
        # without a VAE or a mask the decode is the identity, and the pick
        # must not stay a view into the radius's (samples_per_radius, d) block
        batch = growing_spheres(halfspace_2d, np.zeros((1, 2)), SearchParams(), "l1", [3])
        assert batch.valid[0]
        for arr in (batch.counterfactuals, batch.columns["search_point"]):
            assert arr.flags.owndata and arr.shape == (1, 2)

    def test_deterministic(self, halfspace_2d):
        x = np.array([0.0, 0.0])
        r1 = row(growing_spheres(halfspace_2d, x[None], SearchParams(), "l2", [11]))
        r2 = row(growing_spheres(halfspace_2d, x[None], SearchParams(), "l2", [11]))
        assert np.array_equal(r1.counterfactual, r2.counterfactual)
        assert r1.trace == r2.trace


@pytest.fixture(scope="module")
def vae_setup():
    ds = generate_synthetic(SyntheticSpec(d=8, n_per_class=300, seed=21,
                                          class_separation=2.0))
    std, _ = standardize(ds)
    vae = train_vae(std, TrainConfig(learning_rate=1e-3, epochs=300, seed=2))
    return std, vae


class TestCchvae:
    def test_counterfactual_reconstructs_from_latent(self, vae_setup):
        std, vae = vae_setup
        m = make_logistic([1.0, 0, 0, 0, 0, 0, 0, 0], -0.5)
        neg = negatives(m, std.features)[0]
        res = row(cchvae(m, vae, neg[None], SearchParams(max_radius=20.0), "l1", [4]))
        assert res.valid
        z = np.array(res.trace["latent_point"])
        assert np.array_equal(vae.decode_batch(z[None, :])[0], res.counterfactual)
        assert prob_of(m, res.counterfactual) >= 0.5

    def test_exhausted_radius_invalid(self, vae_setup):
        std, vae = vae_setup
        m = make_logistic([1.0, 0, 0, 0, 0, 0, 0, 0], -1e6)
        neg = std.features[0]
        res = row(cchvae(m, vae, neg[None], SearchParams(max_radius=0.5), "l1", [5]))
        assert not res.valid

    def test_deterministic(self, vae_setup):
        std, vae = vae_setup
        m = make_logistic([1.0, 0, 0, 0, 0, 0, 0, 0], -0.5)
        neg = negatives(m, std.features)[0]
        r1 = row(cchvae(m, vae, neg[None], SearchParams(), "l1", [6]))
        r2 = row(cchvae(m, vae, neg[None], SearchParams(), "l1", [6]))
        assert np.array_equal(r1.counterfactual, r2.counterfactual)


class TestBallSearchOracle:
    @pytest.mark.parametrize("algorithm", ["growing_spheres", "cchvae"])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("immutable", [(), (1, 4)])
    def test_matches_reference_search(self, vae_setup, algorithm, norm, immutable):
        """Each search gives the row record of the closure-driven
        reference, counterfactual bytes included: over 5 seeds, on a
        schedule that finds recourses, one that exhausts its radii, and one
        of a single radius (max_radius == initial_radius)."""
        std, vae = vae_setup
        model = train_classifier(std, [8], TrainConfig(learning_rate=0.01, epochs=20, seed=3))
        points = negatives(model, std.features)[:2]
        schedules = [dict(samples_per_radius=40, max_radius=6.0),
                     dict(samples_per_radius=40, radius_step=0.05, max_radius=0.2),
                     dict(initial_radius=0.5, max_radius=0.5)]
        results = []
        for x in points:
            for schedule in schedules:
                for seed in range(5):
                    params = SearchParams(**schedule)
                    if algorithm == "growing_spheres":
                        got = growing_spheres(model, x[None], params, norm, [seed], immutable)
                        want = growing_spheres_reference(model, x, params, norm, seed, immutable)
                    else:
                        got = cchvae(model, vae, x[None], params, norm, [seed], immutable)
                        want = cchvae_reference(model, vae, x, params, norm, seed, immutable)
                    assert got.row_json(0) == want
                    assert got.counterfactuals[0].tobytes() == \
                        np.array(want["counterfactual"]).tobytes()
                    results.append(want)
        assert {r["valid"] for r in results} == {True, False}
        assert any(r["trace"]["radii_tried"] == 1 and r["trace"]["radius"] == 0.5
                   for r in results)
        assert any(not r["valid"] and r["trace"]["radii_tried"] == 3 for r in results)


class TestImmutableMask:
    def test_scfe_respects_mask(self):
        # boundary reachable through either coordinate; freeze the second
        m = make_logistic([1.0, 1.0], -2.0)
        x = np.array([0.0, 0.0])
        res = row(scfe(m, x[None], ScfeParams(), "l1", [0], immutable=(1,)))
        assert res.valid
        assert res.counterfactual[1] == 0.0
        assert res.counterfactual[0] > 0.0

    def test_growing_spheres_respects_mask(self, halfspace_2d):
        x = np.array([0.0, -3.0])
        res = row(growing_spheres(halfspace_2d, x[None], SearchParams(), "l1", [4],
                                  immutable=(1,)))
        assert res.valid
        assert res.counterfactual[1] == -3.0

    def test_cchvae_mask_pins_coordinates(self, vae_setup):
        std, vae = vae_setup
        m = make_logistic([1.0, 0, 0, 0, 0, 0, 0, 0], -0.5)
        neg = negatives(m, std.features)[0]
        res = row(cchvae(m, vae, neg[None], SearchParams(), "l1", [6], immutable=(3, 5)))
        if res.valid:
            assert res.counterfactual[3] == neg[3]
            assert res.counterfactual[5] == neg[5]
            # reconstruction is project(decode(z)) under a mask
            z = np.array(res.trace["latent_point"])
            rebuilt = vae.decode_batch(z[None, :])[0]
            rebuilt[[3, 5]] = neg[[3, 5]]
            assert np.array_equal(rebuilt, res.counterfactual)


class TestBatchContract:
    """Every generator returns one RecourseBatch per block: its trace sums
    the rows' search records, and an empty block (the replay of a shadow
    model that classifies every game point positively) gives zero-length
    columns and zero counters."""

    ALGORITHMS = ["scfe", "growing_spheres", "cchvae"]

    @staticmethod
    def generate(algorithm, model, vae, X, seeds, norm="l1", immutable=()):
        # radii that find some rows a recourse and exhaust on others
        params = SearchParams(samples_per_radius=30,
                              max_radius=4.0 if algorithm == "cchvae" else 2.0)
        if algorithm == "scfe":
            return scfe(model, X, ScfeParams(lam=3.0, lam_decay=0.3, max_iters=50,
                                             max_retries=2), norm, seeds, immutable)
        if algorithm == "growing_spheres":
            return growing_spheres(model, X, params, norm, seeds, immutable)
        return cchvae(model, vae, X, params, norm, seeds, immutable)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_trace_sums_the_rows(self, vae_setup, algorithm):
        std, vae = vae_setup
        m = make_logistic([1.0, 0, 0, 0, 0, 0, 0, 0], -0.5)
        X = negatives(m, std.features)[:8]
        batch = self.generate(algorithm, m, vae, X, list(range(8)))
        cols = batch.columns
        assert len(batch) == 8 and {len(v) for v in cols.values()} == {8}
        assert batch.seeds.tolist() == list(range(8))
        assert batch.valid.any()
        if algorithm == "scfe":
            assert batch.trace == {"iterations": int(cols["iterations"].sum()),
                                   "retries_used": int(cols["retries_used"].sum())}
            assert cols["retries_used"].max() >= 1
        else:
            assert batch.trace == {"radii_tried": int(cols["radii_tried"].sum()),
                                   "samples_per_radius": 30}
            point = cols["search_point" if algorithm == "growing_spheres" else "latent_point"]
            assert not batch.valid.all()
            assert np.isnan(point).all(axis=1).tolist() == (~batch.valid).tolist()
        assert batch.take([2, 0]).row_json(1) == batch.row_json(0)
        assert [batch.take(batch.valid).row_json(j) for j in range(batch.valid.sum())] == \
            [batch.row_json(i) for i in np.flatnonzero(batch.valid)]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_block(self, vae_setup, algorithm):
        std, vae = vae_setup
        m = make_logistic([1.0, 0, 0, 0, 0, 0, 0, 0], -0.5)
        batch = self.generate(algorithm, m, vae, np.zeros((0, 8)), [])
        assert len(batch) == 0 and batch.counterfactuals.shape == (0, 8)
        assert {v.shape[0] for v in batch.columns.values()} == {0}
        assert set(batch.trace.values()) == {0}

    @pytest.fixture
    def no_search(self, monkeypatch):
        """Fail the test if any generator starts its search."""
        def search(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(recourse, "_scfe_attempt", search)
        monkeypatch.setattr(recourse, "uniform_l1_ball_sample", search)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bad_norm_rejected_before_any_search(self, vae_setup, no_search, algorithm):
        # boundary at x0 = 100, beyond every radius: a ball search that
        # went ahead would find no candidate and never cost one
        std, vae = vae_setup
        m = make_logistic([1.0, 0, 0, 0, 0, 0, 0, 0], -100.0)
        for X in (std.features[:2], np.zeros((0, 8))):
            with pytest.raises(ValueError, match="norm must be 'l1' or 'l2', got 'linf'"):
                self.generate(algorithm, m, vae, X, list(range(len(X))), norm="linf")

    @pytest.mark.parametrize("immutable", [(-1,), (8,), (1.5,)], ids=["negative", "d", "float"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_immutable_index_outside_the_features_rejected(self, vae_setup, no_search,
                                                           algorithm, immutable):
        # -1 would pin the last feature, 8 fail inside the search and 1.5
        # pin feature 1
        std, vae = vae_setup
        m = make_logistic([1.0, 0, 0, 0, 0, 0, 0, 0], -0.5)
        X = negatives(m, std.features)[:2]
        with pytest.raises(ValueError, match=re.escape(f"in [0, 8), got {immutable!r}")):
            self.generate(algorithm, m, vae, X, [0, 1], immutable=immutable)

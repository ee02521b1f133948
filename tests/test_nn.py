import json
import pickle
import re
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from recourse_mi import nn
from recourse_mi.data import Dataset, SyntheticSpec, block_rows, generate_synthetic, standardize
from recourse_mi.nn import (
    Adam,
    DimensionMismatchError,
    Model,
    TrainConfig,
    TrainingDivergedError,
    bce,
    bce_to_target_grad_batch,
    load_model,
    logit_confidence,
    predict_proba_batch,
    save_model,
    train_classifier,
    train_vae,
)

from conftest import make_logistic, prob_of
from reference import (
    VAE_ARRAY_NAMES,
    AdamReference,
    finite_difference_gradient,
    sigmoid_reference,
    train_classifier_reference,
    train_vae_reference,
)

SIGMA_1 = 0.7310585786300049  # sigmoid(1)


def loss_of(m, x, y):
    return float(bce(prob_of(m, x), y))


def confidence_of(m, x, y):
    return float(logit_confidence(prob_of(m, x), y))


def gradient_of(m, x, target=1.0):
    """The input gradient of one point: row 0 of a batch of one."""
    return bce_to_target_grad_batch(m, x[None, :], target)[1][0]


class TestPredictProba:
    def test_zero_parameters_give_half(self):
        m = make_logistic([0.0, 0.0], 0.0)
        assert prob_of(m, np.array([3.0, -7.0])) == 0.5

    def test_zero_preactivation(self):
        m = make_logistic([1.0, 0.0], 0.0)
        assert prob_of(m, np.array([0.0, 0.0])) == 0.5

    def test_sigmoid_of_one(self):
        m = make_logistic([1.0, 0.0], 0.0)
        assert prob_of(m, np.array([1.0, 0.0])) == pytest.approx(SIGMA_1, abs=1e-12)

    def test_dimension_mismatch(self):
        m = make_logistic([1.0, 0.0], 0.0)
        with pytest.raises(DimensionMismatchError):
            predict_proba_batch(m, np.array([[1.0, 0.0, 0.0]]))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        ds = generate_synthetic(SyntheticSpec(d=4, n_per_class=40, seed=1))
        m = train_classifier(ds, [8], TrainConfig(learning_rate=0.01, epochs=20, seed=2))
        xs = rng.normal(size=(10, 4))
        batch = predict_proba_batch(m, xs)
        singles = [prob_of(m, x) for x in xs]
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("d,arch", [(800, []), (50, [256])])
    def test_every_row_equals_its_single_point_probability(self, d, arch):
        # one (n, d) matrix product sums a row in an order that depends on
        # n; the per-row products keep each row bit-identical to its
        # one-point evaluation, at every batch size
        rng = np.random.default_rng(9)
        sizes = [d] + arch + [1]
        m = Model([rng.normal(scale=d ** -0.5, size=(a, b)) for a, b in zip(sizes, sizes[1:])],
                  [rng.normal(scale=0.1, size=b) for b in sizes[1:]], arch, d)
        xs = rng.normal(size=(200, d))
        for n in (200, 57, 2):
            batch = predict_proba_batch(m, xs[:n])
            p, g = bce_to_target_grad_batch(m, xs[:n], 1.0)
            for i in range(n):
                assert batch[i] == p[i] == prob_of(m, xs[i])
                assert np.array_equal(g[i], gradient_of(m, xs[i]))

    def test_rows_run_in_blocks_of_bounded_memory(self):
        # a [256] MLP over 2000 rows: one (2000, 256) activation block
        # would take 4.1 MB; the row blocks keep the traced peak under
        # 1 MB and every row equal to its one-row evaluation
        rng = np.random.default_rng(10)
        m = Model([rng.normal(scale=0.14, size=(50, 256)), rng.normal(scale=0.06, size=(256, 1))],
                  [rng.normal(scale=0.1, size=256), np.array([0.1])], [256], 50)
        xs = rng.normal(size=(2000, 50))
        assert 2000 % block_rows(256) != 0  # a short last block
        tracemalloc.start()
        try:
            batch = predict_proba_batch(m, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000
        assert all(batch[i] == nn._forward_batch(m, xs[i:i + 1])[0] for i in range(2000))


class TestBceAndConfidence:
    def test_half_probability(self):
        m = make_logistic([0.0], 0.0)
        assert loss_of(m, np.array([1.0]), 1) == pytest.approx(np.log(2), abs=1e-12)

    def test_clamp_floor(self):
        m = make_logistic([1000.0], 0.0)  # p ~ 1 at x=1
        assert loss_of(m, np.array([1.0]), 1) == pytest.approx(-np.log(1 - 1e-7), abs=1e-12)
        assert loss_of(m, np.array([1.0]), 0) == pytest.approx(-np.log(1e-7), abs=1e-9)

    def test_sigma1_against_label_zero(self):
        m = make_logistic([1.0, 0.0], 0.0)
        assert loss_of(m, np.array([1.0, 0.0]), 0) == pytest.approx(1.313262, abs=1e-6)

    def test_logit_confidence_inverts_sigmoid(self):
        m = make_logistic([1.0, 0.0], 0.0)
        x = np.array([1.0, 0.0])
        assert confidence_of(m, x, 1) == pytest.approx(1.0, abs=1e-12)
        m3 = make_logistic([-3.0], 0.0)
        # p = sigmoid(-3) for label 1 at x = 1
        assert confidence_of(m3, np.array([1.0]), 1) == pytest.approx(-3.0, abs=1e-12)
        assert confidence_of(make_logistic([0.0], 0.0), np.array([1.0]), 1) == 0.0

    def test_softplus_identity(self):
        # bce = log(1 + exp(-conf)) on the clamped probability
        rng = np.random.default_rng(3)
        m = make_logistic(rng.normal(size=3), 0.3)
        for _ in range(50):
            x = rng.normal(scale=3.0, size=3)
            y = int(rng.integers(0, 2))
            conf = confidence_of(m, x, y)
            assert loss_of(m, x, y) == pytest.approx(np.log1p(np.exp(-conf)), abs=1e-9)

    def test_arrays_map_elementwise(self):
        # a (points, models) matrix against a column of labels gives, bit
        # for bit, each probability's own value, clamped tails included
        rng = np.random.default_rng(4)
        p = np.concatenate([rng.random(400), [0.0, 1.0, 1e-9, 1 - 1e-9, 0.5, 1e-7]])
        rng.shuffle(p)
        p = p.reshape(-1, 2)
        y = rng.integers(0, 2, size=p.shape[0])
        for fn in (bce, logit_confidence):
            got = fn(p, y[:, None])
            assert got.shape == p.shape and np.isfinite(got).all()
            assert all(got[i, j] == fn(p[i, j], y[i])
                       for i in range(p.shape[0]) for j in range(2))

    def test_every_label_is_checked(self):
        for fn in (bce, logit_confidence):
            with pytest.raises(ValueError, match="label must be 0 or 1, got 2"):
                fn(np.full(3, 0.5), np.array([1, 0, 2]))


class TestInputGradient:
    def test_logistic_analytic_form(self):
        theta = np.array([2.0, -1.0])
        m = make_logistic(theta, 0.5)
        x = np.array([0.3, 0.7])
        p = prob_of(m, x)
        g = gradient_of(m, x, target=1.0)
        assert np.allclose(g, (p - 1.0) * theta, atol=1e-12)
        g0 = gradient_of(m, x, target=0.0)
        assert np.allclose(g0, p * theta, atol=1e-12)

    @pytest.mark.parametrize("arch", [[], [8], [16, 8], [8, 8, 4]])
    def test_finite_difference_match(self, arch):
        rng = np.random.default_rng(42)
        ds = generate_synthetic(SyntheticSpec(d=5, n_per_class=60, seed=4))
        m = train_classifier(ds, arch, TrainConfig(learning_rate=0.01, epochs=15, seed=5))
        for _ in range(20):
            x = rng.normal(size=5)
            g = gradient_of(m, x, target=1.0)
            fd = finite_difference_gradient(
                lambda v: -np.log(np.clip(prob_of(m, v), 1e-300, None)), x)
            tol = max(1e-4, 1e-3 * np.linalg.norm(g))
            assert np.abs(g - fd).max() < tol


class TestTrainClassifier:
    @pytest.mark.parametrize("lr", [float("inf"), float("nan"), 0.0])
    def test_config_rejects_a_learning_rate_that_is_not_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    def test_separable_blobs_high_accuracy(self):
        ds = generate_synthetic(
            SyntheticSpec(d=2, n_per_class=150, seed=7, class_separation=4.0))
        std, _ = standardize(ds)
        m = train_classifier(std, [], TrainConfig(learning_rate=0.05, epochs=150, seed=1))
        assert m.training_meta["train_accuracy"] >= 0.99

    def test_deterministic_parameters(self):
        ds = generate_synthetic(SyntheticSpec(d=3, n_per_class=50, seed=2))
        cfg = TrainConfig(learning_rate=0.01, epochs=10, seed=11)
        m1 = train_classifier(ds, [8], cfg)
        m2 = train_classifier(ds, [8], cfg)
        for w1, w2 in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            assert np.array_equal(w1, w2)

    def test_loss_improves(self):
        ds = generate_synthetic(SyntheticSpec(d=4, n_per_class=100, seed=3))
        m = train_classifier(ds, [16], TrainConfig(learning_rate=0.01, epochs=30, seed=0))
        assert m.training_meta["final_train_loss"] <= m.training_meta["epoch1_train_loss"]

    def test_divergence_raises_with_epoch(self):
        # Adam's normalized updates make lr-driven blow-ups nearly
        # impossible; a non-finite cell is the reliable way to poison the
        # forward pass and exercise the guard.
        feats = np.array([[0.0, 1.0], [1.0, np.nan], [1.0, 0.0], [0.0, 0.0]])
        ds = Dataset(feats, np.array([0, 1, 1, 0]))
        with pytest.raises(TrainingDivergedError) as err:
            train_classifier(ds, [8], TrainConfig(learning_rate=0.01, epochs=5, seed=0))
        assert err.value.epoch == 1

    def test_divergence_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(TrainingDivergedError(3, "non-finite loss at epoch 3")))
        assert type(err) is TrainingDivergedError and err.epoch == 3
        assert str(err) == "non-finite loss at epoch 3"
        assert str(pickle.loads(pickle.dumps(TrainingDivergedError(4)))) == \
            "training diverged at epoch 4"

    def test_xor_one_hidden_layer(self):
        xor = Dataset(
            np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
            np.array([0, 1, 1, 0]),
        )
        m = train_classifier(xor, [8], TrainConfig(learning_rate=0.05, epochs=2000, seed=3))
        assert m.training_meta["train_accuracy"] == 1.0

    def test_full_batch_for_small_n(self):
        ds = generate_synthetic(SyntheticSpec(d=2, n_per_class=10, seed=1))
        m = train_classifier(ds, [], TrainConfig(learning_rate=0.01, epochs=2, seed=0))
        assert m.training_meta["batch_size"] == 20


class TestFlatParameterTraining:
    """The flat-vector trainers against the list-of-arrays oracles in
    reference.py: every parameter and training_meta must be identical."""

    @pytest.mark.parametrize("d,arch,cfg", [
        (40, [], TrainConfig(learning_rate=0.05, epochs=12, seed=3)),
        (6, [16, 8], TrainConfig(learning_rate=0.01, epochs=12, seed=4)),
        # 300 rows in batches of 37: eight full batches and one of 4
        (6, [8], TrainConfig(learning_rate=0.01, epochs=10, batch_size=37, seed=5)),
        # an explicit full batch of 300 rows (the default policy would take 64)
        (6, [8], TrainConfig(learning_rate=0.02, epochs=10, batch_size=300, seed=6)),
        # a one-column output layer's backward product, at batch 64
        (50, [256], TrainConfig(learning_rate=0.01, epochs=3, batch_size=64, seed=7)),
    ])
    def test_classifier_matches_list_of_arrays_oracle(self, d, arch, cfg):
        ds = generate_synthetic(SyntheticSpec(d=d, n_per_class=150, seed=12))
        m = train_classifier(ds, arch, cfg)
        weights, biases, meta = train_classifier_reference(ds, arch, cfg)
        assert len(m.weights) == len(weights)
        for got, want in zip(m.weights + m.biases, weights + biases):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert m.training_meta == meta

    def test_parameters_are_views_of_one_vector(self):
        ds = generate_synthetic(SyntheticSpec(d=5, n_per_class=20, seed=1))
        m = train_classifier(ds, [4, 3], TrainConfig(learning_rate=0.01, epochs=2))
        flat = m.weights[0].base
        assert flat is not None and flat.ndim == 1
        assert all(a.base is flat for a in m.weights + m.biases)
        assert flat.size == sum(a.size for a in m.weights + m.biases)

    def test_vae_matches_list_of_arrays_oracle(self):
        ds = generate_synthetic(SyntheticSpec(d=7, n_per_class=60, seed=13))
        std, _ = standardize(ds)
        cfg = TrainConfig(learning_rate=2e-3, epochs=6, batch_size=25, seed=8)
        vae = train_vae(std, cfg)
        arrays, meta = train_vae_reference(std, cfg)
        assert [n for n, _ in vae._arrays()] == VAE_ARRAY_NAMES
        for name, got in vae._arrays():
            assert np.array_equal(got, arrays[name]), name
        assert vae.training_meta == meta

    def test_one_array_adam_equals_per_array_adam(self):
        rng = np.random.default_rng(4)
        shapes = [(3, 5), (5,), (5, 1), (1,)]
        flat, views = nn._flat_views(shapes)
        flat[:] = rng.normal(size=flat.size)
        ref = [v.copy() for v in views]
        opt = Adam(flat.shape, 0.01)
        opt_ref = AdamReference(shapes, 0.01)
        for _ in range(5):
            g, g_views = nn._flat_views(shapes)
            g[:] = rng.normal(size=g.size)
            opt.step(flat, g)
            opt_ref.step(ref, [gv.copy() for gv in g_views])
        assert all(np.array_equal(v, r) for v, r in zip(views, ref))

    def test_sigmoid_matches_masked_oracle(self):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300, 5e-324,
                   36.7, -36.7, 709.0, -709.0, 745.2, -745.2, 800.0, -800.0,
                   1e308, -1e308]
        z = np.concatenate([special, np.random.default_rng(2).normal(scale=40, size=200)])
        got, want = nn._sigmoid(z), sigmoid_reference(z)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got[0] == got[1] == 0.5 and got[2] == 1.0 and got[3] == 0.0
        assert np.signbit(got[5]) and not np.signbit(got[4])


@pytest.fixture(scope="module")
def trained_vae():
    ds = generate_synthetic(SyntheticSpec(d=10, n_per_class=200, seed=8))
    std, _ = standardize(ds)
    vae = train_vae(std, TrainConfig(learning_rate=1e-3, epochs=200, seed=5))
    return std, vae


class TestVae:
    def test_shapes(self, trained_vae):
        std, vae = trained_vae
        mu, lv = vae.encode_batch(std.features[:1])
        assert mu.shape == (1, 8) and lv.shape == (1, 8)
        out = vae.decode_batch(np.zeros((1, 8)))
        assert out.shape == (1, 10)

    def test_beats_constant_decoder(self, trained_vae):
        std, vae = trained_vae
        mu, _ = vae.encode_batch(std.features)
        recon = vae.decode_batch(mu)
        mse = float(np.mean((recon - std.features) ** 2))
        zero = vae.decode_batch(np.zeros((1, 8)))
        mse_zero = float(np.mean((zero - std.features) ** 2))
        assert mse <= mse_zero

    def test_elbo_improves(self, trained_vae):
        _, vae = trained_vae
        assert vae.training_meta["final_elbo_loss"] < vae.training_meta["epoch1_elbo_loss"]

    def test_deterministic(self):
        ds = generate_synthetic(SyntheticSpec(d=6, n_per_class=50, seed=9))
        std, _ = standardize(ds)
        cfg = TrainConfig(learning_rate=1e-3, epochs=20, seed=77)
        v1 = train_vae(std, cfg)
        v2 = train_vae(std, cfg)
        for (_, a), (_, b) in zip(v1._arrays(), v2._arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("poison", ["nan cell", "1e200 cell", "scaled by 1e150"])
    def test_divergence_raises_with_epoch(self, poison):
        ds = generate_synthetic(SyntheticSpec(d=4, n_per_class=30, seed=3))
        std, _ = standardize(ds)
        feats = std.features.copy()
        if poison == "scaled by 1e150":
            feats *= 1e150
        else:
            feats[7, 2] = np.nan if poison == "nan cell" else 1e200
        # a huge cell overflows on purpose; the guard must still name the epoch
        overflow = nullcontext() if poison == "nan cell" else pytest.warns(RuntimeWarning)
        with overflow, pytest.raises(TrainingDivergedError) as err:
            train_vae(Dataset(feats, ds.labels), TrainConfig(learning_rate=1e-3, epochs=5))
        assert err.value.epoch == 1
        assert str(err.value) == "non-finite parameters at epoch 1"


@pytest.mark.parametrize("train", [lambda ds, cfg: train_classifier(ds, [4], cfg), train_vae],
                         ids=["classifier", "vae"])
def test_both_trainers_refuse_an_empty_dataset(train):
    empty = Dataset(np.empty((0, 3)), np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="^cannot train on an empty dataset$"):
        train(empty, TrainConfig(epochs=2))


class TestSerialization:
    def test_classifier_round_trip_bit_exact(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(d=3, n_per_class=40, seed=6))
        trained = train_classifier(ds, [8, 4], TrainConfig(learning_rate=0.01, epochs=5, seed=1))
        # -0.0, the smallest subnormal and the largest finite float
        extreme = make_logistic([-0.0, 5e-324, np.finfo(np.float64).max], -0.0)
        for m in (trained, extreme):
            save_model(m, tmp_path / "m")
            back = load_model(tmp_path / "m")
            assert isinstance(back, Model)
            assert back.architecture == m.architecture and back.d == m.d
            for a, b in zip(m.weights + m.biases, back.weights + back.biases):
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert a.tobytes() == b.tobytes()  # keeps the sign of -0.0 too
            x = np.array([0.1, -0.2, 0.3])
            assert prob_of(back, x) == prob_of(m, x)

    def test_vae_round_trip_bit_exact(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(d=5, n_per_class=30, seed=6))
        std, _ = standardize(ds)
        vae = train_vae(std, TrainConfig(learning_rate=1e-3, epochs=5, seed=2))
        save_model(vae, tmp_path / "v")
        back = load_model(tmp_path / "v")
        for (_, a), (_, b) in zip(vae._arrays(), back._arrays()):
            assert np.array_equal(a, b)
        z = np.arange(8.0)[None, :]
        assert np.array_equal(vae.decode_batch(z), back.decode_batch(z))

    def test_one_file_per_model(self, tmp_path):
        std, _ = standardize(generate_synthetic(SyntheticSpec(d=5, n_per_class=30, seed=6)))
        save_model(make_logistic([1.0, -2.0], 0.5), tmp_path / "m")
        save_model(train_vae(std, TrainConfig(learning_rate=1e-3, epochs=1, seed=2)),
                   tmp_path / "v")
        for directory in (tmp_path / "m", tmp_path / "v"):
            assert [p.name for p in directory.iterdir()] == ["manifest.json"]
            doc = json.loads((directory / "manifest.json").read_text())
            assert doc["format_version"] == nn.MODEL_FORMAT_VERSION == 2

    @pytest.fixture
    def saved(self, tmp_path):
        m = make_logistic([1.0, -2.0, 0.5], 0.25)
        save_model(m, tmp_path / "m")
        return tmp_path / "m"

    def test_truncated_file_rejected(self, saved):
        manifest = saved / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:-3])
        with pytest.raises(ValueError, match=re.escape(str(saved))):
            load_model(saved)

    def test_trailing_bytes_rejected(self, saved):
        manifest = saved / "manifest.json"
        manifest.write_bytes(manifest.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match=re.escape(str(saved)) + ".*Extra data"):
            load_model(saved)

    def test_a_document_that_is_no_object_rejected(self, saved):
        (saved / "manifest.json").write_text("[2]")
        with pytest.raises(ValueError, match=re.escape(str(saved))):
            load_model(saved)

    @staticmethod
    def edited(tmp_path, kind, edit):
        """The directory of a saved model of `kind` whose manifest.json
        document `edit` has changed in place."""
        if kind == "vae":
            std, _ = standardize(generate_synthetic(SyntheticSpec(d=5, n_per_class=30, seed=6)))
            model = train_vae(std, TrainConfig(learning_rate=1e-3, epochs=1, seed=2))
        else:
            model = make_logistic([1.0, -2.0, 0.5], 0.25)
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        edit(manifest)
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        return tmp_path / "m"

    @pytest.mark.parametrize("kind,key,value", [
        ("vae", "d", 7), ("vae", "latent_dim", 3), ("vae", "hidden_dim", 21),
        ("classifier", "d", 4),
    ])
    def test_manifest_that_disagrees_with_params_rejected(self, tmp_path, kind, key, value):
        saved = self.edited(tmp_path, kind, lambda doc: doc.update({key: value}))
        with pytest.raises(ValueError, match=re.escape(str(saved))):
            load_model(saved)

    @pytest.mark.parametrize("kind,edit,message", [
        ("vae", lambda doc: doc.update(w=doc.pop("enc_w1")), "no 'enc_w1'"),
        ("vae", lambda doc: doc.pop("dec_b2"), "no 'dec_b2'"),
        ("classifier", lambda doc: doc["weights"].pop(), "parameter count"),
        ("classifier", lambda doc: doc["weights"][0].append([1.0, 2.0]), ""),
        ("classifier", lambda doc: doc["weights"][0][1].__setitem__(0, "x"), "floats"),
        ("classifier", lambda doc: doc["biases"].__setitem__(0, [None]), "floats"),
        ("classifier", lambda doc: doc.update(kind="tree"), "unknown model kind 'tree'"),
        ("classifier", lambda doc: doc.pop("kind"), "no 'kind'"),
    ], ids=["renamed_vae_array", "missing_vae_array", "dropped_weight_array", "ragged_array",
            "string_cell", "null_cell", "unknown_kind", "no_kind"])
    def test_malformed_arrays_or_kind_rejected(self, tmp_path, kind, edit, message):
        saved = self.edited(tmp_path, kind, edit)
        with pytest.raises(ValueError, match=re.escape(str(saved)) + ".*" + re.escape(message)):
            load_model(saved)

    @pytest.mark.parametrize("version", [1, 0, None])
    def test_unknown_format_version_rejected(self, saved, version):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["format_version"] = version
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(str(saved)) + ".*format_version"):
            load_model(saved)


def test_batched_gradient_rows_match_single_point():
    # each row of the batch gets its own probability and input gradient
    rng = np.random.default_rng(6)
    ds = generate_synthetic(SyntheticSpec(d=4, n_per_class=40, seed=2))
    for arch in ([], [8, 4]):
        m = train_classifier(ds, arch, TrainConfig(learning_rate=0.01, epochs=5, seed=1))
        x = rng.normal(size=(7, 4))
        p, g = bce_to_target_grad_batch(m, x, 1.0)
        assert p.shape == (7,) and g.shape == (7, 4)
        for i in range(7):
            p1, g1 = bce_to_target_grad_batch(m, x[i][None, :], 1.0)
            assert p[i] == p1[0]
            assert np.array_equal(g[i], g1[0])
    with pytest.raises(DimensionMismatchError):
        bce_to_target_grad_batch(m, np.zeros(4), 1.0)


def test_bce_to_target_grad_returns_probability():
    m = make_logistic([1.0, 0.0], 0.0)
    p, g = bce_to_target_grad_batch(m, np.array([[1.0, 0.0]]), 1.0)
    assert p.shape == (1,) and p[0] == pytest.approx(SIGMA_1, abs=1e-12)
    assert g.shape == (1, 2)

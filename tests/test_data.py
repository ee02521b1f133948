import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recourse_mi import data as data_mod
from recourse_mi.data import (
    DataError,
    Dataset,
    SplitSizeError,
    SyntheticSpec,
    TabularParseError,
    ZeroVarianceColumnError,
    generate_synthetic,
    load_tabular,
    split,
    standardize,
    write_csv,
)

from reference import write_csv_reference


def source_rows(bundle):
    return {name: getattr(bundle, name).provenance["rows"]
            for name in ("owner_train", "shadow_pool", "eval_out")}


class TestGenerateSynthetic:
    def test_shape_and_balance(self):
        ds = generate_synthetic(SyntheticSpec(d=3, n_per_class=5, seed=7))
        assert ds.n == 10 and ds.d == 3
        assert int(np.sum(ds.labels == 0)) == 5
        assert int(np.sum(ds.labels == 1)) == 5

    def test_per_class_mean_near_vertex(self):
        # Monte-Carlo oracle: standard error per coordinate is
        # 1/sqrt(50000) ~ 0.0045, so 0.02 in l-infinity is ~4.5 sigma.
        ds = generate_synthetic(SyntheticSpec(d=2, n_per_class=50000, seed=1))
        v0, v1 = (np.array(v) for v in ds.provenance["vertices"])
        mean0 = ds.features[ds.labels == 0].mean(axis=0)
        mean1 = ds.features[ds.labels == 1].mean(axis=0)
        assert np.abs(mean0 - v0).max() < 0.02
        assert np.abs(mean1 - v1).max() < 0.02
        assert set(np.abs(v0)) == {1.0} and set(np.abs(v1)) == {1.0}

    def test_deterministic(self):
        spec = SyntheticSpec(d=4, n_per_class=20, seed=123)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_vertices_distinct_and_scaled(self):
        ds = generate_synthetic(
            SyntheticSpec(d=1, n_per_class=3, seed=0, class_separation=2.5)
        )
        v0, v1 = ds.provenance["vertices"]
        assert v0 != v1
        assert {abs(v0[0]), abs(v1[0])} == {2.5}

    @given(d=st.integers(1, 8), n=st.integers(1, 20), seed=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_class_centers_are_scaled_vertices(self, d, n, seed):
        sep = 1.5
        ds = generate_synthetic(
            SyntheticSpec(d=d, n_per_class=n, seed=seed, class_separation=sep)
        )
        for v in ds.provenance["vertices"]:
            assert all(abs(c) == sep for c in v)

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_sample_means_recover_vertices_at_mc_tolerance(self, seed):
        # per-class sample mean within 4/sqrt(n_per_class) of its vertex
        n = 4000
        ds = generate_synthetic(SyntheticSpec(d=5, n_per_class=n, seed=seed))
        v0, v1 = (np.array(v) for v in ds.provenance["vertices"])
        tol = 4.0 / np.sqrt(n)
        assert np.abs(ds.features[ds.labels == 0].mean(axis=0) - v0).max() < tol
        assert np.abs(ds.features[ds.labels == 1].mean(axis=0) - v1).max() < tol

    def test_rejects_bad_spec(self):
        with pytest.raises(DataError):
            SyntheticSpec(d=0, n_per_class=1, seed=0)
        with pytest.raises(DataError):
            SyntheticSpec(d=1, n_per_class=0, seed=0)
        with pytest.raises(DataError):
            SyntheticSpec(d=1, n_per_class=1, seed=0, class_separation=0.0)


class TestLoadTabular:
    def test_median_threshold(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b,score\n1,10,1\n2,20,2\n3,30,3\n4,40,4\n")
        ds = load_tabular(f, "score", "median-threshold")
        # median 2.5; ties (none here) would go to 0
        assert ds.labels.tolist() == [0, 0, 1, 1]
        assert ds.d == 2

    def test_median_tie_goes_to_zero(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,score\n1,1\n2,2\n3,2\n4,5\n")
        ds = load_tabular(f, "score", "median-threshold")
        assert ds.labels.tolist() == [0, 0, 0, 1]

    def test_binary_passthrough(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b,y\n0.5,1.5,1\n0.25,2.5,0\n")
        ds = load_tabular(f, "y", "binary")
        assert ds.labels.tolist() == [1, 0]
        assert np.allclose(ds.features, [[0.5, 1.5], [0.25, 2.5]])

    def test_text_cell_names_row_and_column(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b,y\n1,2,0\n1,oops,1\n")
        with pytest.raises(TabularParseError, match=r"row 2.*'b'"):
            load_tabular(f, "y", "binary")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN"])
    def test_non_finite_feature_cell_names_row_and_column(self, tmp_path, cell):
        f = tmp_path / "t.csv"
        f.write_text(f"a,b,y\n1,2,0\n3,4,1\n5,{cell},1\n")
        with pytest.raises(TabularParseError, match=r"row 3, column 'b': non-finite"):
            load_tabular(f, "y", "binary")

    @pytest.mark.parametrize("rule", ["binary", "median-threshold"])
    def test_non_finite_label_cell_names_row_and_column(self, tmp_path, rule):
        f = tmp_path / "t.csv"
        f.write_text("a,y\n1,0\n2,inf\n3,1\n")
        with pytest.raises(TabularParseError, match=r"row 2, column 'y': non-finite"):
            load_tabular(f, "y", rule)

    def test_missing_label_column(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(TabularParseError, match="label column"):
            load_tabular(f, "y", "binary")

    def test_non_binary_label_under_binary_rule(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,y\n1,0\n2,3\n")
        with pytest.raises(TabularParseError, match="rule=binary"):
            load_tabular(f, "y", "binary")

    def test_round_trip_with_write_csv(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(d=3, n_per_class=4, seed=9))
        f = tmp_path / "round.csv"
        write_csv(ds, f)
        back = load_tabular(f, "label", "binary")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("n,d", [(7, 3), (1, 1), (0, 2), (3, 0)])
    def test_write_csv_bytes_equal_csv_writer(self, tmp_path, monkeypatch, n, d):
        # 2-row chunks with a ragged tail; extreme, signed-zero and
        # non-finite cells; a header name that csv.writer must quote
        monkeypatch.setattr(data_mod, "_CHUNK_VALUES", 2 * max(d, 1))
        special = [-0.0, 5e-324, 1e-300, 1e300, 0.1, 1.0, 1e16, np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(n + d)
        features = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
        features.flat[:len(special)] = special[:features.size]
        labels = rng.integers(0, 2, size=n)
        names = [f"x{i}" for i in range(d)]
        names[:1] = ['a,"b"'] * min(d, 1)
        write_csv(Dataset(features, labels, {"feature_names": names}), tmp_path / "got.csv")
        write_csv_reference(features, labels, names, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestStandardize:
    def test_two_point_column(self):
        ds = Dataset(np.array([[1.0], [3.0]]), np.array([0, 1]))
        out, scaler = standardize(ds)
        assert np.allclose(out.features[:, 0], [-1.0, 1.0])
        assert scaler.mean[0] == 2.0 and scaler.std[0] == 1.0
        assert scaler.convention == "population"

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50))
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        assert np.abs(twice.features - once.features).max() < 1e-9

    def test_zero_variance_column_named(self):
        ds = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                     np.array([0, 1, 0]))
        with pytest.raises(ZeroVarianceColumnError, match="column 0"):
            standardize(ds)

    def test_moments_within_1e9(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(3.0, 2.5, size=(200, 4)), rng.integers(0, 2, 200))
        out, _ = standardize(ds)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-9
        assert np.abs(out.features.var(axis=0) - 1.0).max() < 1e-9

    def test_inverse_transform_identity(self):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.normal(-1.0, 4.0, size=(60, 5)), rng.integers(0, 2, 60))
        out, scaler = standardize(ds)
        back = out.features * scaler.std + scaler.mean
        assert np.abs(back - ds.features).max() < 1e-9


class TestSplit:
    def test_sizes_and_disjointness(self):
        ds = generate_synthetic(SyntheticSpec(d=2, n_per_class=50, seed=5))
        b = split(ds, owner_n=50, shadow_n=30, eval_out_n=20, seed=1)
        assert b.owner_train.n == 50 and b.shadow_pool.n == 30 and b.eval_out.n == 20
        rows = source_rows(b)
        all_rows = rows["owner_train"] + rows["shadow_pool"] + rows["eval_out"]
        assert len(all_rows) == len(set(all_rows)) == 100
        assert np.array_equal(b.eval_in, np.arange(50))

    def test_deterministic(self):
        ds = generate_synthetic(SyntheticSpec(d=2, n_per_class=50, seed=5))
        b1 = split(ds, 40, 30, 20, seed=9)
        b2 = split(ds, 40, 30, 20, seed=9)
        assert source_rows(b1) == source_rows(b2)
        assert np.array_equal(b1.owner_train.features, b2.owner_train.features)

    def test_oversized_request(self):
        ds = generate_synthetic(SyntheticSpec(d=2, n_per_class=50, seed=5))
        with pytest.raises(SplitSizeError):
            split(ds, 90, 20, 0, seed=0)

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_equal_seeds_equal_partitions(self, seed):
        ds = generate_synthetic(SyntheticSpec(d=2, n_per_class=30, seed=2))
        assert source_rows(split(ds, 20, 20, 10, seed)) == \
            source_rows(split(ds, 20, 20, 10, seed))


class TestDatasetInvariants:
    def test_label_values_validated(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.array([0, 2]))

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]))

    def test_features_read_only(self):
        ds = Dataset(np.zeros((2, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0

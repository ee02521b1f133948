import csv
import tracemalloc

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

from reference import tabular_arrays_reference, write_csv_reference


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
        for sep in (0.0, np.inf, np.nan):
            with pytest.raises(DataError):
                SyntheticSpec(d=1, n_per_class=1, seed=0, class_separation=sep)


_FIELD_OVER_LIMIT = "1" * 140_000  # longer than csv's default field size limit
_GOOD_ROWS = "".join(f"{i},{i % 2}\n" for i in range(3000))  # past the first 8 KiB read

# (file bytes, label column, label rule) for tabular_arrays against the
# cell-by-cell reference parser: results or errors must be identical
CSV_CASES = {
    "quoted": (b'a,b,y\n"1.5","2",1\n"-3","4e2",0\n', "y", "binary"),
    "padded": (b" a , b ,y\n 1 ,\t2 , 0\n3,4,1 \n", "y", "binary"),
    "underscores": (b"a,y\n1_0,1\n2_000.5,0\n", "y", "binary"),
    "arabic_indic": ("a,y\n\u0661\u0662,1\n\u0663.\u0665,0\n".encode(), "y", "binary"),
    "signed_zero": (b"a,b,y\n-0,-0.0,0\n0,+0.0,1\n", "y", "binary"),
    "subnormal": (b"a,y\n5e-324,0\n-4.9e-324,1\n2.2250738585072014e-308,0\n", "y", "binary"),
    "overflow": (b"a,y\n1,0\n1e500,1\n", "y", "binary"),
    "hex": (b"a,y\n1,0\n0x10,1\n", "y", "binary"),
    "blank_line": (b"a,y\n1,0\n\n2,1\n", "y", "binary"),
    "short_row": (b"a,b,y\n1,2,0\n3,1\n", "y", "binary"),
    "long_row": (b"a,y\n1,0\n3,1,5\n", "y", "binary"),
    "crlf": (b"a,b,y\r\n1,2,0\r\n3,4,1\r\n", "y", "binary"),
    "cr": (b"a,b,y\r1,2,0\r3,4,1\r", "y", "binary"),
    "mixed_line_breaks": (b"a,y\r\n1,0\r2,1\n3,0", "y", "binary"),
    "no_final_line_break": (b"a,y\n1,0\n2,1", "y", "binary"),
    "many_rows": (f"a,y\n{_GOOD_ROWS}".encode(), "y", "binary"),
    "bad_cell_after_many_rows": (f"a,y\n{_GOOD_ROWS}abc,1\n".encode(), "y", "binary"),
    "multi_line_quoted": (b'a,b,y\n"1\n",2,0\n3,"\n4",1\n', "y", "binary"),
    "label_first": (b"y,a,b\n1,2,3\n0,4,5\n", "y", "binary"),
    "label_middle": (b"a,s,b\n1,10,2\n3,20,4\n5,30,6\n", "s", "median-threshold"),
    "label_only": (b"y\n1\n0\n", "y", "binary"),
    "nan_label": (b"a,y\n1,0\n2,nan\n", "y", "median-threshold"),
    "bad_label_before_bad_feature": (b"y,a\nx,inf\n", "y", "binary"),
    "inf_before_text": (b"a,b,y\ninf,abc,1\n", "y", "binary"),
    "not_binary": (b"a,y\n1,0\n2,2\n", "y", "binary"),
    "empty": (b"", "y", "binary"),
    "header_only": (b"a,y\n", "y", "binary"),
    "no_label_column": (b"a,b\n1,2\n", "y", "binary"),
    "field_limit": (f"a,y\n1,1\n{_FIELD_OVER_LIMIT},0\n".encode(), "y", "binary"),
    "field_limit_after_bad_row": (f"a,y\nabc,1\n{_FIELD_OVER_LIMIT},0\n".encode(), "y",
                                  "binary"),
    "bad_utf8": (f"a,y\n{_GOOD_ROWS}".encode() + b"\xff,1\n", "y", "binary"),
    "bad_utf8_after_bad_row": (f"a,y\nabc,1\n{_GOOD_ROWS}".encode() + b"\xff,1\n", "y",
                               "binary"),
}


def _parse_outcome(parse, path, label_column, label_rule):
    try:
        features, labels, prov = parse(path, label_column, label_rule)
    except (ValueError, csv.Error) as exc:  # TabularParseError and UnicodeDecodeError included
        return type(exc), str(exc)
    return features.shape, features.tobytes(), labels.dtype, labels.tobytes(), prov


class TestLoadTabular:
    @pytest.mark.parametrize("case", sorted(CSV_CASES))
    def test_matches_the_cell_by_cell_reference(self, tmp_path, case):
        content, label_column, label_rule = CSV_CASES[case]
        f = tmp_path / "t.csv"
        f.write_bytes(content)
        assert _parse_outcome(data_mod.tabular_arrays, f, label_column, label_rule) == \
            _parse_outcome(tabular_arrays_reference, f, label_column, label_rule)

    def test_parse_holds_about_one_copy_of_the_matrix(self, tmp_path):
        # each row goes straight into the matrix (about 1.1 copies at the
        # peak); lists of Python floats stacked at the end peaked at 5.4 copies
        f = tmp_path / "t.csv"
        write_csv(generate_synthetic(SyntheticSpec(d=40, n_per_class=1000, seed=3)), f)
        tracemalloc.start()
        try:
            features, _, _ = data_mod.tabular_arrays(f, "label", "binary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert features.shape == (2000, 40) and features.flags.writeable
        assert peak <= 1.25 * features.nbytes

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

    @pytest.mark.parametrize("content,label_column", [
        (b"a,b,y\n1,2,0\n3,4,1\n", "y"),
        (b"y,a,b\n1,2,3\n0,4,5\n", "y"),  # the mark sits before the label's name
    ])
    def test_byte_order_mark_is_dropped(self, tmp_path, content, label_column):
        f = tmp_path / "t.csv"
        f.write_bytes(b"\xef\xbb\xbf" + content)
        with_mark = _parse_outcome(data_mod.tabular_arrays, f, label_column, "binary")
        f.write_bytes(content)
        assert with_mark == _parse_outcome(data_mod.tabular_arrays, f, label_column, "binary")
        assert with_mark[-1]["feature_names"][0] == "a"

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
        monkeypatch.setattr(data_mod, "BLOCK_VALUES", 2 * max(d, 1))
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
        out = standardize(ds)
        # mean 2, population std 1: the column shifts by 2 and keeps its scale
        assert out.features[:, 0].tolist() == [-1.0, 1.0]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50))
        once = standardize(ds)
        twice = standardize(once)
        assert np.abs(twice.features - once.features).max() < 1e-9

    def test_zero_variance_column_named(self):
        ds = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                     np.array([0, 1, 0]))
        with pytest.raises(ZeroVarianceColumnError, match="column 0"):
            standardize(ds)

    def test_moments_within_1e9(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(3.0, 2.5, size=(200, 4)), rng.integers(0, 2, 200))
        out = standardize(ds)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-9
        assert np.abs(out.features.var(axis=0) - 1.0).max() < 1e-9

    def test_inverse_transform_identity(self):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.normal(-1.0, 4.0, size=(60, 5)), rng.integers(0, 2, 60))
        out = standardize(ds)
        back = out.features * ds.features.std(axis=0) + ds.features.mean(axis=0)
        assert np.abs(back - ds.features).max() < 1e-9


class TestSplit:
    def test_sizes_and_disjointness(self):
        ds = generate_synthetic(SyntheticSpec(d=2, n_per_class=50, seed=5))
        b = split(ds, owner_n=50, shadow_n=30, eval_out_n=20, seed=1)
        assert b.owner_train.n == 50 and b.shadow_pool.n == 30 and b.eval_out.n == 20
        rows = source_rows(b)
        all_rows = rows["owner_train"] + rows["shadow_pool"] + rows["eval_out"]
        assert len(all_rows) == len(set(all_rows)) == 100

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

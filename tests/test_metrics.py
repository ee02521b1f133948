import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recourse_mi.metrics import (
    MetricsReport,
    RocCurve,
    SingleClassError,
    auc,
    balanced_accuracy,
    export_log_roc,
    report,
    roc,
    tpr_at_fpr,
)

from reference import pairwise_auc

M, N = True, False


def curve_from_points(pts) -> RocCurve:
    arr = np.array(pts, dtype=np.float64)
    return RocCurve(points=arr)


class TestRoc:
    def test_perfect_separation(self):
        c = roc([0.9, 0.1], [M, N])
        assert auc(c) == 1.0
        assert any(np.allclose(p, [0.0, 1.0]) for p in c.points)

    def test_reversed_scores(self):
        c = roc([0.1, 0.9], [M, N])
        assert auc(c) == 0.0

    def test_all_ties_is_diagonal(self):
        c = roc([0.3] * 6, [M, N, M, N, M, N])
        assert auc(c) == pytest.approx(0.5, abs=1e-15)
        assert c.points.shape[0] == 2  # (0,0) and (1,1) only

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=40)
        labels = [M if v else N for v in rng.integers(0, 2, 40)]
        if all(l is M for l in labels) or all(l is N for l in labels):
            labels[0] = M
            labels[1] = N
        c = roc(scores, labels)
        assert np.allclose(c.points[0], [0.0, 0.0])
        assert np.allclose(c.points[-1], [1.0, 1.0])
        assert (np.diff(c.fpr) >= 0).all()
        assert (np.diff(c.tpr) >= 0).all()
        assert ((c.points >= 0) & (c.points <= 1)).all()

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            roc([0.1, 0.2], [M, M])

    @pytest.mark.parametrize("membership", [["MEMBER", "NON-MEMBER"], ["NON-MEMBER"] * 2,
                                            [1, 0], [1.0, 0.0], [None, None]],
                             ids=["strings", "non_member_strings", "ints", "floats", "nulls"])
    def test_rejects_membership_that_is_not_boolean(self, membership):
        # the truthy string "NON-MEMBER" must not count as a member
        with pytest.raises(TypeError, match="booleans"):
            roc([0.9, 0.1], membership)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            roc([0.1], [M, N])


class TestAuc:
    def test_matches_pairwise_oracle_on_random_sets(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = 200
            scores = rng.normal(size=n)
            if trial % 3 == 0:
                scores = np.round(scores, 1)  # force ties
            members = rng.integers(0, 2, n).astype(bool)
            if members.all() or (~members).all():
                members[0] = ~members[0]
            labels = [M if b else N for b in members]
            got = auc(roc(scores, labels))
            want = pairwise_auc(scores, members)
            assert got == pytest.approx(want, abs=1e-9)

    def test_complement_identity(self):
        rng = np.random.default_rng(9)
        scores = np.round(rng.normal(size=100), 1)
        members = rng.integers(0, 2, 100).astype(bool)
        members[0], members[1] = True, False
        labels = [M if b else N for b in members]
        a1 = auc(roc(scores, labels))
        a2 = auc(roc(-scores, labels))
        assert a1 + a2 == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 2**31), monotone=st.sampled_from(["exp", "affine", "cube"]))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_monotone_transform(self, seed, monotone):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=60)
        members = rng.integers(0, 2, 60).astype(bool)
        members[0], members[1] = True, False
        labels = [M if b else N for b in members]
        f = {"exp": np.exp, "affine": lambda v: 3.0 * v + 1.0,
             "cube": lambda v: v**3}[monotone]
        c1, c2 = roc(scores, labels), roc(f(scores), labels)
        assert np.allclose(c1.points, c2.points)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy(curve_from_points([[0, 0], [0, 1], [1, 1]])) == 1.0

    def test_diagonal(self):
        c = curve_from_points([[0, 0], [0.5, 0.5], [1, 1]])
        assert balanced_accuracy(c) == 0.5

    def test_three_point_example(self):
        c = curve_from_points([[0, 0], [0.2, 0.8], [1, 1]])
        assert balanced_accuracy(c) == pytest.approx(0.8, abs=1e-15)

    def test_never_below_half(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scores = rng.normal(size=30)
            members = rng.integers(0, 2, 30).astype(bool)
            members[0], members[1] = True, False
            labels = [M if b else N for b in members]
            assert balanced_accuracy(roc(scores, labels)) >= 0.5


class TestTprAtFpr:
    def test_perfect_curve(self):
        assert tpr_at_fpr(curve_from_points([[0, 0], [0, 1], [1, 1]]), 0.01) == 1.0

    def test_step_convention(self):
        c = curve_from_points([[0, 0], [0.05, 0.4], [0.2, 0.9], [1, 1]])
        assert tpr_at_fpr(c, 0.1) == pytest.approx(0.4)

    def test_calibration_on_random_scores(self):
        rng = np.random.default_rng(11)
        n = 10_000
        scores = rng.random(n)
        members = rng.integers(0, 2, n).astype(bool)
        labels = [M if b else N for b in members]
        c = roc(scores, labels)
        assert tpr_at_fpr(c, 0.1) == pytest.approx(0.1, abs=0.03)

    def test_nondecreasing_in_alpha(self):
        rng = np.random.default_rng(13)
        scores = rng.normal(size=200)
        members = rng.integers(0, 2, 200).astype(bool)
        members[0], members[1] = True, False
        labels = [M if b else N for b in members]
        c = roc(scores, labels)
        alphas = np.linspace(0.01, 0.99, 25)
        vals = [tpr_at_fpr(c, a) for a in alphas]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_alpha_out_of_range(self):
        c = curve_from_points([[0, 0], [1, 1]])
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                tpr_at_fpr(c, bad)


class TestExportLogRoc:
    def test_header_rows_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=50)
        members = rng.integers(0, 2, 50).astype(bool)
        members[0], members[1] = True, False
        labels = [M if b else N for b in members]
        c = roc(scores, labels)
        path = tmp_path / "roc.csv"
        export_log_roc(c, path)

        text = path.read_text().splitlines()
        assert text[0] == "fpr,tpr,fpr_raw"
        assert len(text) - 1 == c.points.shape[0]

        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        back = np.array([(float(r[2]), float(r[1])) for r in rows])
        assert np.abs(back - c.points).max() < 1e-12

    def test_zero_fpr_clamped(self, tmp_path):
        c = curve_from_points([[0, 0], [0, 0.5], [1, 1]])
        path = tmp_path / "roc.csv"
        export_log_roc(c, path)
        rows = path.read_text().splitlines()[1:]
        first = rows[0].split(",")
        assert float(first[0]) == 1e-5 and float(first[2]) == 0.0


def test_report_bundles_metrics():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=100)
    members = rng.integers(0, 2, 100).astype(bool)
    members[0], members[1] = True, False
    labels = [M if b else N for b in members]
    c = roc(scores, labels)
    rep = report(c)
    assert isinstance(rep, MetricsReport)
    assert 0.0 <= rep.auc <= 1.0
    assert 0.5 <= rep.balanced_accuracy <= 1.0
    assert set(rep.tpr_at_fpr) == {0.1, 0.01}

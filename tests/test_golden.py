"""Golden outputs: five small audits must reproduce what tests/golden/
recorded, on one CPU and on two.

ROC files, AUCs, point ids and guesses are compared exactly; statistics
and scores within 1e-9 relative, about 500 times the largest shift seen
between OpenBLAS kernels (2.1e-12), and byte for byte on the kernel and
numpy version they were recorded with (the scores files and report.json).
See tests/golden/regenerate.py.
"""
import json
import math

import pytest

from conftest import use_cpus
from golden.regenerate import GOLDEN, exact_on, run_case

SCORE_RTOL = 1e-9
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def close(got: float, want: float) -> bool:
    return got == want or math.isclose(got, want, rel_tol=SCORE_RTOL, abs_tol=0.0)


def test_every_case_is_recorded():
    assert CASES == ["cchvae_cfd_lrt", "file_median_threshold", "growing_spheres",
                     "scfe_all_attacks", "scfe_logistic_immutable"]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", CASES)
def test_audit_reproduces_its_golden_outputs(monkeypatch, case, cpus):
    golden = json.loads((GOLDEN / f"{case}.json").read_text())
    use_cpus(monkeypatch, cpus)
    got = run_case(golden["config"], golden.get("gen_data"))
    want = golden["outputs"]
    assert got["game"] == want["game"]
    assert got["attacks"] == want["attacks"]
    assert got["roc_sha256"] == want["roc_sha256"]
    assert list(got["scores"]) == list(want["scores"])
    for name, records in want["scores"].items():
        ours = got["scores"][name]
        assert [(r["point_id"], r["guess_at"]) for r in ours] == \
            [(r["point_id"], r["guess_at"]) for r in records], name
        for g, w in zip(ours, records):
            for key in ("statistic", "score"):
                assert close(g[key], w[key]), (name, w["point_id"], key, g[key], w[key])
    if golden["exact_on"]["blas_kernel"] and golden["exact_on"] == exact_on():
        assert got["scores_sha256"] == want["scores_sha256"]
        assert got["report_sha256"] == want["report_sha256"]

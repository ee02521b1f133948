"""Golden outputs: five small audits must reproduce what tests/golden/
recorded, on one CPU and on two.

ROC files, AUCs, point ids and guesses are compared exactly; statistics
and scores within 1e-9 relative, about 500 times the largest shift seen
between OpenBLAS kernels (2.1e-12), and byte for byte on the kernel and
numpy version they were recorded with (the scores files and report.json),
with a warning where they are not. See tests/golden/regenerate.py.
"""
import json
import math
import re
import sys
import warnings

import pytest

from conftest import use_cpus
from golden.regenerate import GOLDEN, exact_on, run_case

SCORE_RTOL = 1e-9
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def close(got: float, want: float) -> bool:
    return got == want or math.isclose(got, want, rel_tol=SCORE_RTOL, abs_tol=0.0)


def check_bytes(recorded: dict, got: dict, want: dict) -> None:
    """The scores files and report.json byte for byte where this run's
    OpenBLAS kernel and numpy version are the recorded ones; elsewhere a
    UserWarning that names both, since the check does not run."""
    found = exact_on()
    if recorded["blas_kernel"] and recorded == found:
        assert got["scores_sha256"] == want["scores_sha256"]
        assert got["report_sha256"] == want["report_sha256"]
    else:
        warnings.warn(f"golden byte checks not run: recorded with kernel "
                      f"{recorded['blas_kernel']} and numpy {recorded['numpy']}, found "
                      f"kernel {found['blas_kernel']} and numpy {found['numpy']}", UserWarning)


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
    check_bytes(golden["exact_on"], got, want)


@pytest.mark.parametrize("found", [{"blas_kernel": "Haswell", "numpy": "2.4.6"},
                                   {"blas_kernel": "SkylakeX", "numpy": "2.5.0"},
                                   {"blas_kernel": None, "numpy": "2.4.6"}])
def test_byte_checks_that_do_not_run_say_so(monkeypatch, found):
    monkeypatch.setattr(sys.modules[__name__], "exact_on", lambda: found)
    recorded = {"blas_kernel": "SkylakeX", "numpy": "2.4.6"}
    with pytest.warns(UserWarning, match=re.escape(
            f"recorded with kernel SkylakeX and numpy 2.4.6, found kernel "
            f"{found['blas_kernel']} and numpy {found['numpy']}")):
        check_bytes(recorded, {}, {})


def test_byte_checks_run_silently_on_the_recorded_setup(monkeypatch):
    recorded = {"blas_kernel": "SkylakeX", "numpy": "2.4.6"}
    monkeypatch.setattr(sys.modules[__name__], "exact_on", lambda: dict(recorded))
    hashes = {"scores_sha256": {"a": "1"}, "report_sha256": "2"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_bytes(recorded, hashes, dict(hashes))
    with pytest.raises(AssertionError):
        check_bytes(recorded, hashes, dict(hashes, report_sha256="3"))

"""Golden outputs: five small audits must reproduce what tests/golden/
recorded, on one CPU and on two.

ROC files, AUCs, point ids and guesses are compared exactly; statistics
and scores within 1e-9 relative, about 500 times the largest shift seen
between OpenBLAS kernels (2.1e-12), and byte for byte on each kernel and
numpy version they were recorded with (the scores files and report.json),
with a warning on any other, or a failure under CI=true, where CI forces a
recorded kernel. See tests/golden/regenerate.py.
"""
import json
import math
import os
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


def check_bytes(recorded: list[dict], got: dict) -> None:
    """The scores files and report.json byte for byte against the recorded
    entry of this run's OpenBLAS kernel and numpy version. Where none
    matches, the check does not run: a UserWarning names the recorded and
    the found setups, and under CI=true the test fails instead."""
    found = exact_on()
    for entry in recorded:
        if found["blas_kernel"] and (entry["blas_kernel"], entry["numpy"]) == \
                (found["blas_kernel"], found["numpy"]):
            assert got["scores_sha256"] == entry["scores_sha256"]
            assert got["report_sha256"] == entry["report_sha256"]
            return
    setups = " or ".join(f"kernel {e['blas_kernel']} and numpy {e['numpy']}" for e in recorded)
    message = (f"golden byte checks not run: recorded with {setups}, found "
               f"kernel {found['blas_kernel']} and numpy {found['numpy']}")
    if os.environ.get("CI") == "true":
        pytest.fail(message)
    warnings.warn(message, UserWarning)


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
    check_bytes(golden["exact_on"], got)


RECORDED = [{"blas_kernel": "SkylakeX", "numpy": "2.4.6", "scores_sha256": {"a": "1"},
             "report_sha256": "2"},
            {"blas_kernel": "Haswell", "numpy": "2.4.6", "scores_sha256": {"a": "3"},
             "report_sha256": "4"}]


@pytest.mark.parametrize("found", [{"blas_kernel": "Sandybridge", "numpy": "2.4.6"},
                                   {"blas_kernel": "SkylakeX", "numpy": "2.5.0"},
                                   {"blas_kernel": None, "numpy": "2.4.6"}])
def test_byte_checks_that_do_not_run_say_so(monkeypatch, found):
    monkeypatch.setattr(sys.modules[__name__], "exact_on", lambda: found)
    message = re.escape(f"recorded with kernel SkylakeX and numpy 2.4.6 or kernel Haswell and "
                        f"numpy 2.4.6, found kernel {found['blas_kernel']} and numpy "
                        f"{found['numpy']}")
    monkeypatch.delenv("CI", raising=False)
    with pytest.warns(UserWarning, match=message):
        check_bytes(RECORDED, {})
    monkeypatch.setenv("CI", "true")  # where CI forces a recorded kernel, none found fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pytest.fail.Exception, match=message):
            check_bytes(RECORDED, {})


@pytest.mark.parametrize("entry", RECORDED, ids=lambda e: e["blas_kernel"])
def test_byte_checks_run_silently_on_the_recorded_setup(monkeypatch, entry):
    monkeypatch.setattr(sys.modules[__name__], "exact_on",
                        lambda: {"blas_kernel": entry["blas_kernel"], "numpy": "2.4.6"})
    hashes = {key: entry[key] for key in ("scores_sha256", "report_sha256")}
    for ci in ("true", ""):
        monkeypatch.setenv("CI", ci)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_bytes(RECORDED, hashes)
        with pytest.raises(AssertionError):
            check_bytes(RECORDED, dict(hashes, report_sha256="5"))

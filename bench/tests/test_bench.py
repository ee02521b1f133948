"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

They run the benchmark on the tiny workloads of bench/workloads.json, which
finish in seconds, and need no network or extra packages.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import correctness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "20", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def declared_units(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def workload(name: str) -> tuple[dict, dict]:
    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))[name]
    config = json.loads((BENCH / "configs" / f"{name}.json").read_text(encoding="utf-8"))
    return config, spec["reference"]


@pytest.mark.parametrize("name,trace", [("tiny", 0), ("tiny", 1), ("tiny_cchvae", 1)])
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    proc = run_bench(ROOT, name, seed=5, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared_units(kind)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if trace and name == "tiny":
        assert values["recourse.scfe_iters"] > 0 and values["recourse.ball_samples"] == 0
    if trace and name == "tiny_cchvae":
        assert values["recourse.ball_samples"] > 0 and values["recourse.scfe_iters"] == 0
    if not trace:
        assert all(v > 0 for v in values.values())


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory) -> Path:
    proc = run_bench(ROOT, "tiny", seed=7, trace=0)
    assert proc.returncode == 0, proc.stderr
    copy = tmp_path_factory.mktemp("report") / "audit0"
    shutil.copytree(run.OUT / "tiny_seed7_trace0" / "audit0", copy)
    return copy


def tamper_auc(report_dir: Path, attack: str, auc: float) -> None:
    path = report_dir / "report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["attacks"][attack]["directions"]["standard"]["auc"] = auc
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_check_accepts_the_report_as_written(tiny_report):
    config, reference = workload("tiny")
    problems, attempted, failed = correctness.check_audit(tiny_report, config, reference)
    assert problems == []
    assert attempted >= config["eval"]["eval_points"] and failed < attempted


def test_check_rejects_an_auc_tampered_outside_tolerance(tiny_report):
    config, reference = workload("tiny")
    ref, tol = reference["auc"]["cfd"], reference["tolerance"]
    tampered = ref + tol + 0.02 if ref + tol + 0.02 <= 1.0 else ref - tol - 0.02
    tamper_auc(tiny_report, "cfd", tampered)
    problems, attempted, failed = correctness.check_audit(tiny_report, config, reference)
    assert any("reference" in p for p in problems), problems
    assert failed == attempted


def test_check_rejects_an_auc_that_does_not_follow_from_the_scores(tiny_report, tmp_path):
    config, reference = workload("tiny")
    report = shutil.copytree(tiny_report, tmp_path / "audit0")
    doc = json.loads((report / "report.json").read_text(encoding="utf-8"))
    auc = doc["attacks"]["loss"]["directions"]["standard"]["auc"]
    tamper_auc(report, "loss", auc + 0.01 if auc < 0.99 else auc - 0.01)
    problems, _, _ = correctness.check_audit(report, config, reference)
    assert any("does not follow from the scores" in p for p in problems), problems


def test_missing_report_fails_every_operation(tmp_path):
    config, reference = workload("tiny")
    problems, attempted, failed = correctness.check_audit(tmp_path, config, reference)
    assert problems and failed == attempted > 0


def test_without_the_package_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "tiny", seed=1, trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_hooks_a_refactor_removed_are_absent_not_fatal(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setitem(tracing.HOOKS, "recourse.batched",
                        ("recourse_mi.recourse", "scfe_batch", None))
    monkeypatch.setitem(tracing.HOOKS, "gone.module", ("recourse_mi.gone", "f", None))
    from recourse_mi import runner

    config, _ = workload("tiny")
    cfg = runner.config_from_dict(dict(config, seed=3, out_dir=str(tmp_path / "out")))
    tracer = tracing.Tracer.install()
    try:
        runner.run_experiment(cfg)
    finally:
        tracer.uninstall()
    assert {"recourse.batched", "gone.module", "recourse.cchvae"} <= set(tracer.absent())
    layers = tracer.layer_metrics(tmp_path / "out")
    assert set(layers) == set(tracing.LAYER_UNITS) - {"trace.overhead_s"}
    assert layers["recourse.ball_samples"] == 0 and layers["recourse.scfe_iters"] > 0
    assert runner.run_experiment.__name__ == "run_experiment"
    assert not hasattr(runner.run_experiment, "__wrapped__")


def test_spans_record_exceptions_and_reraise():
    tracer = tracing.Tracer()

    def starve():
        raise RuntimeError("starved")

    wrapped = tracer._wrap("attack.build_shadow_distances", starve, None)
    with pytest.raises(RuntimeError):
        wrapped()
    (span,) = tracer.spans
    assert span.error == "RuntimeError" and span.end >= span.start and tracer._stack == []


def test_trimmed_mean_drops_one_extreme_each_side_from_five_audits_on():
    assert run.trimmed_mean([2.0, 1.0, 100.0, 3.0, 4.0]) == 3.0
    assert run.trimmed_mean([1.0, 3.0]) == 2.0

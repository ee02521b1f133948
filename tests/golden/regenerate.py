#!/usr/bin/env python3
"""Rewrite the golden outputs of every audit config in this directory.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each <case>.json holds an audit config under "config" and, under
"outputs", the parts of that audit's output that do not depend on the
BLAS kernel: per attack and direction the AUC, balanced accuracy and
TPR at fixed FPR, the sha256 of each roc_*.csv, each scores file's point
ids and guess_at in file order with their statistic and score, and the
report's game section. A file case also holds, under "gen_data", the
config whose `recourse-mi gen-data` CSV it audits; that CSV is written
afresh on every run.

Under "exact_on" it holds one entry per OpenBLAS kernel in KERNELS: the
kernel, the numpy version, the sha256 of each scores file and of
report.json (without config.out_dir and, for a file case, without
config.data.path and the provenance path, which name temporary files).
numpy picks its kernel when it is imported, so each kernel's audits run
in a child interpreter with OPENBLAS_CORETYPE set to it; "outputs" are
the first kernel's. The host must be able to run every kernel in KERNELS.

tests/test_golden.py reruns each config and compares. The statistic and
score move in their last bits with the BLAS kernel, so they are compared
within a relative bound, and byte for byte (the scores and report
hashes) only against the entry of the kernel and numpy version found.
Regenerate only when a change is meant to move outputs, and say by how
much.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
# the kernels recorded: SkylakeX (AVX-512) and Haswell (AVX2 only), which CI forces
KERNELS = ("SkylakeX", "Haswell")


def exact_on() -> dict:
    """The OpenBLAS kernel numpy runs (None if it cannot be read) and the
    numpy version: where both equal the recorded ones, scores must match
    byte for byte."""
    import numpy as np

    kernel = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                kernel = fn().decode()
                break
    return {"blas_kernel": kernel, "numpy": np.__version__}


def report_sha256(path: Path) -> str:
    """sha256 of the report.json at path as the audit writes it, without
    the paths of its temporary files: config.out_dir and, for file data,
    config.data.path and the dataset provenance's path."""
    report = json.loads(path.read_text())
    del report["config"]["out_dir"]
    if report["config"]["data"]["kind"] == "file":
        del report["config"]["data"]["path"]
        provenance = report["data_provenance"]
        del provenance.get("parent", provenance)["path"]  # standardized data nests it
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def golden_outputs(out_dir: Path) -> dict:
    """The golden outputs of the audit written to out_dir."""
    report = json.loads((out_dir / "report.json").read_text())
    scores = {}
    for path in sorted(out_dir.glob("scores_*.jsonl")):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        scores[path.name] = [{key: rec[key] for key in
                              ("point_id", "guess_at", "statistic", "score")}
                             for rec in records]
    return {
        "attacks": {name: att["directions"] for name, att in report["attacks"].items()},
        "roc_sha256": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in sorted(out_dir.glob("roc_*.csv"))},
        "scores": scores,
        "scores_sha256": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                          for path in sorted(out_dir.glob("scores_*.jsonl"))},
        "game": report["game"],
        "report_sha256": report_sha256(out_dir / "report.json"),
    }


def run_case(config: dict, gen_data: dict | None = None) -> dict:
    """golden_outputs of one audit of config, run in a temporary directory.
    With gen_data, `recourse-mi gen-data` first writes that config's
    dataset to a CSV there, and the audit reads it as config's data.path."""
    from recourse_mi import cli, runner

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if gen_data is not None:
            (tmp / "gen_data.json").write_text(json.dumps(gen_data))
            assert cli.main(["gen-data", "--config", str(tmp / "gen_data.json"),
                             "--out", str(tmp / "data.csv")]) == 0
            config = dict(config, data=dict(config["data"], path=str(tmp / "data.csv")))
        runner.run_experiment(runner.config_from_dict(dict(config, out_dir=str(tmp / "out"))))
        return golden_outputs(tmp / "out")


def record(kernel: str) -> dict:
    """exact_on() and {case: run_case outputs} of every case, run in a
    child interpreter under the OpenBLAS kernel `kernel`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "outputs.json"
        subprocess.run([sys.executable, __file__, "--child", str(out)], check=True,
                       env=dict(os.environ, OPENBLAS_CORETYPE=kernel))
        run = json.loads(out.read_text())
    if run["exact_on"]["blas_kernel"] != kernel:
        raise SystemExit(f"OPENBLAS_CORETYPE={kernel} ran kernel {run['exact_on']['blas_kernel']}")
    return run


def main(argv: list[str]) -> int:
    cases = {path: json.loads(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))}
    cases = {path: {key: doc[key] for key in ("config", "gen_data") if key in doc}
             for path, doc in cases.items()}
    if argv[:1] == ["--child"]:
        Path(argv[1]).write_text(json.dumps({
            "exact_on": exact_on(),
            "outputs": {path.stem: run_case(**doc) for path, doc in cases.items()}}))
        return 0
    runs = [record(kernel) for kernel in KERNELS]
    for path, doc in cases.items():
        outputs = [run["outputs"][path.stem] for run in runs]
        doc["exact_on"] = [dict(run["exact_on"], scores_sha256=out.pop("scores_sha256"),
                                report_sha256=out.pop("report_sha256"))
                           for run, out in zip(runs, outputs)]
        doc["outputs"] = outputs[0]
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""End-to-end audit benchmark for recourse-mi.

    python3 bench/run.py --workload scfe_lrt_d800 --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one client. Each audit is one
`runner.run_experiment` of the workload's config in a fresh interpreter,
started when the previous one has ended, with `workers` at its default of
1 and one BLAS thread. The master seed of audit i is derived from --seed
and i, and is the only thing the program receives besides the config.

A run first times set-up (fresh interpreter to config validated) several
times, then runs the workload's `audits_per_run` audits, starting no new
one once --seconds have passed. The per-audit figures are a trimmed mean
over the run's audits: audit cost depends on the seed (on cchvae_lrt_d16
the shadow VAE sets how far the latent ball search must grow), and a
median of a few draws from such a two-humped spread jumps between humps.
With --trace 1 each audit is a pair: untraced, then traced with spans
from tracing.py on the same inputs. Every audit's report is checked
(correctness.py). Standard output ends with a provenance line and the
result line; everything a run leaves is under .bench_out/ at the root of
the checkout.

The package is always imported from src/ next to this directory; without
it the benchmark exits non-zero and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import correctness
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
# the run must end within 180 s; leave room to check and report
DEADLINE_S = 165
# one BLAS thread: on the 2-core reference box two threads made every
# workload slower with no overlap in CPU time
CHILD_ENV = {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "audit_s": "s", "audit_cpu_s": "s",
                    "peak_rss_mb": "MB", "scored_frac": "ratio"}


class ChildError(RuntimeError):
    pass


def trimmed_mean(values) -> float:
    """Mean without the lowest and highest value once there are five or more."""
    values = sorted(values)
    if len(values) >= 5:
        values = values[1:-1]
    return statistics.fmean(values)


def audit_seed(master: int, index: int) -> int:
    digest = hashlib.sha256(f"recourse-mi-bench:{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def run_child(mode: str, config_path: Path, deadline: float) -> tuple[dict, float]:
    """Run audit.py in a fresh interpreter; its JSON line and spawn time."""
    env = dict(os.environ, **CHILD_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "audit.py"), mode, str(config_path)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), spawned


def write_config(path: Path, config: dict, seed: int, out_dir: Path | None) -> Path:
    doc = dict(config, seed=seed)
    if out_dir is not None:
        doc["out_dir"] = str(out_dir)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def provenance(workload: str, config: dict, seed: int, environment: dict) -> dict:
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_rev = proc.stdout.strip() or None
    return {
        "workload": workload,
        "master_seed": seed,
        "git_revision": git_rev,
        "source_sha256": source.hexdigest(),
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        **environment,
    }


def audit(index: int, seed: int, traced: bool, config: dict, reference: dict,
          run_dir: Path, deadline: float) -> dict:
    tag = f"audit{index}{'_traced' if traced else ''}"
    out_dir = run_dir / tag
    path = write_config(run_dir / f"{tag}.json", config, seed, out_dir)
    rec: dict = {"index": index, "seed": seed, "traced": traced}
    try:
        rec.update(run_child("traced" if traced else "audit", path, deadline)[0])
        rec["problems"], rec["attempted"], rec["failed"] = correctness.check_audit(
            out_dir, config, reference)
    except ChildError as exc:
        n = correctness.planned_operations(config)
        rec.update(problems=[str(exc)], attempted=n, failed=n)
    for problem in rec["problems"]:
        print(f"{tag} seed {seed}: {problem}", file=sys.stderr)
    return rec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "recourse_mi" / "__init__.py").is_file():
        print(f"no recourse_mi package under {SRC}", file=sys.stderr)
        return 2
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads)}",
              file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    config = json.loads((BENCH / "configs" / f"{args.workload}.json").read_text(encoding="utf-8"))
    run_dir = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # set-up: one untimed warm-up (byte-code caches, page cache), then the
    # median of SETUP_REPEATS fresh interpreters
    setup_config = write_config(run_dir / "setup.json", config, audit_seed(args.seed, 0), None)
    try:
        probe, _ = run_child("probe", setup_config, deadline)
        setups = []
        for _ in range(SETUP_REPEATS):
            ready, spawned = run_child("setup", setup_config, deadline)
            setups.append(ready["t_ready"] - spawned)
    except ChildError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    records: list[dict] = []
    started = time.monotonic()
    # a traced round is two audits, so trace runs take half the rounds
    rounds = max(1, spec["audits_per_run"] // 2) if args.trace else spec["audits_per_run"]
    for i in range(rounds):
        if i and time.monotonic() - started >= args.seconds:
            break
        seed = audit_seed(args.seed, i)
        records.append(audit(i, seed, False, config, spec["reference"], run_dir, deadline))
        if args.trace:
            records.append(audit(i, seed, True, config, spec["reference"], run_dir, deadline))

    timed = [r for r in records if "audit_s" in r]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not (traced if args.trace else untraced):
        print("no audit finished", file=sys.stderr)
        return 1
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        plain = {r["index"]: r["audit_s"] for r in untraced}
        overheads = [r["audit_s"] - plain[r["index"]] for r in traced if r["index"] in plain]
        values["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
        units = tracing.LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "audit_s": trimmed_mean(r["audit_s"] for r in untraced),
            "audit_cpu_s": trimmed_mean(r["audit_cpu_s"] for r in untraced),
            "peak_rss_mb": trimmed_mean(r["peak_rss_mb"] for r in untraced),
            "scored_frac": 1.0 - (sum(r["failed"] for r in records)
                                  / sum(r["attempted"] for r in records)),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": all(not r["problems"] for r in records),
        "attempted": len(records),
        "failed": sum(bool(r["problems"]) for r in records),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    absent = sorted({name for r in traced for name in r["absent"]})
    prov = provenance(args.workload, config, args.seed, probe["environment"])
    doc = {"provenance": prov, "setup_s": setups, "absent_spans": absent,
           "audits": records, "result": result}
    (run_dir / "result.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": prov, "absent_spans": absent}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

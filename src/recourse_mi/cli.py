"""Command-line interface.

Subcommands: gen-data, train, recourse, run, sweep, dp-bound, summarize.
Exit codes: 0 success, 1 configuration error (a bad command line too), 2 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from . import metrics, nn, privacy, runner
from .data import DataError, csv_header, write_csv


def _raw_config(args) -> dict:
    """The raw config of --config with --seed applied."""
    raw = runner.read_raw_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    return raw


def _inputs(args, cfg: runner.ExperimentConfig) -> list[str]:
    """The files a config command reads: --config and, for file data, data.path."""
    data = cfg.snapshot["data"]
    return [args.config, *([data["path"]] if data["kind"] == "file" else [])]


def cmd_gen_data(args) -> int:
    cfg = runner.config_from_dict(_raw_config(args))
    out = Path(args.out or "data.csv")
    inputs = _inputs(args, cfg)
    for path in (out, out.with_suffix(".provenance.json")):
        runner.check_out(path, file=True, inputs=inputs)
    data = runner.build_dataset(cfg)
    try:  # before anything is written
        csv_header(data)
    except DataError as exc:
        raise runner.ConfigError(f"data.path {cfg.snapshot['data']['path']!r}: {exc}") from None
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(data, out)
    runner.write_json(out.with_suffix(".provenance.json"), data.provenance)
    print(f"wrote {data.n} rows x {data.d} features to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = runner.config_from_dict(_raw_config(args))
    out = Path(args.out or "model")
    runner.check_out(out)
    report = runner.run_experiment(cfg, stop="owner")
    nn.save_model(report.owner_model, out)
    if report.owner_vae is not None:
        nn.save_model(report.owner_vae, out / "vae")
    test_accuracy = report.model_meta["test_accuracy"]
    meta = dict(report.owner_model.training_meta, test_accuracy=test_accuracy)
    runner.write_json(out / "accuracy.json", meta)
    print(f"train accuracy {meta['train_accuracy']:.4f}, "
          f"test accuracy {test_accuracy:.4f} -> {out}")
    return 0


def cmd_recourse(args) -> int:
    cfg = runner.config_from_dict(_raw_config(args))
    out = Path(args.out or "game_samples.jsonl")
    runner.check_out(out, file=True, inputs=_inputs(args, cfg))
    game = runner.run_experiment(cfg, stop="game").game
    out.parent.mkdir(parents=True, exist_ok=True)
    runner.write_jsonl(out, ({
        "point_id": point_id,
        "membership": "MEMBER" if game.member[i] else "NON-MEMBER",
        "label": int(game.labels[i]),
        "point": game.points[i].tolist(),
        "recourse": game.recourse.row_json(i),
    } for i, point_id in enumerate(game.point_ids)))
    print(f"wrote {len(game.point_ids)} game samples to {out}")
    return 0


def cmd_run(args) -> int:
    raw = _raw_config(args)
    raw["out_dir"] = args.out or raw.get("out_dir") or "run_out"
    cfg = runner.config_from_dict(raw)
    report = runner.run_experiment(cfg)
    for name, result in report.attacks.items():
        best = result.best_direction
        m = result.metrics[best]
        tprs = " ".join(f"tpr@{a!r}={m.tpr_at_fpr[a]:.4f}" for a in metrics.REPORT_FPRS)
        print(f"{name} [{best}]: auc={m.auc:.4f} ba={m.balanced_accuracy:.4f} {tprs}")
    print(f"report written to {Path(cfg.out_dir) / 'report.json'}")
    return 0


def cmd_sweep(args) -> int:
    raw = _raw_config(args)
    spec = raw.get("sweep")
    if args.seed is not None and isinstance(spec, dict) and "seed" in spec:
        raise runner.ConfigError("--seed cannot be combined with sweep.seed, which sets the "
                                 "master seed of every run")
    raw["out_dir"] = args.out or raw.get("out_dir") or "sweep_out"
    reports = runner.run_sweep(raw)
    print(f"{len(reports)} runs -> {Path(raw['out_dir']) / 'summary.csv'}")
    return 0


def cmd_dp_bound(args) -> int:
    try:  # a token that is no number, or a negative or NaN epsilon
        bounds = [privacy.dp_ba_bound(float(tok)) for tok in args.epsilons.split(",")
                  if tok.strip() != ""]
    except ValueError as exc:
        raise runner.ConfigError(f"bad --epsilons list: {exc}") from exc
    if not bounds:
        raise runner.ConfigError("--epsilons is empty")
    writer = csv.writer(sys.stdout, lineterminator="\n")  # a float as its repr
    writer.writerow(["epsilon", "ba_bound", "refined_ba_bound"])
    writer.writerows([b.epsilon, b.ba_bound, b.refined_ba_bound] for b in bounds)
    return 0


def cmd_summarize(args) -> int:
    out = Path(args.out or "summary.csv")
    runner.check_out(out, file=True, inputs=args.reports)
    docs = [runner.read_report(path) for path in args.reports]  # before --out is opened
    for i, path in enumerate(args.reports):  # each report is read, so it exists
        twice = next((p for p in args.reports[:i] if os.path.samefile(p, path)), None)
        if twice is not None:
            raise runner.ConfigError(f"report {path} is named twice: it is {twice}")
    out.parent.mkdir(parents=True, exist_ok=True)
    runner.write_summary(docs, out)
    print(f"wrote {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1: a bad command line is
    a configuration error. --help still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="recourse-mi",
        description="Membership-inference auditing for algorithmic recourse.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text in (
            ("gen-data", cmd_gen_data, "generate/ingest the configured dataset as CSV"),
            ("train", cmd_train, "train the owner model and save it"),
            ("recourse", cmd_recourse, "play the game and dump recourse transcripts"),
            ("run", cmd_run, "full pipeline: report, score streams, ROC CSVs"),
            ("sweep", cmd_sweep, "run the sweep section of a config")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--out", default=None, help="output path or directory")
        p.set_defaults(fn=fn)

    p = sub.add_parser("dp-bound", help="print BA bounds for a list of epsilons")
    p.add_argument("--epsilons", required=True,
                   help="comma-separated epsilon values, e.g. 0,0.5,1")
    p.set_defaults(fn=cmd_dp_bound)

    p = sub.add_parser("summarize", help="combine report.json files into summary.csv")
    p.add_argument("reports", nargs="+", help="report.json paths")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_summarize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except runner.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

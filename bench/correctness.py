"""Correctness check of one audit's output directory.

An audit is correct when its report.json exists, both game sides kept at
least one point, and every configured attack is scored in both threshold
directions with an AUC that
  - lies in [0, 1],
  - equals the AUC recomputed here by pairwise counting from the per-point
    scores (ties count half) within RECOMPUTE_TOL, and
  - lies within the workload's stated tolerance of its reference AUC
    (the reversed direction against 1 - reference).

The reference is the median standard-direction AUC over calibration seeds;
its tolerance covers how far one audit's AUC moves with the seed, so the
check catches an attack that no longer measures the same leakage, while the
recomputation catches any AUC that does not follow from the scores.
"""
from __future__ import annotations

import json
from pathlib import Path

RECOMPUTE_TOL = 1e-9


def pairwise_auc(records: list[dict], reverse: bool) -> float:
    """P(member ranks above non-member) in the scores' own or reversed direction."""
    members, others = [], []
    for rec in records:
        sign = 1.0 if (rec["direction"] == "higher") != reverse else -1.0
        (members if rec["membership"] == "MEMBER" else others).append(sign * rec["score"])
    if not members or not others:
        return float("nan")
    wins = sum((m > o) + 0.5 * (m == o) for m in members for o in others)
    return wins / (len(members) * len(others))


def _score_records(out_dir: Path, report: dict, attack: str) -> list[dict]:
    stream = out_dir / f"scores_{attack}.jsonl"
    if stream.is_file():
        return [json.loads(line) for line in stream.read_text(encoding="utf-8").splitlines()]
    return report.get("scores", {}).get(attack, [])


def planned_operations(config: dict) -> int:
    """Operations of an audit whose report is missing: every point, every attack."""
    return config["eval"]["eval_points"] * (1 + len(config["attacks"]["which"]))


def check_audit(out_dir: Path, config: dict, reference: dict) -> tuple[list[str], int, int]:
    """Problems found, and the audit's attempted and failed operations.

    Operations are the game recourses (eval_points) plus one scoring per
    kept point and attack. Failures are failed game recourses plus points
    an attack dropped. An audit with any problem counts every attempt failed.
    """
    attacks = config["attacks"]["which"]
    attempted = planned_operations(config)
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"], attempted, attempted

    problems = []
    game = report.get("game", {})
    sides = (game.get("n_member", 0), game.get("n_non_member", 0))
    if min(sides) < 1:
        problems.append(f"a game side is empty (members, non-members) = {sides}")
    attempted = config["eval"]["eval_points"] + sum(sides) * len(attacks)
    failed = (sum(game.get("recourse_failures", {}).values())
              + sum(s.get("n_skipped", 0) for s in game.get("scored_points", {}).values()))

    tol = reference["tolerance"]
    for attack in attacks:
        dirs = report.get("attacks", {}).get(attack, {}).get("directions", {})
        records = _score_records(out_dir, report, attack)
        ref = reference["auc"].get(attack)
        if ref is None:
            problems.append(f"{attack}: no reference AUC")
        if not records:
            problems.append(f"{attack}: no per-point scores")
        for direction, reverse in (("standard", False), ("reversed", True)):
            auc = dirs.get(direction, {}).get("auc")
            if not isinstance(auc, (int, float)) or not 0.0 <= auc <= 1.0:
                problems.append(f"{attack}/{direction}: AUC {auc!r} missing or outside [0, 1]")
                continue
            recomputed = pairwise_auc(records, reverse) if records else auc
            if not abs(recomputed - auc) <= RECOMPUTE_TOL:
                problems.append(f"{attack}/{direction}: AUC {auc} does not follow from "
                                f"the scores, which give {recomputed}")
            want = None if ref is None else (1.0 - ref if reverse else ref)
            if want is not None and not abs(auc - want) <= tol:
                problems.append(f"{attack}/{direction}: AUC {auc:.4f} is not within "
                                f"{tol} of the reference {want:.4f}")
    if problems:
        failed = attempted
    return problems, attempted, failed

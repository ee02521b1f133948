"""Spans around recourse_mi's stage functions, installed from outside the package.

`Tracer.install()` replaces each function or method named in HOOKS with a
wrapper that records a span: its name, the span it was called under, start,
end and the exception it raised, if any. Spans stay in memory until the
audit ends; `write()` then dumps them and `layer_metrics()` folds them into
the per-layer metrics of BENCHMARK.json. No package code changes.

A hook whose target a later refactor removed is listed as missing, and a
span that is never reached has count 0: both are reported in `absent()`
and their metrics read 0, so a refactor cannot crash the traced run.

Spans assume a single thread, which is the benchmark's load model
(`workers` left at its default of 1).
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[pos]


def _train_info(args, kwargs, result) -> dict:
    """Adam steps and the flops of the training matrix products.

    The flops are computed from shapes, not counted: per row and epoch,
    2*in*out for the forward product and the weight gradient of each layer,
    plus 2*in*out for the backward product of every layer but the first.
    """
    data = _arg(args, kwargs, 0, "data")
    config = _arg(args, kwargs, 2, "config")
    sizes = [data.d, *(int(w) for w in _arg(args, kwargs, 1, "architecture")), 1]
    per_row = sum(2 * a * b * (3 if layer else 2)
                  for layer, (a, b) in enumerate(zip(sizes, sizes[1:])))
    batch = config.effective_batch_size(data.n)
    return {"steps": config.epochs * math.ceil(data.n / batch),
            "flop": config.epochs * data.n * per_row}


def _generate_info(args, kwargs, result) -> dict:
    return {"valid": int(result.valid)}


def _scfe_info(args, kwargs, result) -> dict:
    return {"iters": result.trace["iterations"], "retries": result.trace["retries_used"]}


def _ball_info(args, kwargs, result) -> dict:
    radii = result.trace["radii_tried"]
    return {"radii": radii, "samples": radii * result.trace["samples_per_radius"]}


def _shadow_info(args, kwargs, result) -> dict:
    return {"n_models": _arg(args, kwargs, 1, "ensemble").n_models}


# span name -> (module, attribute path, function reading counts off the call)
HOOKS: dict[str, tuple[str, str, Callable | None]] = {
    "runner.run_experiment": ("recourse_mi.runner", "run_experiment", None),
    "runner.prepare": ("recourse_mi.runner", "prepare", None),
    "runner.save_report": ("recourse_mi.runner", "ExperimentReport.save", None),
    "data.build": ("recourse_mi.runner", "build_dataset", None),
    "data.split": ("recourse_mi.runner", "split", None),
    "nn.train_classifier": ("recourse_mi.nn", "train_classifier", _train_info),
    "nn.train_vae": ("recourse_mi.nn", "train_vae", None),
    "recourse.generate": ("recourse_mi.attack", "RecourseConfig.generate", _generate_info),
    "recourse.scfe": ("recourse_mi.recourse", "scfe", _scfe_info),
    "recourse.growing_spheres": ("recourse_mi.recourse", "growing_spheres", _ball_info),
    "recourse.cchvae": ("recourse_mi.recourse", "cchvae", _ball_info),
    "attack.train_shadow_ensemble": ("recourse_mi.attack", "train_shadow_ensemble", None),
    "attack.build_shadow_distances": ("recourse_mi.attack", "build_shadow_distances",
                                      _shadow_info),
    "attack.cfd": ("recourse_mi.attack", "cfd_attack_scores", None),
    "attack.cfd_lrt": ("recourse_mi.attack", "cfd_lrt_attack_scores", None),
    "attack.loss": ("recourse_mi.attack", "loss_attack_scores", None),
    "attack.loss_lrt": ("recourse_mi.attack", "loss_lrt_attack_scores", None),
    "metrics.roc": ("recourse_mi.metrics", "roc", None),
    "metrics.report": ("recourse_mi.metrics", "report", None),
}

# per-layer metric -> unit; the names BENCHMARK.json lists under per_layer
LAYER_UNITS: dict[str, str] = {
    "runner.prepare_s": "s",
    "runner.report_io_s": "s",
    "runner.report_bytes": "B",
    "runner.self_s": "s",
    "data.build_s": "s",
    "data.split_s": "s",
    "nn.owner_train_s": "s",
    "nn.shadow_train_s": "s",
    "nn.train_calls": "count",
    "nn.train_steps": "count",
    "nn.train_gflop": "GFLOP_computed",
    "nn.train_gflops": "GFLOP/s",
    "nn.vae_train_s": "s",
    "nn.vae_calls": "count",
    "recourse.game_calls": "count",
    "recourse.game_s": "s",
    "recourse.game_valid_frac": "ratio",
    "recourse.shadow_calls": "count",
    "recourse.shadow_s": "s",
    "recourse.shadow_valid_frac": "ratio",
    "recourse.scfe_iters": "count",
    "recourse.scfe_retries": "count",
    "recourse.scfe_us_per_iter": "us",
    "recourse.ball_radii": "count",
    "recourse.ball_samples": "count",
    "recourse.ball_us_per_sample": "us",
    "attack.shadow_ensemble_s": "s",
    "attack.cfd_lrt_s": "s",
    "attack.cfd_lrt_self_s": "s",
    "attack.loss_lrt_s": "s",
    "attack.cfd_s": "s",
    "attack.loss_s": "s",
    "attack.shadow_points": "count",
    "attack.shadow_starved": "count",
    "attack.shadow_skip_positive": "count",
    "attack.shadow_skip_failed": "count",
    "metrics.roc_calls": "count",
    "metrics.s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._replaced: list[tuple[Any, str, Callable]] = []

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        for name, (module, path, inspect) in HOOKS.items():
            tracer._hook(name, module, path, inspect)
        return tracer

    def _hook(self, name: str, module: str, path: str, inspect: Callable | None) -> None:
        try:
            owner: Any = importlib.import_module(module)
        except ModuleNotFoundError:
            owner = None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        target = getattr(owner, attr, None)
        if not callable(target):
            self.missing.append(name)
            return
        self._replaced.append((owner, attr, target))
        setattr(owner, attr, self._wrap(name, target, inspect))

    def uninstall(self) -> None:
        while self._replaced:
            owner, attr, target = self._replaced.pop()
            setattr(owner, attr, target)

    def _wrap(self, name: str, fn: Callable, inspect: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name,
                        self._stack[-1].id if self._stack else None, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if inspect is not None:
                    try:
                        span.info = inspect(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError) as exc:
                        span.info = {"inspect_error": repr(exc)}
        return wrapper

    def absent(self) -> list[str]:
        """Hooked names that a refactor removed or this audit never reached."""
        reached = {s.name for s in self.spans}
        return sorted(n for n in HOOKS if n in self.missing or n not in reached)

    def write(self, path: Path) -> None:
        doc = {"spans": [asdict(s) for s in self.spans], "absent": self.absent(),
               "missing": self.missing}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

    def layer_metrics(self, report_dir: Path) -> dict[str, float]:
        """Per-layer metrics of one audit, except trace.overhead_s, which
        needs an untraced audit of the same inputs."""
        by_name: dict[str, list[Span]] = defaultdict(list)
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                child_s[s.parent] += s.duration

        def under(span: Span, name: str) -> bool:
            while span.parent is not None:
                span = self.spans[span.parent]
                if span.name == name:
                    return True
            return False

        def total(spans) -> float:
            return sum(s.duration for s in spans)

        def info(spans, key: str) -> float:
            return sum(s.info.get(key, 0) for s in spans)

        def self_s(spans) -> float:
            return sum(s.duration - child_s[s.id] for s in spans)

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        def split_under(spans, name: str) -> tuple[list[Span], list[Span]]:
            inside = [under(s, name) for s in spans]
            return ([s for s, i in zip(spans, inside) if i],
                    [s for s, i in zip(spans, inside) if not i])

        train = by_name["nn.train_classifier"]
        shadow_train, owner_train = split_under(train, "attack.train_shadow_ensemble")
        shadow_gen, game_gen = split_under(by_name["recourse.generate"],
                                           "attack.build_shadow_distances")
        scfe = by_name["recourse.scfe"]
        ball = by_name["recourse.cchvae"] + by_name["recourse.growing_spheres"]
        dist = by_name["attack.build_shadow_distances"]
        metric = [*by_name["metrics.roc"], *by_name["metrics.report"]]

        # build_shadow_distances skips models that already accept the point;
        # the rest issue one generate call each, so skips are read off the
        # call tree - but only while generate is still a hooked call
        skip_positive = skip_failed = 0
        if "recourse.generate" not in self.missing:
            calls: dict[int, list[Span]] = defaultdict(list)
            for s in shadow_gen:
                calls[s.parent].append(s)
            for d in dist:
                skip_positive += d.info.get("n_models", 0) - len(calls[d.id])
                skip_failed += len(calls[d.id]) - info(calls[d.id], "valid")

        flop = info(train, "flop")
        iters = info(scfe, "iters")
        samples = info(ball, "samples")
        out = {
            "runner.prepare_s": total(by_name["runner.prepare"]),
            "runner.report_io_s": total(by_name["runner.save_report"]),
            "runner.report_bytes": sum(p.stat().st_size for p in report_dir.rglob("*")
                                       if p.is_file()),
            "runner.self_s": self_s(by_name["runner.run_experiment"]),
            "data.build_s": total(by_name["data.build"]),
            "data.split_s": total(by_name["data.split"]),
            "nn.owner_train_s": total(owner_train),
            "nn.shadow_train_s": total(shadow_train),
            "nn.train_calls": len(train),
            "nn.train_steps": info(train, "steps"),
            "nn.train_gflop": flop / 1e9,
            "nn.train_gflops": ratio(flop / 1e9, total(train)),
            "nn.vae_train_s": total(by_name["nn.train_vae"]),
            "nn.vae_calls": len(by_name["nn.train_vae"]),
            "recourse.game_calls": len(game_gen),
            "recourse.game_s": total(game_gen),
            "recourse.game_valid_frac": ratio(info(game_gen, "valid"), len(game_gen)),
            "recourse.shadow_calls": len(shadow_gen),
            "recourse.shadow_s": total(shadow_gen),
            "recourse.shadow_valid_frac": ratio(info(shadow_gen, "valid"), len(shadow_gen)),
            "recourse.scfe_iters": iters,
            "recourse.scfe_retries": info(scfe, "retries"),
            "recourse.scfe_us_per_iter": ratio(total(scfe), iters, 1e6),
            "recourse.ball_radii": info(ball, "radii"),
            "recourse.ball_samples": samples,
            "recourse.ball_us_per_sample": ratio(total(ball), samples, 1e6),
            "attack.shadow_ensemble_s": total(by_name["attack.train_shadow_ensemble"]),
            "attack.cfd_lrt_s": total(by_name["attack.cfd_lrt"]),
            "attack.cfd_lrt_self_s": self_s(by_name["attack.cfd_lrt"]),
            "attack.loss_lrt_s": total(by_name["attack.loss_lrt"]),
            "attack.cfd_s": total(by_name["attack.cfd"]),
            "attack.loss_s": total(by_name["attack.loss"]),
            "attack.shadow_points": len(dist),
            "attack.shadow_starved": sum(s.error == "ShadowSampleError" for s in dist),
            "attack.shadow_skip_positive": skip_positive,
            "attack.shadow_skip_failed": skip_failed,
            "metrics.roc_calls": len(by_name["metrics.roc"]),
            "metrics.s": total(metric),
        }
        return {k: float(v) for k, v in out.items()}

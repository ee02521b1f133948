import argparse
import csv
import dataclasses
import gc
import inspect
import json
import os
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from recourse_mi import attack, cli, nn, recourse, runner
from recourse_mi import data as data_mod
from recourse_mi.data import SyntheticSpec, ZeroVarianceColumnError, load_tabular, write_csv
from recourse_mi.pool import TaskPool
from recourse_mi.recourse import DISTANCE_FLOOR
from recourse_mi.runner import ConfigError, GameSetupError, config_from_dict
from recourse_mi.seeds import derive_seed

from conftest import (batch_split_agreement, has_children, prob_of, records, shadow_matrices,
                      skip_counts, train_shadows, use_cpus)


def small_raw(**overrides):
    raw = {
        "experiment_id": "t",
        "data": {"kind": "synthetic", "d": 6, "n_per_class": 400,
                 "class_separation": 0.5},
        "model": {"architecture": []},
        "train": {"learning_rate": 0.05, "epochs": 40},
        "recourse": {"algorithm": "scfe", "scfe": {"max_iters": 120}},
        "attacks": {"which": ["cfd"], "n_shadow_models": 4},
        "eval": {"owner_n": 250, "shadow_n": 300, "eval_out_n": 200,
                 "eval_points": 30},
        "seed": 5,
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(raw.get(key), dict):
            raw[key].update(val)
        else:
            raw[key] = val
    return raw


def write_report(path):
    """A minimal report.json at path: one attack, both directions."""
    m = {"auc": 0.5, "balanced_accuracy": 0.5, "tpr_at_fpr": {"0.1": 0.1, "0.01": 0.0}}
    Path(path).write_text(json.dumps({"experiment_id": "g", "attacks": {
        "cfd": {"directions": {"standard": m, "reversed": m}}}}))


_NOT_INT = st.one_of(st.floats(), st.text(max_size=4), st.booleans(), st.none())


def _bad(path, values):
    return values.map(lambda v: [(path, v)])


_FLOAT_KEYS = [("data", "class_separation"), ("train", "learning_rate"),
               ("recourse", "scfe", "lam"), ("recourse", "scfe", "lam_decay"),
               ("recourse", "scfe", "step_size"), ("recourse", "search", "initial_radius"),
               ("recourse", "search", "radius_step"), ("recourse", "search", "max_radius"),
               ("recourse", "vae", "learning_rate")]
_INT_KEYS = [("seed",), ("data", "d"), ("data", "n_per_class"), ("train", "epochs"),
             ("train", "batch_size"), ("recourse", "scfe", "max_iters"),
             ("recourse", "scfe", "max_retries"), ("recourse", "search", "samples_per_radius"),
             ("recourse", "vae", "epochs"), ("attacks", "n_shadow_models"), ("eval", "owner_n"),
             ("eval", "shadow_n"), ("eval", "eval_out_n"), ("eval", "eval_points")]

# Each draw is a list of (key path, value) edits that make small_raw()
# invalid; the empty path replaces the whole config.
_MALFORMED = [
    _bad((), st.one_of(st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=4))),
    _bad(("seed",), _NOT_INT),
    _bad(("bogus",), st.integers()),
    _bad(("data", "bogus"), st.integers()),
    _bad(("data", "kind"), st.text(max_size=8).filter(lambda k: k not in ("synthetic", "file"))),
    _bad(("data", "d"), st.one_of(_NOT_INT, st.integers(max_value=0))),
    _bad(("data", "n_per_class"), st.one_of(_NOT_INT, st.integers(max_value=0))),
    _bad(("model", "architecture"), st.one_of(
        _NOT_INT, st.lists(st.one_of(_NOT_INT, st.integers(max_value=0)), min_size=1, max_size=3))),
    _bad(("attacks", "which"), st.lists(
        st.text(max_size=6).filter(lambda a: a not in runner.KNOWN_ATTACKS), min_size=1, max_size=2)),
    st.integers(max_value=1).map(lambda n: [(("attacks", "which"), ["cfd", "cfd_lrt"]),
                                            (("attacks", "n_shadow_models"), n)]),
    _bad(("attacks", "alpha_grid"), st.lists(st.one_of(
        st.floats().filter(lambda a: not 0 < a < 1), st.text(max_size=3)), min_size=1, max_size=3)),
    _bad(("recourse", "immutable"), st.lists(st.one_of(
        st.integers(min_value=6), st.integers(max_value=-1), st.floats(), st.text(max_size=3)),
        min_size=1, max_size=3)),
    st.tuples(st.sampled_from(["owner_n", "shadow_n", "eval_out_n", "eval_points"]),
              _NOT_INT).map(lambda kv: [(("eval", kv[0]), kv[1])]),
    _bad(("eval", "eval_points"), st.one_of(
        st.integers(max_value=1), st.integers(min_value=1).map(lambda n: 2 * n + 1))),
    _bad(("recourse", "scfe", "lam"), st.floats(max_value=0.0)),
    _bad(("train", "learning_rate"), st.floats(max_value=0.0)),
    _bad(("train", "epochs"), st.integers(max_value=0)),
    st.tuples(st.sampled_from([("train", "epochs"), ("recourse", "scfe", "max_iters"),
                               ("recourse", "scfe", "max_retries"),
                               ("recourse", "search", "samples_per_radius"),
                               ("recourse", "vae", "epochs")]),
              _NOT_INT).map(lambda kv: [kv]),
    _bad(("train", "batch_size"), st.one_of(st.floats(), st.text(max_size=4), st.booleans())),
    _bad(("data", "class_separation"), st.one_of(
        st.floats(max_value=0.0), st.integers(max_value=0), st.just(float("nan")),
        st.text(max_size=3), st.booleans(), st.none())),
    _bad(("data", "standardize"), st.one_of(st.text(max_size=5), st.integers(), st.none())),
    _bad(("data", "label_rule"), st.one_of(
        st.text(max_size=8).filter(lambda r: r not in ("binary", "median-threshold")),
        st.integers(), st.none())),
    st.one_of(st.just(""), st.integers(), st.none(), st.lists(st.text(max_size=2), max_size=2)).map(
        lambda c: [(("data", "kind"), "file"), (("data", "path"), "t.csv"),
                   (("data", "label_column"), c)]),
    st.tuples(st.sampled_from(_FLOAT_KEYS),
              st.sampled_from([float("inf"), float("-inf"), float("nan")])).map(lambda kv: [kv]),
    st.tuples(st.sampled_from(_FLOAT_KEYS + _INT_KEYS),
              st.one_of(st.integers(1, 100), st.floats(0.01, 0.99)).map(str)).map(lambda kv: [kv]),
    st.tuples(st.sampled_from([("data",), ("train",), ("recourse",), ("recourse", "scfe"),
                               ("attacks",), ("eval",)]),
              st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2)),
              ).map(lambda kv: [kv]),
]


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = config_from_dict(small_raw(out_dir=str(out)))
    return runner.run_experiment(cfg), out


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict(small_raw(bogus=1))

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="data.bogus"):
            config_from_dict(small_raw(data={"bogus": 2}))

    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigError, match="unknown attack"):
            config_from_dict(small_raw(attacks={"which": ["nope"]}))

    def test_file_kind_requires_path(self):
        with pytest.raises(ConfigError, match="path"):
            config_from_dict(small_raw(data={"kind": "file"}))

    def test_bad_recourse_param_is_config_error(self):
        with pytest.raises(ConfigError):
            config_from_dict(small_raw(recourse={"scfe": {"lam": -1.0}}))

    @pytest.mark.parametrize("overrides,match", [
        ({"attacks": {"which": ["cfd", "cfd_lrt"], "n_shadow_models": 1}}, "n_shadow_models"),
        ({"attacks": {"which": ["loss_lrt"], "n_shadow_models": 1}}, "n_shadow_models"),
        ({"attacks": {"alpha_grid": [2.0]}}, "alpha_grid"),
        ({"attacks": {"alpha_grid": [0.1, 0.0]}}, "alpha_grid"),
        ({"data": {"d": 8}, "recourse": {"immutable": [99]}}, "immutable"),
        ({"recourse": {"immutable": [1.5]}}, "immutable"),
        # no recourse could move a point: every game recourse would fail
        ({"data": {"d": 2}, "recourse": {"immutable": [0, 1]}}, "immutable"),
        ({"eval": {"eval_points": "20"}}, "eval_points"),
        ({"eval": {"owner_n": 250.0}}, "owner_n"),
        ({"eval": {"eval_points": 21}}, "even"),
        ({"train": {"epochs": 3.0}}, "train.epochs"),
        ({"train": {"batch_size": 2.5}}, "train.batch_size"),
        ({"recourse": {"scfe": {"max_iters": 5.0}}}, "recourse.scfe.max_iters"),
        ({"recourse": {"search": {"samples_per_radius": 10.0}}}, "samples_per_radius"),
        ({"recourse": {"vae": {"epochs": 2.0}}}, "recourse.vae.epochs"),
        ({"data": {"class_separation": 0}}, "class_separation"),
        ({"recourse": 5}, "recourse must be a JSON object"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": "x"}, "seed"),
        ({"sweep": {"d": [2.5]}}, "sweep.d"),
        ({"sweep": {"d": 5}}, "sweep.d"),
        ({"sweep": {"d": [4, 0]}}, "sweep.d"),
        ({"sweep": {"seed": "ab"}}, "sweep.seed"),
        ({"sweep": {"seed": [1, True]}}, "sweep.seed"),
        ({"sweep": []}, "sweep must be a JSON object"),
        ({"sweep": {"d": [4]}, "data": 5}, "data must be a JSON object"),
        # the second run's immutable index is out of range: found before the first trains
        ({"sweep": {"d": [8, 4]}, "recourse": {"immutable": [6]}}, "immutable"),
        # partition sizes: each checked before any data is built, their sum
        # against the data's rows by the split, still before any training
        ({"eval": {"owner_n": -5}}, "owner_n"),
        ({"eval": {"owner_n": 0}}, "owner_n"),
        ({"eval": {"eval_out_n": 0}}, "eval_out_n"),
        # each side draws half the game's points from its own partition
        ({"eval": {"eval_points": 402}}, "eval_points"),
        ({"attacks": {"which": ["cfd_lrt"]}, "eval": {"shadow_n": 3}}, "shadow_n"),
        ({"attacks": {"which": ["loss_lrt"]}, "eval": {"shadow_n": 3}}, "shadow_n"),
        ({"data": {"n_per_class": 100},
          "eval": {"owner_n": 100, "shadow_n": 100, "eval_out_n": 100}}, "exceeds the 200 rows"),
        # data values: checked before any data is read
        ({"data": {"standardize": "no"}}, "data.standardize"),
        ({"data": {"standardize": "false"}}, "data.standardize"),
        ({"data": {"kind": "file", "path": "t.csv", "label_column": "y",
                   "label_rule": "foo"}}, "data.label_rule"),
        ({"data": {"kind": "file", "path": "t.csv", "label_column": 5}}, "data.label_column"),
        # each key's type and bounds come from runner.CONFIG_TABLE, numbers finite
        ({"out_dir": 5}, "out_dir"),
        ({"sweep": {"seed": [1]}, "out_dir": 5}, "out_dir"),
        ({"experiment_id": [1]}, "experiment_id"),
        ({"data": {"class_separation": float("inf")}}, "data.class_separation"),
        ({"recourse": {"search": {"max_radius": float("nan")}}}, "recourse.search.max_radius"),
        ({"recourse": {"scfe": {"step_size": float("inf")}}}, "recourse.scfe.step_size"),
        ({"train": {"learning_rate": "0.1"}}, "train.learning_rate must be a finite number > 0"),
        ({"recourse": {"vae": {"learning_rate": -1}}}, "recourse.vae.learning_rate"),
        ({"attacks": {"n_shadow_models": 1025}}, "attacks.n_shadow_models"),
        ({"data": {"d": 10_001}}, "data.d"),
        # rules across keys
        ({"attacks": {"which": []}}, "attacks.which"),
        ({"attacks": {"which": ["cfd", "cfd"]}}, "attacks.which"),
        ({"recourse": {"algorithm": "growing_spheres",
                       "search": {"initial_radius": 5.0, "max_radius": 1.0}}}, "initial_radius"),
        # a sweep run's id is the configured one plus a suffix, only for a string
        ({"sweep": {"seed": [1]}, "experiment_id": [1]}, "experiment_id"),
        ({"sweep": {"seed": [1]}, "experiment_id": None}, "experiment_id"),
        ({"sweep": {"d": [4]}, "experiment_id": 5}, "experiment_id"),
        # a base value is checked even where every run overrides it
        ({"seed": "x", "sweep": {"seed": [1]}}, "seed must be an integer"),
        # work repeated or dropped without a word: a repeated sweep value would
        # run and write one experiment twice, a file fixes d so sweep.d would
        # repeat its audit under other names, and a repeated alpha collapses
        # to one guess_at key
        ({"sweep": {"seed": [3, 3]}}, "sweep.seed"),
        ({"sweep": {"d": [2, 50]}, "data": {"kind": "file", "path": "t.csv",
                                            "label_column": "y"}}, "sweep.d"),
        ({"attacks": {"which": ["cfd_lrt"], "alpha_grid": [0.05, 0.05]}}, "attacks.alpha_grid"),
    ])
    def test_bad_values_exit_1_before_training(self, tmp_path, monkeypatch, capsys,
                                                overrides, match):
        trained = []
        monkeypatch.setattr(nn, "train_classifier", lambda *a, **k: trained.append(a))
        monkeypatch.setattr(nn, "train_vae", lambda *a, **k: trained.append(a))
        raw = small_raw(**overrides)
        command = "sweep" if "sweep" in raw else "run"
        with pytest.raises(ConfigError, match=match):
            if command == "sweep":
                runner.run_sweep(raw)
            else:
                runner.build_split(config_from_dict(raw))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = [] if "out_dir" in raw else ["--out", str(tmp_path / "o")]  # --out would replace it
        assert cli.main([command, "--config", str(cfg_path), *out]) == 1
        assert match in capsys.readouterr().err and not trained

    @pytest.mark.parametrize("command,under", [
        ("run", False), ("run", True), ("sweep", False), ("train", False), ("train", True)])
    def test_an_out_path_that_is_no_directory_exits_1_before_any_data(
            self, tmp_path, monkeypatch, capsys, command, under):
        # a file where the output directory, or one of its parents, would go
        # would fail the first write, after the whole audit had trained
        built = []
        monkeypatch.setattr(runner, "build_split", lambda *a: built.append(a))
        monkeypatch.setattr(nn, "train_classifier", lambda *a, **k: built.append(a))
        raw = small_raw(sweep={"seed": [1, 2]}) if command == "sweep" else small_raw()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        blocker = tmp_path / "o"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if under else blocker
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        # a sweep names its first run's directory, inside the blocker
        assert f"cannot be used: {blocker} is not a directory" in err and str(out) in err
        assert not built and blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command,out,blocker,kind", [
        ("gen-data", "o", "o", "dir"), ("gen-data", "o/d.csv", "o", "file"),
        ("gen-data", "d.csv", "d.provenance.json", "dir"),
        ("recourse", "o", "o", "dir"), ("recourse", "o/g.jsonl", "o", "file"),
        ("summarize", "o", "o", "dir"), ("summarize", "o/s.csv", "o", "file")])
    def test_an_out_file_that_cannot_be_written_exits_1_before_any_data(
            self, tmp_path, monkeypatch, capsys, command, out, blocker, kind):
        # a directory at the output file's path (or gen-data's provenance
        # sibling), or a file among its parents, would fail the write after
        # the data was built or every report read
        built = []
        for name in ("build_dataset", "build_split", "read_report"):
            monkeypatch.setattr(runner, name, lambda *a, _name=name: built.append(_name))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw()))
        out, blocker = tmp_path / out, tmp_path / blocker
        if kind == "dir":
            blocker.mkdir()
        else:
            blocker.write_text("not a directory\n")
        args = ([str(tmp_path / "report.json")] if command == "summarize"
                else ["--config", str(cfg_path)])
        assert cli.main([command, *args, "--out", str(out)]) == 1
        named = blocker if blocker.name.endswith(".provenance.json") else out
        why = "is a directory" if kind == "dir" else "is not a directory"
        assert (f"config error: output file {named} cannot be used: {blocker} {why}"
                in capsys.readouterr().err)
        assert not built
        if kind == "dir":
            assert list(blocker.iterdir()) == []
        else:
            assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("blocker,kind,what", [
        ("seed2", "file", "directory"), ("summary.csv", "dir", "file")])
    def test_a_sweep_path_that_cannot_be_written_exits_1_before_any_data(
            self, tmp_path, monkeypatch, capsys, blocker, kind, what):
        # a later run's directory, or the summary beside the runs, would fail
        # its write after the earlier runs had trained and written theirs
        built = []
        monkeypatch.setattr(runner, "build_split", lambda *a: built.append(a))
        monkeypatch.setattr(nn, "train_classifier", lambda *a, **k: built.append(a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw(sweep={"seed": [1, 2]})))
        out = tmp_path / "o"
        out.mkdir()
        if kind == "dir":
            (out / blocker).mkdir()
        else:
            (out / blocker).write_text("not a directory\n")
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        why = "is a directory" if kind == "dir" else "is not a directory"
        assert (f"config error: output {what} {out / blocker} cannot be used: "
                f"{out / blocker} {why}" in capsys.readouterr().err)
        assert not built and [p.name for p in out.iterdir()] == [blocker]
        if kind == "dir":
            assert list((out / blocker).iterdir()) == []
        else:
            assert (out / blocker).read_text() == "not a directory\n"

    def test_sweep_seed_flag_against_sweep_seed_exits_1_before_training(
            self, tmp_path, monkeypatch, capsys):
        # every run's sweep.seed would replace --seed without a word
        trained = []
        monkeypatch.setattr(nn, "train_classifier", lambda *a, **k: trained.append(a))
        monkeypatch.setattr(nn, "train_vae", lambda *a, **k: trained.append(a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw(sweep={"seed": [1]})))
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", str(cfg_path), "--seed", "9",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "sweep.seed" in err and not trained and not out.exists()

    def test_sweep_seed_flag_sets_the_seed_of_a_d_sweep(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw(sweep={"d": [4]})))
        assert cli.main(["sweep", "--config", str(cfg_path), "--seed", "9",
                         "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "d4" / "report.json").read_text())["master_seed"] == 9

    def test_file_too_small_for_the_partitions_exits_1_before_training(
            self, tmp_path, monkeypatch, capsys):
        trained = []
        monkeypatch.setattr(nn, "train_classifier", lambda *a, **k: trained.append(a))
        rng = np.random.default_rng(0)
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b,y\n" + "".join(f"{a!r},{b!r},{i % 2}\n" for i, (a, b)
                                               in enumerate(rng.normal(size=(40, 2)).tolist())))
        raw = small_raw(data={"kind": "file", "path": str(csv_path), "label_column": "y",
                              "label_rule": "binary"},
                        eval={"owner_n": 15, "shadow_n": 15, "eval_out_n": 15})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "exceeds the 40 rows" in capsys.readouterr().err and not trained

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(*_MALFORMED))
    def test_malformed_config_exits_1_within_a_second_without_training(self, fields):
        raw = small_raw()
        for path, value in fields:
            if not path:
                raw = value
                continue
            node = raw
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = value
        trained = []
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "train_classifier", lambda *a, **k: trained.append(a))
            mp.setattr(nn, "train_vae", lambda *a, **k: trained.append(a))
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(raw))
            t0 = time.perf_counter()
            code = cli.main(["run", "--config", str(cfg_path), "--out", str(Path(tmp) / "o")])
            elapsed = time.perf_counter() - t0
        assert code == 1 and not trained and elapsed < 1.0

    def test_file_immutable_index_checked_once_the_csv_loads(self, tmp_path, monkeypatch):
        csv = tmp_path / "data.csv"
        csv.write_text("a,b,label\n" + "".join(f"{i},{-i},{i % 2}\n" for i in range(40)))
        raw = small_raw(data={"kind": "file", "path": str(csv), "label_column": "label",
                              "label_rule": "binary"},
                        recourse={"immutable": [2]})
        cfg = config_from_dict(raw)
        trained = []
        monkeypatch.setattr(nn, "train_classifier", lambda *a: trained.append(a))
        with pytest.raises(ConfigError, match=r"immutable.*\[0, 2\)"):
            runner.run_experiment(cfg, stop="owner")
        # both of the file's columns immutable: no recourse could move a point
        with pytest.raises(ConfigError, match=r"immutable.*2 features free"):
            runner.run_experiment(config_from_dict(dict(raw, recourse={"immutable": [1, 0]})),
                                  stop="owner")
        assert not trained

    def test_readme_lists_the_config_table_and_names_only_its_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([\w.]+)` \| (.+?) \| `(.+?)` \|$", readme, re.M)
        assert rows == [(key, runner._requirement(key), json.dumps(default))
                        for key, _, _, default in runner.CONFIG_TABLE]
        rules = readme[readme.index("Beyond each key's own row:"):
                       readme.index("`--seed` and `--out` override")]
        named = set(re.findall(r"`([a-z_]+(?:\.[a-z_]+)+)`", rules))
        assert len(named) >= 10 and named <= {row[0] for row in runner.CONFIG_TABLE}

    def test_readme_config_schema_is_the_default_snapshot(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Config schema\n.*?```jsonc\n(.*?)```", readme, re.S).group(1)
        # no string in the block holds "//", so each comment runs to its line's end
        doc = json.loads(re.sub(r"//.*", "", block))
        assert "sweep" in doc
        del doc["sweep"]
        assert doc == runner.normalize_config({})

    def test_readme_library_use_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
        namespace: dict = {}
        exec(block, namespace)
        assert 0.0 <= namespace["score"] <= 1.0
        assert namespace["member"] is (namespace["score"] >= 0.95)

    def test_defaults_applied(self):
        cfg = config_from_dict({})
        assert cfg.recourse.algorithm == "scfe"
        assert cfg.train.learning_rate == 1e-4
        assert cfg.train.epochs == 250
        assert cfg.snapshot["attacks"]["n_shadow_models"] == 16

    def test_defaults_are_the_library_defaults(self):
        cfg = config_from_dict({})
        assert cfg.recourse == recourse.RecourseConfig()
        assert cfg.train == nn.TrainConfig()
        assert runner.normalize_config({})["data"]["class_separation"] == \
            SyntheticSpec.class_separation

    def test_one_library_field_per_config_key(self):
        # each schedule holds exactly its section's keys, and the section's
        # own keys land once, in RecourseConfig
        for params, section in ((recourse.ScfeParams, "recourse.scfe."),
                                (recourse.SearchParams, "recourse.search.")):
            keys = {key[len(section):] for key, *_ in runner.CONFIG_TABLE
                    if key.startswith(section)}
            assert {f.name for f in dataclasses.fields(params)} == keys
        cfg = config_from_dict({"recourse": {"cost_norm": "l2", "immutable": [1]}})
        assert cfg.recourse.norm == "l2" and cfg.recourse.immutable == (1,)

    def test_a_new_table_row_reaches_the_snapshot_with_no_other_edit(self, monkeypatch):
        # the checked config stores only the snapshot and the library objects
        # built from it, so a key needs its CONFIG_TABLE row and nothing more
        table = (*runner.CONFIG_TABLE, ("eval.extra", int, (0, None), 7))
        monkeypatch.setattr(runner, "CONFIG_TABLE", table)
        monkeypatch.setattr(runner, "_ROWS", {row[0]: row for row in table})
        assert config_from_dict({}).snapshot["eval"]["extra"] == 7
        cfg = config_from_dict({"seed": 5, "out_dir": "out", "eval": {"extra": 3}})
        assert cfg.snapshot["eval"]["extra"] == 3
        assert (cfg.seed, cfg.out_dir) == (5, "out")
        assert [f.name for f in dataclasses.fields(cfg)] == ["snapshot", "train", "recourse",
                                                              "vae_train"]


class TestPlayGame:
    def test_balanced_and_negatively_classified(self):
        cfg = config_from_dict(small_raw())
        rep = runner.run_experiment(cfg, stop="game")
        game = rep.game
        n_m = int(game.member.sum())
        n_n = len(game.point_ids) - n_m
        assert n_m == n_n == 15
        for x in game.points:
            assert prob_of(rep.owner_model, x) < 0.5
        assert game.recourse.valid.all()

    def test_deterministic(self):
        cfg1 = config_from_dict(small_raw())
        cfg2 = config_from_dict(small_raw())
        g1 = runner.run_experiment(cfg1, stop="game").game
        g2 = runner.run_experiment(cfg2, stop="game").game
        assert g1.point_ids == g2.point_ids
        assert np.array_equal(g1.points, g2.points)
        assert np.array_equal(g1.recourse.counterfactuals, g2.recourse.counterfactuals)

    def test_a_game_without_failed_recourse_copies_nothing(self, monkeypatch):
        seen = {}
        real = recourse.RecourseConfig.generate_batch

        def spy(self, model, X, seeds, vae=None):
            seen["points"], seen["batch"] = X, real(self, model, X, seeds, vae=vae)
            return seen["batch"]

        monkeypatch.setattr(recourse.RecourseConfig, "generate_batch", spy)
        game = runner.run_experiment(config_from_dict(small_raw()), stop="game").game
        assert seen["batch"].valid.all()
        assert np.shares_memory(game.points, seen["points"])
        assert np.shares_memory(game.recourse.counterfactuals, seen["batch"].counterfactuals)

    @staticmethod
    def growing_spheres(max_radius):
        # a search this short fails for most of the 15 points per side
        return config_from_dict(small_raw(recourse={
            "algorithm": "growing_spheres",
            "search": {"samples_per_radius": 50, "max_radius": max_radius}}))

    def test_a_game_keeps_exactly_the_valid_rows_and_counts_the_failures(self, monkeypatch):
        seen = {}
        real = recourse.RecourseConfig.generate_batch

        def spy(self, model, X, seeds, vae=None):
            seen["points"], seen["batch"] = X, real(self, model, X, seeds, vae=vae)
            return seen["batch"]

        monkeypatch.setattr(recourse.RecourseConfig, "generate_batch", spy)
        cfg = self.growing_spheres(1.2)
        rep = runner.run_experiment(cfg, stop="game")
        game, batch, kept = rep.game, seen["batch"], seen["batch"].valid
        member = np.arange(30) < 15
        failures = {"member": int((~kept[member]).sum()),
                    "non_member": int((~kept[~member]).sum())}
        assert 0 < min(failures.values()) and max(failures.values()) < 15
        assert rep.game_meta["recourse_failures"] == failures
        assert (rep.game_meta["n_member"], rep.game_meta["n_non_member"]) == (
            15 - failures["member"], 15 - failures["non_member"])
        assert np.array_equal(game.points, seen["points"][kept])
        assert np.array_equal(game.member, member[kept])
        assert records(game.recourse) == [batch.row_json(int(i)) for i in np.flatnonzero(kept)]
        # each kept id names the owner-training (m) or held-out (n) row of its point
        bundle, _ = runner.build_split(cfg)
        assert len(set(game.point_ids)) == len(game.point_ids) == int(kept.sum())
        for pid, x, y, m in zip(game.point_ids, game.points, game.labels, game.member):
            rows = bundle.owner_train if m else bundle.eval_out
            assert pid[0] == ("m" if m else "n")
            assert np.array_equal(rows.features[int(pid[1:])], x)
            assert rows.labels[int(pid[1:])] == y

    def test_a_side_with_no_valid_recourse_errors_with_counts(self):
        with pytest.raises(GameSetupError, match=r"members kept 1, non-members kept 0\)"):
            runner.run_experiment(self.growing_spheres(0.2), stop="game")

    def test_too_few_negatives_errors_with_counts(self):
        # as many points as the smaller partition (eval_out_n 200) holds:
        # the config allows it, but not every row is negatively classified
        raw = small_raw()
        raw["eval"]["eval_points"] = 400
        cfg = config_from_dict(raw)
        with pytest.raises(GameSetupError, match="negatively-classified"):
            runner.run_experiment(cfg, stop="game")


class TestShadowReplay:
    def test_shadow_vae_uses_configured_vae_training(self, monkeypatch):
        raw = small_raw(recourse={"algorithm": "cchvae",
                                  "vae": {"learning_rate": 2e-3, "epochs": 3}},
                        attacks={"which": ["cfd_lrt"], "n_shadow_models": 2})
        use_cpus(monkeypatch, 1)  # inline, so every call below reaches its list
        trained, replayed = {}, []
        real_vae, real_column = nn.train_vae, attack.shadow_column
        monkeypatch.setattr(nn, "train_vae", lambda data, c: trained.setdefault(
            data.n, real_vae(data, c)))
        monkeypatch.setattr(attack, "shadow_column", lambda *a: replayed.append(a[-1][1])
                            or real_column(*a))
        runner.run_experiment(config_from_dict(raw))
        owner_vae, shadow_vae = trained[250], trained[300]  # eval.owner_n, eval.shadow_n
        for vae in (owner_vae, shadow_vae):
            assert vae.training_meta["epochs"] == 3
            assert vae.training_meta["learning_rate"] == 2e-3
        assert shadow_vae.training_meta["seed"] != owner_vae.training_meta["seed"]
        assert len(replayed) == 2 and all(vae is shadow_vae for vae in replayed)

    def test_shadow_training_replays_the_owner_config(self, monkeypatch):
        # batch_size and learning_rate, not their defaults, mark the owner's config
        cfg = config_from_dict(small_raw(train={"batch_size": 50, "learning_rate": 0.03},
                                         attacks={"which": ["cfd_lrt"], "n_shadow_models": 2}))
        use_cpus(monkeypatch, 1)  # a forked worker's calls would not reach `seen`
        seen = []
        real = nn.train_classifier
        monkeypatch.setattr(nn, "train_classifier",
                            lambda data, arch, c: seen.append(c) or real(data, arch, c))
        runner.run_experiment(cfg)
        owner, *shadows = seen
        assert (owner.batch_size, owner.learning_rate) == (50, 0.03)
        assert len(shadows) == 2
        for c in shadows:
            assert c.seed != owner.seed
            assert dataclasses.replace(c, seed=owner.seed) == owner


class TestTrainingTaskList:
    @staticmethod
    def cchvae_lrt():
        return config_from_dict(small_raw(
            recourse={"algorithm": "cchvae", "vae": {"epochs": 20},
                      "search": {"samples_per_radius": 50}},
            attacks={"which": ["cfd", "cfd_lrt"], "n_shadow_models": 3},
            eval={"eval_points": 10}))

    @pytest.mark.parametrize("algorithm,which,shadows,first,n_shadows", [
        ("scfe", "cfd", True, ["owner"], 0),
        ("scfe", "cfd", False, ["owner"], 0),
        ("scfe", "cfd_lrt", True, ["owner"], 3),
        ("scfe", "cfd_lrt", False, ["owner"], 0),
        ("scfe", "loss_lrt", True, ["owner"], 3),
        ("scfe", "loss_lrt", False, ["owner"], 0),
        ("cchvae", "cfd", True, ["owner_vae", "owner"], 0),
        ("cchvae", "cfd", False, ["owner_vae", "owner"], 0),
        ("cchvae", "cfd_lrt", True, ["shadow_vae", "owner_vae", "owner"], 3),
        ("cchvae", "cfd_lrt", False, ["owner_vae", "owner"], 0),
        ("cchvae", "loss_lrt", True, ["owner_vae", "owner"], 3),
        ("cchvae", "loss_lrt", False, ["owner_vae", "owner"], 0),
    ])
    def test_model_tasks_lists_every_model_of_the_audit(self, monkeypatch, algorithm, which,
                                                        shadows, first, n_shadows):
        # the tags in start order and the rows each model of `first` trains
        # on; the list is built without training anything
        trained = []
        for name in ("train_classifier", "train_vae"):
            monkeypatch.setattr(nn, name, lambda *a: trained.append(a))
        monkeypatch.setattr(attack, "train_shadow", lambda *a: trained.append(a))
        cfg = config_from_dict(small_raw(recourse={"algorithm": algorithm},
                                         attacks={"which": [which], "n_shadow_models": 3}))
        bundle = runner.build_split(cfg)[0]
        got_first, got_shadows = runner._model_tasks(cfg, bundle, shadows)
        assert list(got_first) == first
        assert list(got_shadows) == ["shadow_0", "shadow_1", "shadow_2"][:n_shadows]
        for tag, task in got_first.items():
            assert task.args[0] is (bundle.shadow_pool if tag == "shadow_vae"
                                    else bundle.owner_train)
        assert not trained

    def test_models_and_columns_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # every model, and every shadow model's column, that the audit
        # process takes from its pool, by tag
        cfg = self.cchvae_lrt()
        taken = {}
        real_take = TaskPool.take
        monkeypatch.setattr(TaskPool, "take", lambda pool, tag: taken[cpus].setdefault(
            tag, real_take(pool, tag)))
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            taken[cpus] = {}
            runner.run_experiment(cfg)
        assert sorted(taken[1]) == sorted(taken[2]) == [
            "owner", "owner_vae", "shadow_0", "shadow_1", "shadow_2", "shadow_vae"]
        for tag, one in taken[1].items():
            two = taken[2][tag]
            if tag.startswith("shadow_") and tag != "shadow_vae":  # (probs, dists)
                assert all(np.array_equal(a, b, equal_nan=True)
                           for a, b in zip(one, two, strict=True))
                continue
            params = [(p.weights + p.biases) if isinstance(p, nn.Model)
                      else [a for _, a in p._arrays()] for p in (one, two)]
            assert all(np.array_equal(a, b) for a, b in zip(*params, strict=True))
            assert one.training_meta == two.training_meta

    def test_audit_trains_only_on_the_workers_in_one_task_list(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        pools, started = [], []
        for name, seen in (("__init__", pools), ("start", started)):
            monkeypatch.setattr(TaskPool, name, lambda self, *a, _real=getattr(TaskPool, name),
                                _seen=seen: _seen.append(a[0] if a else None) or _real(self, *a))
        calls = []  # a forked worker's calls never reach this list
        for name in ("train_classifier", "train_vae"):
            monkeypatch.setattr(nn, name, lambda *a, _real=getattr(nn, name), _name=name:
                                calls.append(_name) or _real(*a))
        runner.run_experiment(self.cchvae_lrt())
        # one pool: every model is one of its inherited tasks, longest
        # first, and each shadow task also replays its model
        assert len(pools) == 1 and list(pools[0]) == [
            "shadow_vae", "owner_vae", "owner", "shadow_0", "shadow_1", "shadow_2"]
        assert started == list(pools[0])
        assert calls == []

    @pytest.mark.parametrize("which,shadow_vae", [
        (["cfd", "loss_lrt"], False), (["cfd_lrt"], True)], ids=["loss_lrt", "cfd_lrt"])
    def test_shadow_vae_trains_only_for_the_cfd_lrt_replay(self, tmp_path, which, shadow_vae):
        # only the cfd_lrt replay searches the shadow VAE's latent space
        raw = small_raw(recourse={"algorithm": "cchvae", "vae": {"epochs": 5},
                                  "search": {"samples_per_radius": 50}},
                        attacks={"which": which, "n_shadow_models": 2},
                        eval={"eval_points": 10}, out_dir=str(tmp_path))
        runner.run_experiment(config_from_dict(raw))
        tasks = json.loads((tmp_path / "trace.json").read_text())["tasks"]
        assert ("shadow_vae" in tasks) == shadow_vae
        assert {"owner", "owner_vae", "shadow_0", "shadow_1"} <= set(tasks)

    @pytest.mark.parametrize("command", ["train", "recourse"])
    @pytest.mark.parametrize("algorithm", ["scfe", "cchvae"])
    def test_train_command_trains_only_the_owner(self, tmp_path, monkeypatch, command,
                                                 algorithm):
        # train and recourse stop the audit before its shadows: the owner
        # model and, for cchvae, the owner's VAE train on the owner's rows,
        # and no shadow model or shadow VAE trains or is even put on the pool
        use_cpus(monkeypatch, 1)  # inline, so every training call reaches `seen`
        pools = []
        monkeypatch.setattr(TaskPool, "__init__", lambda self, tasks, _real=TaskPool.__init__:
                            pools.append(list(tasks)) or _real(self, tasks))
        seen = {"train_classifier": [], "train_vae": []}
        for name, rows in seen.items():
            monkeypatch.setattr(nn, name, lambda data, *a, _real=getattr(nn, name), _rows=rows:
                                _rows.append(data.n) or _real(data, *a))
        raw = small_raw(recourse={"algorithm": algorithm, "vae": {"epochs": 5},
                                  "search": {"samples_per_radius": 50}},
                        attacks={"which": ["cfd_lrt", "loss_lrt"]}, eval={"eval_points": 10})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "m"
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        owner_n = raw["eval"]["owner_n"]
        assert pools == [["owner_vae", "owner"] if algorithm == "cchvae" else ["owner"]]
        assert seen == {"train_classifier": [owner_n],
                        "train_vae": [owner_n] if algorithm == "cchvae" else []}
        if command == "train":
            assert (out / "vae" / "manifest.json").is_file() == (algorithm == "cchvae")


class TestDataStage:
    """The runner's data stage against the copy-based pipeline it replaced
    (tests/reference.py): generation, standardization and the split work
    in place on one feature matrix, and must give the same bytes."""

    @staticmethod
    def reference_stage(config):
        dc, ev = config.snapshot["data"], config.snapshot["eval"]
        if dc["kind"] == "synthetic":
            spec = SyntheticSpec(d=dc["d"], n_per_class=dc["n_per_class"],
                                 seed=derive_seed(config.seed, "synthetic-data"),
                                 class_separation=float(dc["class_separation"]))
            features, labels, prov = reference.synthetic_reference(spec)
        else:
            ds = load_tabular(dc["path"], dc["label_column"], dc["label_rule"])
            features, labels, prov = ds.features, ds.labels, ds.provenance
        if dc["standardize"]:
            features = reference.standardize_reference(features)[0]
            prov = {"kind": "standardized", "parent": prov}
        parts = reference.split_reference(features, labels, prov, ev["owner_n"],
                                          ev["shadow_n"], ev["eval_out_n"],
                                          derive_seed(config.seed, "split"))
        return parts, prov, (features, labels)

    def assert_matches_reference(self, config):
        bundle, prov = runner.build_split(config)
        parts, ref_prov, _ = self.reference_stage(config)
        assert json.dumps(prov, sort_keys=True) == json.dumps(ref_prov, sort_keys=True)
        for role, (x, y, part_prov) in parts.items():
            ds = getattr(bundle, role)
            assert ds.features.shape == x.shape and ds.features.tobytes() == x.tobytes()
            assert ds.labels.tobytes() == y.tobytes()
            assert json.dumps(ds.provenance, sort_keys=True) == \
                json.dumps(part_prov, sort_keys=True)
            assert not ds.features.flags.writeable

    @pytest.mark.parametrize("d,n_per_class,standardize", [
        (6, 4, True), (6, 5, True), (6, 13, True), (6, 200, True),
        (1, 7, True), (1, 300, True), (5, 33, False), (2, 101, True),
    ])
    def test_in_place_stage_equals_the_copy_based_pipeline(self, monkeypatch, d,
                                                            n_per_class, standardize):
        # 9-row chunks and split blocks at d=6: N from below one chunk to many
        monkeypatch.setattr(data_mod, "BLOCK_VALUES", 54)
        n = 2 * n_per_class
        owner_n, shadow_n = n // 4, n // 3
        for seed in (3, 7):
            self.assert_matches_reference(config_from_dict(small_raw(
                seed=seed, data={"d": d, "n_per_class": n_per_class, "standardize": standardize},
                eval={"owner_n": owner_n, "shadow_n": shadow_n,
                      "eval_out_n": n - owner_n - shadow_n - seed % 2, "eval_points": 2})))

    def test_default_chunk_size_equals_the_copy_based_pipeline(self):
        # d=64: 256-row chunks of 128 KiB, and 1400 rows
        self.assert_matches_reference(config_from_dict(small_raw(
            data={"d": 64, "n_per_class": 700},
            eval={"owner_n": 500, "shadow_n": 600, "eval_out_n": 250})))

    @pytest.mark.parametrize("d", [64, 1, 300])  # numpy sums a single column pairwise
    @pytest.mark.parametrize("extra_rows", [-1, 0, 1, 1025])
    def test_scaler_equals_np_std_around_the_chunk_size(self, extra_rows, d):
        # a chunking that changes the order of the sum moves the std's last
        # bit, and so standardized values, for about half of these draws;
        # 1025 extra rows run many multi-row blocks, of 256 rows at d=64 and
        # of 54 at d=300, which pins the order of the running sum
        n = data_mod.block_rows(d) + extra_rows
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = rng.normal(3.0, 2.5, size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
            out = data_mod.standardize(data_mod.Dataset(x, np.arange(n) % 2))
            ref, _, _ = reference.standardize_reference(x)
            assert out.features.tobytes() == ref.tobytes()

    def test_median_threshold_file_equals_the_copy_based_pipeline(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(61, 4)) * [1.0, 30.0, 0.01, 5.0]
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b,score,c\n" + "".join(",".join(map(repr, r)) + "\n"
                                                     for r in rows.tolist()))
        self.assert_matches_reference(config_from_dict(small_raw(
            data={"kind": "file", "path": str(csv_path), "label_column": "score",
                  "label_rule": "median-threshold"},
            eval={"owner_n": 20, "shadow_n": 20, "eval_out_n": 15})))

    def test_zero_variance_file_column_is_named(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b,y\n" + "".join(f"{i * 0.5!r},2.0,{i % 2}\n" for i in range(12)))
        config = config_from_dict(small_raw(
            data={"kind": "file", "path": str(csv_path), "label_column": "y",
                  "label_rule": "binary"},
            eval={"owner_n": 4, "shadow_n": 4, "eval_out_n": 4, "eval_points": 8}))
        with pytest.raises(ConfigError, match="^data.path .* b has zero variance$") as err:
            runner.build_split(config)
        assert isinstance(err.value.__cause__, ZeroVarianceColumnError)

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8", "non_numeric",
                                      "zero_variance", "no_label_column", "label_only",
                                      "repeated_name"])
    def test_unusable_data_file_exits_1_before_training(self, tmp_path, monkeypatch, capsys,
                                                         case):
        trained = []
        monkeypatch.setattr(nn, "train_classifier", lambda *a, **k: trained.append(a))
        path = tmp_path / "t.csv"
        rows = "a,b,y\n" + "".join(f"{i * 0.5!r},{-i!r},{i % 2}\n" for i in range(40))
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(rows.encode() + b"\xff\xfe,1.0,0\n")
        elif case == "non_numeric":
            path.write_text(rows + "x,1.0,0\n")
        elif case == "zero_variance":
            path.write_text("a,b,y\n" + "".join(f"{i * 0.5!r},2.0,{i % 2}\n" for i in range(40)))
        elif case == "label_only":  # no feature column, so no immutable rule applies
            path.write_text("y\n" + "".join(f"{i % 2}\n" for i in range(40)))
        elif case == "repeated_name":
            path.write_text("y,b,y\n" + "".join(f"{i % 2},{-i!r},{i % 2}\n" for i in range(40)))
        elif case != "missing":
            path.write_text(rows)
        raw = small_raw(data={"kind": "file", "path": str(path), "label_rule": "binary",
                              "label_column": "label" if case == "no_label_column" else "y"},
                        eval={"owner_n": 10, "shadow_n": 10, "eval_out_n": 10,
                              "eval_points": 20})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        for command in ("run", "train", "gen-data"):
            assert cli.main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / command)]) == 1
            assert f"config error: data.path {str(path)!r} cannot be used: " in \
                capsys.readouterr().err
        assert not trained

    def test_gen_data_bytes_equal_the_copy_based_pipeline(self, tmp_path, capsys):
        raw = small_raw(seed=11)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out_csv = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
        _, prov, (features, labels) = self.reference_stage(config_from_dict(raw))
        write_csv(data_mod.Dataset(features, labels, prov), tmp_path / "ref.csv")
        assert out_csv.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert json.loads(out_csv.with_suffix(".provenance.json").read_text()) == \
            json.loads(json.dumps(prov))

    def test_data_stage_holds_one_feature_matrix(self):
        # 6000 rows of d=200: one feature matrix is 9.6 MB. Generation,
        # standardization and the split share it, and the partitions view
        # it, so the stage's traced peak stays near one matrix.
        cfg = config_from_dict(small_raw(data={"d": 200, "n_per_class": 3000},
                                         eval={"owner_n": 1500, "shadow_n": 3000,
                                               "eval_out_n": 1500}))
        tracemalloc.start()
        try:
            bundle, _ = runner.build_split(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bundle.shadow_pool.features.base is bundle.owner_train.features.base
        assert peak <= 1.25 * 6000 * 200 * 8

    def test_split_frees_the_rows_no_partition_uses(self):
        # 6000 rows of d=200, of which the partitions use 4000: from the
        # split on, the stage holds those rows' 6.4 MB and not the 9.6 MB
        cfg = config_from_dict(small_raw(data={"d": 200, "n_per_class": 3000},
                                         eval={"owner_n": 1000, "shadow_n": 2000,
                                               "eval_out_n": 1000}))
        tracemalloc.start()
        try:
            bundle, _ = runner.build_split(cfg)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        base = bundle.owner_train.features.base
        assert base is bundle.shadow_pool.features.base is bundle.eval_out.features.base
        assert base.shape == (4000, 200)
        assert abs(current - base.nbytes) <= 0.05 * base.nbytes

    def test_audit_of_a_file_with_a_quoted_line_break(self, tmp_path):
        # the line breaks leave the parse fewer rows than the file has
        # lines, and the matrix it hands the split must still own its data
        cells = np.random.default_rng(8).normal(size=(120, 2)).tolist()
        rows = [f'"{a!r}\n",{b!r},{i % 2}' for i, (a, b) in enumerate(cells)]
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b,y\n" + "\n".join(rows) + "\n")
        cfg = config_from_dict(small_raw(
            data={"kind": "file", "path": str(csv_path), "label_column": "y",
                  "label_rule": "binary"},
            eval={"owner_n": 40, "shadow_n": 40, "eval_out_n": 30, "eval_points": 20},
            out_dir=str(tmp_path / "out")))
        report = runner.run_experiment(cfg)
        assert len(report.game.point_ids) == 20 and "cfd" in report.attacks
        assert (tmp_path / "out" / "report.json").exists()


class TestRunExperiment:
    def test_report_artifacts(self, small_report):
        rep, out = small_report
        assert (out / "report.json").exists()
        assert (out / "roc_cfd_standard.csv").exists()
        assert (out / "roc_cfd_reversed.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["schema_version"] == 2
        assert "scores" not in doc and "timing" not in doc
        trace = json.loads((out / "trace.json").read_text())
        assert set(trace) == {"prepare_s", "game_s", "attacks_s", "ru_maxrss_kb", "tasks",
                              "workers", "game_search"}
        scored = doc["game"]["scored_points"]
        assert set(scored) == set(rep.attacks) == {"cfd"}
        for name, counts in scored.items():
            lines = (out / f"scores_{name}.jsonl").read_text().splitlines()
            assert len(lines) == counts["n_scored"] == rep.attacks[name].scores.rows.size
            assert [json.loads(line)["point_id"] for line in lines] == [
                rep.game.point_ids[r] for r in rep.attacks[name].scores.rows]
        assert set(doc["attacks"]["cfd"]["directions"]) == {"standard", "reversed"}
        assert doc["attacks"]["cfd"]["best_direction"] in ("standard", "reversed")

    def test_scores_carry_membership_ground_truth(self, small_report):
        rep, out = small_report
        lines = (out / "scores_cfd.jsonl").read_text().splitlines()
        assert len(lines) == rep.game_meta["n_member"] + rep.game_meta["n_non_member"]
        rec = json.loads(lines[0])
        assert set(rec) >= {"point_id", "attack", "statistic", "score",
                            "direction", "guess_at", "membership"}
        assert rec["membership"] in ("MEMBER", "NON-MEMBER")

    def test_best_direction_has_max_auc(self, small_report):
        rep, _ = small_report
        for result in rep.attacks.values():
            dirs = result.metrics
            assert dirs[result.best_direction].auc == max(d.auc for d in dirs.values())

    def test_partitions_disjoint(self, small_report):
        rep, out = small_report
        cfg = config_from_dict(small_raw(out_dir=None))
        bundle, _ = runner.build_split(cfg)
        owner = set(bundle.owner_train.provenance["rows"])
        shadow = set(bundle.shadow_pool.provenance["rows"])
        assert not owner & shadow

    @pytest.mark.parametrize("scorer,params", [
        ("cfd_attack_scores", ["costs"]),
        ("cfd_lrt_attack_scores", ["costs", "shadow_dists", "alphas"]),
        ("loss_attack_scores", ["probs", "labels"]),
        ("loss_lrt_attack_scores", ["probs", "labels", "shadow_probs", "alphas"]),
    ])
    def test_each_scorer_takes_only_the_transcript(self, scorer, params):
        # threat-model enforcement is structural: a scorer takes the
        # transcript's arrays, never a game, a model, `member` or `point_ids`
        assert list(inspect.signature(getattr(attack, scorer)).parameters) == params


class TestReproducibility:
    def test_byte_identical_reports_and_batch_invariance(self, tmp_path, monkeypatch):
        attacks = {"which": ["cfd", "cfd_lrt", "loss", "loss_lrt"]}
        outs = []
        for i, cpus in enumerate([1, 2, 1]):  # shadow work on 1 and on 2 workers
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"r{i}"
            runner.run_experiment(config_from_dict(small_raw(out_dir=str(out),
                                                             attacks=attacks)))
            doc = json.loads((out / "report.json").read_text())
            doc["config"].pop("out_dir")
            scores = b"".join((out / f"scores_{a}.jsonl").read_bytes()
                              for a in attacks["which"])
            outs.append((json.dumps(doc, sort_keys=True), scores))
        assert outs[0] == outs[1] == outs[2]
        cfg = config_from_dict(small_raw(attacks=attacks))
        assert batch_split_agreement(cfg, [1, 8]) == (True, True)


class TestStreamedAudit:
    """One TaskPool per audit: each shadow model trains, scores and replays
    in its own task, and the audit process takes the columns in model
    order, whichever task finishes first."""

    @staticmethod
    def lrt_raw(**overrides):
        return small_raw(attacks={"which": ["cfd", "cfd_lrt", "loss", "loss_lrt"],
                                  "n_shadow_models": 6}, **overrides)

    @staticmethod
    def outputs(out: Path) -> dict[str, bytes]:
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                 if p.name != "trace.json"}
        doc = json.loads(files.pop("report.json"))
        doc["config"].pop("out_dir")
        return dict(files, report=json.dumps(doc, sort_keys=True).encode())

    def test_outputs_do_not_depend_on_the_completion_order(self, tmp_path, monkeypatch):
        # on 2 workers shadow 0's training waits until shadows 1-5 have
        # finished theirs, so it finishes last while the audit takes the
        # columns in model order; every report, score and ROC byte must
        # equal a run on one CPU
        shadow_seed = derive_seed(5, "shadow-ensemble")
        slow, *others = [str(derive_seed(shadow_seed, "shadow-train", i)) for i in range(6)]
        log = tmp_path / "trained.log"  # a line per finished training: seed, how it waited
        audit_pid = os.getpid()
        real = nn.train_classifier

        def logged(data, arch, cfg):
            waited = "no_wait"
            if str(cfg.seed) == slow and os.getpid() != audit_pid:
                waited, deadline = "others_finished", time.monotonic() + 60
                while not set(others) <= set(log.read_text().split()):
                    if time.monotonic() > deadline:
                        waited = "deadline"
                        break
                    time.sleep(0.01)
            model = real(data, arch, cfg)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{cfg.seed} {waited}\n")
            return model

        taken = []
        real_take = TaskPool.take

        def take(pool, tag):
            taken.append(tag)
            return real_take(pool, tag)

        monkeypatch.setattr(TaskPool, "take", take)
        monkeypatch.setattr(nn, "train_classifier", logged)  # before the workers fork
        runs = []
        for cpus in (2, 1):
            use_cpus(monkeypatch, cpus)
            del taken[:]
            log.write_text("")
            out = tmp_path / f"cpus{cpus}"
            runner.run_experiment(config_from_dict(self.lrt_raw(out_dir=str(out))))
            trained = [line.split() for line in log.read_text().splitlines()]
            runs.append((self.outputs(out), [t for t in taken if t.startswith("shadow_")],
                         [entry for entry in trained if entry[0] in (slow, *others)]))
        (two, order_two, trained_two), (one, order_one, trained_one) = runs
        assert trained_two[-1] == [slow, "others_finished"]
        assert sorted(seed for seed, _ in trained_two) == sorted([slow, *others])
        assert trained_one == [[seed, "no_wait"] for seed in (slow, *others)]
        assert order_two == order_one == [f"shadow_{i}" for i in range(6)]
        assert set(two) == set(one) and len(two) == 13
        for name in one:
            assert two[name] == one[name], name

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_audit_holds_no_shadow_model(self, monkeypatch, cpus):
        # live Models when the game returns and when each LRT scorer is
        # entered: the owner alone, never a shadow model
        use_cpus(monkeypatch, cpus)
        gc.collect()
        before = sum(isinstance(o, nn.Model) for o in gc.get_objects())
        live = {}

        def count(name):
            gc.collect()
            live[name] = sum(isinstance(o, nn.Model) for o in gc.get_objects()) - before

        real_game = runner._sample_game
        monkeypatch.setattr(runner, "_sample_game",
                            lambda *a: (lambda out: count("game") or out)(real_game(*a)))
        for name in ("cfd_lrt_attack_scores", "loss_lrt_attack_scores"):
            monkeypatch.setattr(attack, name, lambda *a, _real=getattr(attack, name),
                                _name=name, **k: count(_name) or _real(*a, **k))
        runner.run_experiment(config_from_dict(self.lrt_raw()))
        assert set(live) == {"game", "cfd_lrt_attack_scores", "loss_lrt_attack_scores"}
        assert all(n == 1 for n in live.values()), live

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("setup", [
        {"algorithm": "scfe", "scfe": {"max_iters": 120}},
        {"algorithm": "growing_spheres", "search": {"samples_per_radius": 50, "max_radius": 2.0}},
    ], ids=lambda rc: rc["algorithm"])
    def test_trace_counts_tasks_memory_and_shadow_skips(self, tmp_path, monkeypatch, setup,
                                                        cpus):
        use_cpus(monkeypatch, cpus)
        batches = []  # the audit process's recourse batches, the game's first
        real = recourse.RecourseConfig.generate_batch
        monkeypatch.setattr(recourse.RecourseConfig, "generate_batch",
                            lambda *a, **k: batches.append(real(*a, **k)) or batches[-1])
        cfg = config_from_dict(self.lrt_raw(out_dir=str(tmp_path), recourse=setup))
        rep = runner.run_experiment(cfg)
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert set(trace["tasks"]) == {"owner", *(f"shadow_{i}" for i in range(6))}
        assert trace["workers"] == min(len(trace["tasks"]), cpus)
        # the counters of the game's whole batch, failed rounds included
        assert trace["game_search"] == batches[0].trace and len(batches[0]) == 30
        for times in trace["tasks"].values():
            assert set(times) == {"start_s", "wall_s", "cpu_s"} and times["wall_s"] >= 0
        # the shadow models train once the game, and so the owner, is done
        owner = trace["tasks"]["owner"]
        assert all(trace["tasks"][f"shadow_{i}"]["start_s"] >= owner["start_s"] + owner["wall_s"]
                   for i in range(6))
        stages = ["data", "owner", "game", "shadows", "end"]
        maxrss = [trace["ru_maxrss_kb"].pop(name) for name in stages]
        assert not trace["ru_maxrss_kb"] and maxrss == sorted(maxrss) and maxrss[0] > 0
        # the skip counts of the same shadow models and game points streamed
        # outside the audit
        game = runner.run_experiment(cfg, stop="game").game
        shadow_seed = derive_seed(cfg.seed, "shadow-ensemble")
        models = train_shadows(runner.build_split(cfg)[0].shadow_pool,
                               cfg.snapshot["attacks"]["n_shadow_models"],
                               cfg.snapshot["model"]["architecture"], cfg.train, shadow_seed)
        probs, dists = shadow_matrices(models, game.points, range(len(game.points)),
                                       replay=(cfg.recourse, shadow_seed, None))
        positive, failed = skip_counts(probs, dists)
        assert trace["shadow_skips"] == {"positive": int(positive.sum()),
                                         "failed": int(failed.sum())}
        starved = int(((~np.isnan(dists)).sum(axis=1) < 2).sum())
        assert trace["cfd_lrt_starved"] == starved
        assert rep.game_meta["scored_points"]["cfd_lrt"]["n_skipped"] == starved
        assert positive.sum() > 0
        assert (failed.sum() > 0) == (setup["algorithm"] == "growing_spheres")

    def test_a_shadow_task_that_raises_mid_audit_leaves_no_worker(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        real = attack.train_shadow

        def diverging(shadow_pool, index, *args):
            if index == 2:
                raise nn.TrainingDivergedError(3)
            return real(shadow_pool, index, *args)

        monkeypatch.setattr(attack, "train_shadow", diverging)  # before the workers fork
        with pytest.raises(nn.TrainingDivergedError) as err:
            runner.run_experiment(config_from_dict(self.lrt_raw()))
        assert err.value.epoch == 3
        assert type(err.value.__cause__).__name__ == "_RemoteTraceback"  # raised in a worker
        assert not has_children()

    def test_game_setup_error_mid_audit_leaves_no_worker(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        raw = self.lrt_raw(eval={"eval_points": 400})  # fewer negatives on each side
        with pytest.raises(GameSetupError, match="negatively-classified"):
            runner.run_experiment(config_from_dict(raw))
        assert not has_children()


class TestSweepAndSummary:
    def test_sweep_emits_reports_and_summary(self, tmp_path):
        raw = small_raw()
        raw["sweep"] = {"d": [4, 6]}
        reports = runner.run_sweep(dict(raw, out_dir=str(tmp_path)))
        assert len(reports) == 2
        assert (tmp_path / "d4" / "report.json").exists()
        assert (tmp_path / "d6" / "report.json").exists()
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "experiment_id,attack,direction,auc,ba,tpr_at_0.1,tpr_at_0.01"
        # one row per (experiment, attack, direction)
        assert len(summary) == 1 + 2 * 1 * 2

    def test_summary_values_match_reports(self, tmp_path):
        raw = small_raw()
        raw["sweep"] = {"seed": [5, 6]}
        reports = runner.run_sweep(dict(raw, out_dir=str(tmp_path)))
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        by_key = {}
        for row in rows:
            parts = row.split(",")
            by_key[(parts[0], parts[1], parts[2])] = [float(v) for v in parts[3:]]
        for rep in reports:
            for name, result in rep.attacks.items():
                for direction, m in result.metrics.items():
                    vals = by_key[(rep.config["experiment_id"], name, direction)]
                    assert vals == [m.auc, m.balanced_accuracy,
                                    m.tpr_at_fpr[0.1], m.tpr_at_fpr[0.01]]
        # `summarize` over the sweep's report.json files rebuilds its CSV
        paths = [str(tmp_path / run / "report.json") for run in ("seed5", "seed6")]
        assert cli.main(["summarize", *paths, "--out", str(tmp_path / "again.csv")]) == 0
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "summary.csv").read_bytes()

    def test_a_sweep_run_equals_run_on_its_own_config(self, tmp_path, monkeypatch, capsys):
        # both sides write to the same relative out_dir, so the config echoes match
        (tmp_path / "sweep").mkdir()
        monkeypatch.chdir(tmp_path / "sweep")
        runner.run_sweep(small_raw(out_dir="o", sweep={"d": [4], "seed": [1, 2]}))
        for run_id, seed in (("d4_seed1", 1), ("d4_seed2", 2)):
            raw = small_raw(data={"d": 4}, seed=seed, experiment_id=f"t_{run_id}")
            (tmp_path / "cfg.json").write_text(json.dumps(raw))
            (tmp_path / run_id).mkdir()
            monkeypatch.chdir(tmp_path / run_id)
            assert cli.main(["run", "--config", "../cfg.json", "--out", f"o/{run_id}"]) == 0
            swept, alone = tmp_path / "sweep" / "o" / run_id, tmp_path / run_id / "o" / run_id
            names = sorted(p.name for p in alone.iterdir() if p.name != "trace.json")
            assert sorted(p.name for p in swept.iterdir() if p.name != "trace.json") == names
            assert "report.json" in names and any(n.startswith("roc_") for n in names)
            for name in names:
                assert (swept / name).read_bytes() == (alone / name).read_bytes(), name

    def test_unknown_sweep_key(self):
        with pytest.raises(ConfigError, match="sweep"):
            runner.run_sweep({"sweep": {"nope": [1]}})

    def test_summary_quotes_an_id_with_a_comma_quote_or_line_break(self, tmp_path, capsys):
        experiment_id = 'a,b "c"\nd'
        (tmp_path / "cfg.json").write_text(json.dumps(small_raw(experiment_id=experiment_id)))
        assert cli.main(["run", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path / "out")]) == 0
        assert cli.main(["summarize", str(tmp_path / "out" / "report.json"),
                         "--out", str(tmp_path / "summary.csv")]) == 0
        with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["experiment_id", "attack", "direction", "auc", "ba",
                          "tpr_at_0.1", "tpr_at_0.01"]
        assert [row[:3] for row in rows] == [[experiment_id, "cfd", "standard"],
                                             [experiment_id, "cfd", "reversed"]]
        assert all(len(row) == len(header) for row in rows)

    def test_write_summary_requires_reports(self, tmp_path):
        with pytest.raises(ValueError):
            runner.write_summary([], tmp_path / "s.csv")


class TestCli:
    def test_dp_bound_stdout(self, capsys):
        assert cli.main(["dp-bound", "--epsilons", "0,0.6931471805599453"]) == 0
        assert capsys.readouterr().out == ("epsilon,ba_bound,refined_ba_bound\n"
                                           "0.0,0.5,0.5\n"
                                           "0.6931471805599453,0.75,0.6875\n")

    @pytest.mark.parametrize("epsilons", ["nan", "-1", "0.5,nan"])
    def test_dp_bound_bad_epsilon_exits_1(self, capsys, epsilons):
        assert cli.main(["dp-bound", "--epsilons", epsilons]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "config error: bad --epsilons list: epsilon must be nonnegative" in err

    def test_run_and_summarize(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw()))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert (out / "report.json").exists()

        rc = cli.main(["summarize", str(out / "report.json"),
                       "--out", str(tmp_path / "summary.csv")])
        assert rc == 0
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("experiment_id,attack,direction")

    @pytest.mark.parametrize("content", [None, "{", '{"a": 1}',
                                         '{"experiment_id": "x", "attacks": {"cfd": '
                                         '{"directions": {"standard": {}}}}}'],
                             ids=["missing", "not_json", "not_a_report", "one_direction"])
    def test_summarize_names_a_bad_report_and_leaves_out_untouched(self, tmp_path, capsys,
                                                                   content):
        # a good report first: every report is checked before --out is opened
        m = {"auc": 0.5, "balanced_accuracy": 0.5, "tpr_at_fpr": {"0.1": 0.1, "0.01": 0.0}}
        good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "s.csv"
        good.write_text(json.dumps({"experiment_id": "g", "attacks": {
            "cfd": {"directions": {"standard": m, "reversed": m}}}}))
        if content is not None:
            bad.write_text(content)
        out.write_text("kept\n")
        assert cli.main(["summarize", str(good), str(bad), "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("config error: ") and str(bad) in err
        assert out.read_text() == "kept\n"
        assert cli.main(["summarize", str(good), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "g,cfd,standard,0.5,0.5,0.1,0.0"

    @pytest.mark.parametrize("command,config,out,read", [
        ("summarize", None, "report.json", "report.json"),
        ("summarize", None, "alias.json", "report.json"),  # a hard link to the report
        ("gen-data", "cfg.json", "in.csv", "in.csv"),
        ("gen-data", "cfg.json", "cfg.json", "cfg.json"),
        ("gen-data", "d.provenance.json", "d.csv", "d.provenance.json"),
        ("recourse", "cfg.json", "cfg.json", "cfg.json"),
        ("recourse", "cfg.json", "in.csv", "in.csv")])
    def test_an_out_file_that_is_the_commands_input_exits_1_before_any_data(
            self, tmp_path, monkeypatch, capsys, command, config, out, read):
        # the output would replace the report, the config or the data file
        # that the command reads
        built = []
        for name in ("build_dataset", "build_split", "read_report"):
            monkeypatch.setattr(runner, name, lambda *a, _name=name, _real=getattr(runner, name):
                                built.append(_name) or _real(*a))
        rows = np.random.default_rng(3).normal(size=(200, 2)).tolist()
        (tmp_path / "in.csv").write_text("a,b,y\n" + "".join(
            f"{a!r},{b!r},{i % 2}\n" for i, (a, b) in enumerate(rows)))
        write_report(tmp_path / "report.json")
        os.link(tmp_path / "report.json", tmp_path / "alias.json")
        if config is None:
            args = [str(tmp_path / "report.json")]
        else:
            (tmp_path / config).write_text(json.dumps(small_raw(
                data={"kind": "file", "path": str(tmp_path / "in.csv"), "label_column": "y",
                      "label_rule": "binary"},
                eval={"owner_n": 50, "shadow_n": 60, "eval_out_n": 50, "eval_points": 10})))
            args = ["--config", str(tmp_path / config)]
        before = (tmp_path / read).read_bytes()
        assert cli.main([command, *args, "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.endswith(f"is the input {tmp_path / read}\n")
        assert not built and (tmp_path / read).read_bytes() == before

    def test_summarize_exits_1_on_a_report_named_twice(self, tmp_path, capsys):
        # each of its summary rows would be written twice
        report, out = tmp_path / "report.json", tmp_path / "s.csv"
        write_report(report)
        os.link(report, tmp_path / "alias.json")
        for twice in (report, tmp_path / "alias.json"):
            assert cli.main(["summarize", str(report), str(twice), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (f"config error: report {twice} is named "
                                               f"twice: it is {report}\n")
            assert not out.exists()

    def test_run_prints_each_attacks_best_direction_then_the_report_path(self, tmp_path,
                                                                        capsys):
        raw = small_raw(attacks={"which": ["loss", "cfd"]})  # not in alphabetical order
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        expected = []
        for name in ("loss", "cfd"):
            best = doc["attacks"][name]["best_direction"]
            m = doc["attacks"][name]["directions"][best]
            expected.append(f"{name} [{best}]: auc={m['auc']:.4f} "
                            f"ba={m['balanced_accuracy']:.4f} "
                            f"tpr@0.1={m['tpr_at_fpr']['0.1']:.4f} "
                            f"tpr@0.01={m['tpr_at_fpr']['0.01']:.4f}")
        expected.append(f"report written to {out / 'report.json'}")
        assert capsys.readouterr().out.splitlines() == expected

    def test_an_attack_that_scores_no_round_is_a_runtime_error(self, tmp_path, monkeypatch,
                                                               capsys):
        empty = attack.AttackScores("loss", np.empty(0, dtype=np.intp), np.empty(0),
                                    np.empty(0), higher_means_member=True)
        monkeypatch.setattr(attack, "loss_attack_scores", lambda *a, **k: empty)
        raw = small_raw(attacks={"which": ["cfd", "loss"]})
        with pytest.raises(GameSetupError, match="attack 'loss' produced no scores"):
            runner.run_experiment(config_from_dict(raw))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "attack 'loss' produced no scores" in capsys.readouterr().err

    @pytest.mark.parametrize("out_dir", ["absent", None, ""])
    def test_run_writes_run_out_without_an_out_dir(self, tmp_path, monkeypatch, capsys, out_dir):
        raw = small_raw() if out_dir == "absent" else small_raw(out_dir=out_dir)
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", "cfg.json"]) == 0
        report = json.loads((tmp_path / "run_out" / "report.json").read_text())
        assert report["config"]["out_dir"] == "run_out"

    @pytest.mark.parametrize("flag, configured, written", [
        ("flag_out", "from_config", "flag_out"),
        (None, "from_config", "from_config"),
        (None, None, "sweep_out"),
        (None, "", "sweep_out"),
    ])
    def test_sweep_writes_to_out_then_the_configs_out_dir_then_sweep_out(
            self, tmp_path, monkeypatch, capsys, flag, configured, written):
        raw = small_raw(out_dir=configured, sweep={"seed": [1]})
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sweep", "--config", "cfg.json", *(["--out", flag] if flag else [])]) == 0
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == [written]
        report = json.loads((tmp_path / written / "seed1" / "report.json").read_text())
        assert report["config"]["out_dir"] == str(Path(written) / "seed1")
        assert capsys.readouterr().out == f"1 runs -> {Path(written) / 'summary.csv'}\n"

    @pytest.mark.parametrize("content", [None, "{"], ids=["missing", "not_json"])
    def test_a_config_file_that_cannot_be_read_exits_1_before_training(
            self, tmp_path, monkeypatch, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_text(content)
        trained = []
        for name in ("train_classifier", "train_vae"):
            monkeypatch.setattr(nn, name, lambda *a, _name=name: trained.append(_name))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ") and str(cfg_path) in err
        assert trained == [] and not (tmp_path / "o").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"bogus": True}))
        rc = cli.main(["run", "--config", str(cfg_path)])
        assert rc == 1

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        raw = small_raw()
        raw["eval"]["eval_points"] = 400  # too few negatives for the game
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_gen_data_splits_nothing_so_only_the_other_commands_check_partitions(
            self, tmp_path, monkeypatch, capsys):
        trained = []
        monkeypatch.setattr(nn, "train_classifier", lambda *a, **k: trained.append(a))
        cfg_path = tmp_path / "cfg.json"
        # the default eval sizes sum to 4000 rows, and the data has 200
        cfg_path.write_text(json.dumps({"data": {"d": 4, "n_per_class": 100}}))
        out_csv = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
        assert load_tabular(out_csv, "label", "binary").n == 200
        for command in ("run", "train", "recourse", "sweep"):
            assert cli.main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / command)]) == 1
            assert "exceeds the 200 rows" in capsys.readouterr().err
        assert not trained

    def test_gen_data_exits_1_on_a_feature_named_label(self, tmp_path, capsys):
        # gen-data names the label column "label"; a feature of that name
        # would make a CSV that names it twice and cannot be read back
        csv_path = tmp_path / "in.csv"
        csv_path.write_text("label,b,y\n" + "".join(f"{i},{i * i % 7},{i % 2}\n"
                                                    for i in range(20)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "data": {"kind": "file", "path": str(csv_path), "label_column": "y",
                     "label_rule": "binary"},
            "eval": {"owner_n": 5, "shadow_n": 5, "eval_out_n": 5, "eval_points": 10}}))
        out_csv = tmp_path / "out" / "data.csv"
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out_csv)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"config error: data.path {str(csv_path)!r}: ")
        assert "feature column 'label'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["run", "--config", "c.json", "--seed", "x"],
                                      ["run"], ["run", "--bogus"], ["nosuch"], []])
    def test_a_bad_command_line_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and "usage: recourse-mi" in err and "error: " in err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 0
        assert "usage: recourse-mi" in capsys.readouterr().out

    def test_gen_data_keeps_a_files_feature_names(self, tmp_path, capsys):
        # standardized data keeps the file's names under its provenance's parent
        csv_path = tmp_path / "in.csv"
        csv_path.write_text("age,income,y\n" + "".join(f"{i},{i * i % 7},{i % 2}\n"
                                                       for i in range(20)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "data": {"kind": "file", "path": str(csv_path), "label_column": "y",
                     "label_rule": "binary"},
            "eval": {"owner_n": 5, "shadow_n": 5, "eval_out_n": 5, "eval_points": 10}}))
        out_csv = tmp_path / "out.csv"
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
        assert out_csv.read_text().splitlines()[0] == "age,income,label"

    def test_an_out_file_in_a_missing_directory_is_written_there(self, tmp_path, capsys):
        # as run creates its out_dir, a file command creates its file's parents
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw()))
        m = {"auc": 0.5, "balanced_accuracy": 0.5, "tpr_at_fpr": {"0.1": 0.1, "0.01": 0.0}}
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"experiment_id": "g", "attacks": {
            "cfd": {"directions": {"standard": m, "reversed": m}}}}))
        new = tmp_path / "new" / "dir"
        for command, args, name in (("gen-data", ["--config", str(cfg_path)], "d.csv"),
                                    ("recourse", ["--config", str(cfg_path)], "g.jsonl"),
                                    ("summarize", [str(report)], "s.csv")):
            assert cli.main([command, *args, "--out", str(new / name)]) == 0
        assert sorted(p.name for p in new.iterdir()) == ["d.csv", "d.provenance.json",
                                                         "g.jsonl", "s.csv"]

    def test_gen_data_round_trip(self, tmp_path, capsys):
        raw = small_raw()
        raw["data"]["standardize"] = False
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out_csv = tmp_path / "data.csv"
        rc = cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out_csv)])
        assert rc == 0
        from recourse_mi.data import load_tabular
        ds = load_tabular(out_csv, "label", "binary")
        assert ds.n == 800 and ds.d == 6

    def test_train_saves_model(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw()))
        out = tmp_path / "model"
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        from recourse_mi.nn import load_model
        m = load_model(out)
        assert m.d == 6
        assert (out / "accuracy.json").exists()

    def test_pretty_json_files_end_in_one_line_break_and_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw()))
        for command, out in (("gen-data", "d.csv"), ("train", "model"), ("run", "run")):
            assert cli.main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / out)]) == 0
        for path in (tmp_path / "d.provenance.json", tmp_path / "model" / "accuracy.json",
                     tmp_path / "run" / "report.json", tmp_path / "run" / "trace.json"):
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path

    def test_recourse_writes_transcripts(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw()))
        out = tmp_path / "g.jsonl"
        rc = cli.main(["recourse", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        # the audit stops at the game, so its out_dir, here the transcript's
        # file path, gets no report, trace or score file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "g.jsonl"]
        lines = out.read_text().splitlines()
        assert len(lines) == 30
        rec = json.loads(lines[0])
        assert set(rec) == {"point_id", "membership", "label", "point", "recourse"}

    @pytest.mark.parametrize("recourse", [
        {"algorithm": "scfe", "scfe": {"max_iters": 120}},
        {"algorithm": "growing_spheres", "search": {"samples_per_radius": 50}},
    ], ids=lambda rc: rc["algorithm"])
    def test_recourse_plays_the_game_that_run_scores(self, tmp_path, capsys, recourse):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw(recourse=recourse)))
        game = tmp_path / "g.jsonl"
        assert cli.main(["recourse", "--config", str(cfg_path), "--out", str(game)]) == 0
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        rows = [json.loads(line) for line in game.read_text().splitlines()]
        scores = [json.loads(line)
                  for line in (tmp_path / "o" / "scores_cfd.jsonl").read_text().splitlines()]
        assert [r["point_id"] for r in rows] == [sc["point_id"] for sc in scores]
        want = ({"iterations": int, "retries_used": int, "lambda_final": float}
                if recourse["algorithm"] == "scfe" else
                {"radius": float, "radii_tried": int, "samples_per_radius": int,
                 "search_point": list})
        for row, sc in zip(rows, scores):
            rec = row["recourse"]
            assert max(rec["cost"], DISTANCE_FLOOR) == sc["statistic"]
            assert row["membership"] == sc["membership"]
            assert rec["valid"] is True and rec["algorithm"] == recourse["algorithm"]
            assert type(rec["seed"]) is int and type(row["label"]) is int
            assert {k: type(v) for k, v in rec["trace"].items()} == want
            assert all(type(v) is float for v in rec["trace"].get("search_point", []))

    def test_seed_override_changes_result(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_raw()))
        o1, o2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(o1),
                         "--seed", "101"]) == 0
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(o2),
                         "--seed", "102"]) == 0
        d1 = json.loads((o1 / "report.json").read_text())
        d2 = json.loads((o2 / "report.json").read_text())
        assert d1["master_seed"] == 101 and d2["master_seed"] == 102
        assert (o1 / "scores_cfd.jsonl").read_bytes() != (o2 / "scores_cfd.jsonl").read_bytes()

    def test_docstring_lists_every_subcommand(self):
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        listed = re.search(r"Subcommands:([^.]*)\.", cli.__doc__).group(1)
        assert sorted(c.strip() for c in listed.split(",")) == sorted(sub.choices)


def test_report_version_is_the_package_version(tmp_path):
    import recourse_mi
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.+)"$', pyproject, re.M).group(1) == recourse_mi.__version__
    rep = runner.run_experiment(config_from_dict(small_raw(out_dir=str(tmp_path))))
    assert json.loads((tmp_path / "report.json").read_text())["version"] == recourse_mi.__version__
    assert not hasattr(rep, "version")

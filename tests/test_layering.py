"""The package's import layering, read from its sources with ast: the leaf
modules import no other package module, and data, nn, recourse and attack
import only the modules below them, so attack sits below the runner, the
CLI and the worker pool. An ast check also pins the package's Adam loops
to their two homes, and spies pin every row-blocked loop to the one
scratch budget, data.BLOCK_VALUES."""
import ast
from pathlib import Path

import numpy as np
import pytest

from recourse_mi import data, nn, recourse

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "recourse_mi"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}

ALLOWED = {
    "metrics": set(),
    "normal": set(),
    "privacy": set(),
    "pool": set(),
    "seeds": set(),
    "data": {"seeds"},
    "nn": {"data", "seeds"},
    "recourse": {"data", "nn", "seeds"},
    "attack": {"data", "nn", "normal", "recourse", "seeds"},  # the pool stays in the runner
}


def package_imports(module: str) -> set[str]:
    """The package modules `module` imports; a name that is no module
    (`from . import __version__`) counts as the package's __init__."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("recourse_mi")):
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found |= {a.name if a.name in MODULES else "__init__" for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("recourse_mi.")}
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_the_layers_below_it(module):
    assert package_imports(module) <= ALLOWED[module]


def test_the_reader_sees_the_package_imports():
    assert package_imports("runner") >= {"__init__", "attack", "metrics", "nn", "data"}
    assert package_imports("cli") == {"metrics", "nn", "privacy", "runner", "data"}


def test_attack_imports_neither_the_runner_nor_the_cli():
    assert not package_imports("attack") & {"runner", "cli"}


def adam_constructors() -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of every `Adam(...)` or
    `nn.Adam(...)` call in the package sources."""
    found = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "Adam":
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module in sorted(MODULES):
        visit(ast.parse((PACKAGE / f"{module}.py").read_text()), module, "<module>")
    return found


def test_adam_is_built_only_by_the_training_loop_and_scfe():
    # a third hand-rolled optimiser loop belongs in nn._fit instead
    assert adam_constructors() == {("nn", "_fit"), ("recourse", "_scfe_attempt")}


class RowSlices(np.ndarray):
    """A matrix that logs the row count of each plain slice read from it
    (log["get"]) or written to it (log["set"])."""

    log: dict = {}

    def _note(self, op, key):
        if isinstance(key, slice) and self.ndim == 2:
            start, stop, _ = key.indices(self.shape[0])
            RowSlices.log[op].append(stop - start)

    def __getitem__(self, key):
        self._note("get", key)
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self._note("set", key)
        super().__setitem__(key, value)


def blocks_of(n, width):
    """The row counts of n rows walked in blocks of data.block_rows(width)."""
    step = data.block_rows(width)
    return [min(step, n - a) for a in range(0, n, step)]


def test_every_blocked_loop_takes_its_rows_from_the_one_budget(monkeypatch, tmp_path):
    # at 40 values a block, each loop below walks 23 rows (21 for the split)
    # in several blocks; a loop with a budget of its own walks them in one
    monkeypatch.setattr(data, "BLOCK_VALUES", 40)
    monkeypatch.setattr(RowSlices, "log", {"get": [], "set": []})
    n, d = 23, 4
    x = np.random.default_rng(0).normal(size=(n, d))

    def spy(module, name):
        rows, real = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda m, block, *a, **kw: rows.append(len(block))
                            or real(m, block, *a, **kw))
        return rows

    forward = spy(nn, "_forward_batch")
    mlp = nn.Model([np.ones((d, 8)), np.ones((8, 1))], [np.zeros(8), np.zeros(1)], [8], d)
    nn.predict_proba_batch(mlp, x)
    assert forward == blocks_of(n, 8)

    attempts = spy(recourse, "_scfe_attempt")
    logistic = nn.Model([np.ones((d, 1))], [np.array([-100.0])], [], d)
    recourse.scfe(logistic, x, recourse.ScfeParams(max_iters=2, max_retries=0),
                  "l1", range(n))
    assert attempts == blocks_of(n, d)

    data.standardize_in_place(x.copy().view(RowSlices), {})
    assert RowSlices.log["get"] == blocks_of(n, d)

    labels = np.arange(n) % 2
    # a copy of the view owns its data, which split_in_place needs to free the unused rows
    data.split_in_place(x.view(RowSlices).copy(), labels.copy(), {}, 6, 7, 8, seed=0)
    assert RowSlices.log["set"] == blocks_of(21, d)

    RowSlices.log["get"].clear()
    ds = data.Dataset(x, labels)
    object.__setattr__(ds, "features", ds.features.view(RowSlices))
    data.write_csv(ds, tmp_path / "x.csv")
    assert RowSlices.log["get"] == blocks_of(n, d)

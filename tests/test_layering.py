"""The package's import layering, read from its sources with ast: the leaf
modules import no other package module, data, nn and recourse import only
the modules below them, and attack sits below the runner and the CLI. An
ast check also pins the package's Adam loops to their two homes."""
import ast
from pathlib import Path

import pytest

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
    "recourse": {"nn", "seeds"},
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

"""Module boundary of `wellopt.config`, read from the sources with `ast`.

The run configuration lives in `config.py`, which imports none of the
modules that run it (`harness`, `ga`, `cli`), so the run loop can change
without touching how a config is parsed and checked. `harness.py` only
re-exports `RunConfig` and reads no private attribute of it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wellopt"
CONFIG_NAMES = {"OPTIMIZERS", "PROBLEM_KEYS", "_check_keys", "_number",
                "_items", "_section", "_well_kwargs", "_benchmark_bounds",
                "RunConfig"}


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module defines: functions, classes and assigned globals."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names of every module an import statement may load, e.g.
    `harness` for `from .harness import x` and for `from . import harness`."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            modules.add(module)
            modules.update(f"{module}.{alias.name}".strip(".")
                           for alias in node.names)
    return modules


def test_config_imports_no_module_that_runs_it():
    parts = {part for module in imported_modules(parse("config.py"))
             for part in module.split(".")}
    assert not parts & {"harness", "ga", "cli"}


def test_config_names_are_defined_in_config_only():
    assert CONFIG_NAMES <= top_level_names(parse("config.py"))
    for name in ("harness.py", "cli.py"):
        assert not CONFIG_NAMES & top_level_names(parse(name)), name


def test_harness_reads_no_private_config_attribute():
    private = [node.attr for node in ast.walk(parse("harness.py"))
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id == "config" and node.attr.startswith("_")]
    assert private == []

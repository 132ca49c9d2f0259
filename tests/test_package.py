"""The package surface: one export list, built from the modules' own, and
no module importing a name it never uses."""

import argparse
import ast
from pathlib import Path

import sparsemix
from sparsemix import bfdr, errors, experiments, model, montecarlo, normal, procedures, risk, rules

MODULES = (errors, normal, model, risk, bfdr, procedures, rules, montecarlo, experiments)
SRC = Path(sparsemix.__file__).parent


def test_package_exports_every_module_export():
    expected = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert set(sparsemix.__all__) == expected
    assert len(sparsemix.__all__) == len(expected)
    for name in sparsemix.__all__:
        assert hasattr(sparsemix, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sparsemix, name) is getattr(module, name), name


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never references.  Names listed in its
    __all__ count as referenced; __future__ and star imports are skipped."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_modules_use_every_name_they_import():
    assert [bad for path in sorted(SRC.glob("*.py")) for bad in _unused_imports(path)] == []


# Fragments of the one message of each checked quantity.
_CHECK_MESSAGES = ("must lie in (0,1), got", "must be a finite positive real", "must be >= 1, got",
                   "must be an integer >= ")


def test_scalar_checks_live_only_in_errors():
    """A level, positive real, real >= 1 or integer count is checked by its
    helper in errors.py, never by a copy of it in another module."""
    copies = [
        f"{path.name}: {fragment}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "errors.py"
        for fragment in _CHECK_MESSAGES
        if fragment in path.read_text()
    ]
    assert copies == []


def test_finite_arrays_are_checked_only_in_errors():
    """An array's finiteness has one check, errors._finite_array."""
    copies = [path.name for path in sorted(SRC.glob("*.py"))
              if path.name != "errors.py" and "np.isfinite" in path.read_text()]
    assert copies == []


def test_csv_cells_are_formatted_only_in_cli():
    """The 17-digit cell format lives only in cli.py, so every CSV cell,
    one at a time or a row at once, has one formatter."""
    copies = [path.name for path in sorted(SRC.glob("*.py"))
              if path.name != "cli.py" and ".17g" in path.read_text()]
    assert copies == []


def test_only_montecarlo_knows_about_worker_threads():
    """SPARSEMIX_WORKERS is the one way a CLI run asks for threads: no
    subcommand has --workers, and only montecarlo starts threads or reads
    the variable."""
    from sparsemix import cli

    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    assert [name for name, par in subcommands.items() if "--workers" in par._option_string_actions] == []
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            imports = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom)
                else []
            )
            if "concurrent.futures" in imports or (
                isinstance(node, ast.Constant) and node.value == "SPARSEMIX_WORKERS"
            ):
                readers.append(path.name)
    assert sorted(set(readers)) == ["montecarlo.py"]

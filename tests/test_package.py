"""The package surface: one export list, built from the modules' own, and
no module importing a name it never uses."""

import argparse
import ast
import subprocess
import sys
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


def test_the_scalar_normal_tail_lives_only_in_normal():
    """A Python float's upper normal tail has one kernel,
    normal._phi_tail_float, never a copy of it in another module."""
    copies = [path.name for path in sorted(SRC.glob("*.py"))
              if path.name != "normal.py" and "float(special.erfc(" in path.read_text()]
    assert copies == []


def test_the_deep_tail_log_ratio_is_stated_once():
    """Both BFDR-side evaluators take log_ndtr's tail ratio from one line."""
    lines = [f"{path.name}: {line.strip()}" for path in sorted(SRC.glob("*.py"))
             for line in path.read_text().splitlines() if "log_ndtr" in line]
    assert len(lines) == 1, lines


def test_both_threshold_solvers_place_their_bracket_in_one_place():
    """_root_bracket has one caller, the solve both threshold equations share."""
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_root_bracket"]
    assert len(calls) == 1, calls


def test_csv_cells_are_formatted_only_in_cli():
    """The 17-digit cell format lives only in cli.py, so every CSV cell,
    one at a time or a row at once, has one formatter."""
    copies = [path.name for path in sorted(SRC.glob("*.py"))
              if path.name != "cli.py" and ".17g" in path.read_text()]
    assert copies == []


def test_only_montecarlo_knows_about_worker_threads():
    """Nothing starts threads or asks for a worker count: no module imports
    concurrent.futures or threading or holds the string SPARSEMIX_WORKERS
    (a docstring may still name it), and no subcommand has --workers."""
    from sparsemix import cli

    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    assert [name for name, par in subcommands.items() if "--workers" in par._option_string_actions] == []
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            imports = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
            found += [f"{path.name}: import {name}" for name in imports
                      if name.partition(".")[0] in ("concurrent", "threading")]
            if isinstance(node, ast.Constant) and node.value == "SPARSEMIX_WORKERS":
                found.append(f"{path.name}: SPARSEMIX_WORKERS")
    assert found == []


def test_the_cli_does_not_load_scipy_stats():
    """A cold import of the CLI loads scipy.special but not scipy.stats, which
    would add about 0.5 s to it: tails such as the binomial's come from
    scipy.special."""
    code = f"import sys; sys.path[:] = {sys.path!r}; import sparsemix.cli; print(sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert "'scipy.special'" in loaded
    assert "'scipy.stats'" not in loaded

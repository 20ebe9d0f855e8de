"""Import layering of ``src/repro``, checked on the source (AST).

Imports run one way, ``core ← baselines ← sparkrun ← experiments``, and
all live at module level, so a module's dependencies are visible at its
top.  The ablations are experiments on the core, not a part of it: no
core or baseline module may import them.  Every registered algorithm
takes the series and nothing else: the paper fixes its settings.  The
spectral and ACF helpers read N from their inputs, so none takes a length.
"""
import ast
import inspect
from pathlib import Path

import pytest

from repro.core.acf import acf_hill_valid, acf_med_period, huber_acf
from repro.core.huber_periodogram import huber_periodogram
from repro.sparkrun.detect import ALGOS

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "repro").rglob("*.py"))
FORBIDDEN = ("repro.core.ablations", "repro.sparkrun", "repro.experiments")


def _imported(path: Path) -> list[str]:
    """Absolute names of the modules ``path`` imports."""
    package = ".".join(path.relative_to(SRC).parent.parts)
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            out += [base] if node.module else \
                [f"{base}.{a.name}" for a in node.names]
    return out


def _name(path: Path) -> str:
    return str(path.relative_to(SRC))


@pytest.mark.parametrize("path", MODULES, ids=_name)
def test_no_function_level_imports(path):
    tree = ast.parse(path.read_text())
    nested = [f"{fn.name}:{node.lineno}"
              for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.parent.name in ("core", "baselines")],
    ids=_name)
def test_core_and_baselines_import_downward_only(path):
    bad = [n for n in _imported(path) if n.startswith(FORBIDDEN)]
    assert bad == []


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_algo_signature_is_y_only(algo):
    assert list(inspect.signature(ALGOS[algo]).parameters) == ["y"]


LENGTH_FREE = {
    huber_periodogram: ["x", "exact_band"],
    huber_acf: ["P_half"],
    acf_med_period: ["acf_vals", "k_star"],
    acf_hill_valid: ["acf_vals", "k"],
}


@pytest.mark.parametrize("fn", LENGTH_FREE, ids=lambda fn: fn.__name__)
def test_spectral_helpers_take_no_length(fn):
    assert list(inspect.signature(fn).parameters) == LENGTH_FREE[fn]

"""The package surface: the names the root exports, and the modules the package imports."""

import ast
import re
import sys
from pathlib import Path

import pacbayes

REPO = Path(__file__).resolve().parent.parent

EXPORTS = [
    "__version__",
    "DomainError",
    "ConfigError",
    "GaussianFamily",
    "standard_normal_params",
    "CustomRisk",
    "EvalStack",
    "QuadraticRisk",
    "TanhSyntheticRisk",
    "voronoi_weights",
    "importance_weights",
    "project",
    "CatoniConfig",
    "run_supac_ce",
    "evaluate_objective",
    "GDConfig",
    "run_gd",
    "MetaConfig",
    "TaskEnvironment",
    "sample_synthetic_task",
    "meta_objective",
    "run_meta_sgd",
    "evaluate_prior",
    "tasks_to_json",
    "tasks_from_json",
    "run_experiment",
    "aggregate",
]


def root_names(source):
    """Names taken from the package root: ``from pacbayes import X`` and ``pacbayes.X``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "pacbayes" and not node.level:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "pacbayes"
            and not node.attr.startswith("__")
        ):
            names.add(node.attr)
    return names


def test_root_exports_every_name_its_users_import():
    sources = {p.name: p.read_text() for p in sorted(REPO.glob("demos/*.py"))}
    sources.update({p.name: p.read_text() for p in sorted(REPO.glob("perfbench/*.py"))})
    readme = (REPO / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, flags=re.S)):
        sources[f"README block {i}"] = block
    assert "README block 0" in sources and "worker.py" in sources and "02_surrogate_solver.py" in sources
    used = {name: root_names(text) for name, text in sources.items()}
    for source, names in used.items():
        assert names <= set(pacbayes.__all__), (source, sorted(names - set(pacbayes.__all__)))
    assert {"run_experiment", "tasks_from_json", "project"} <= set().union(*used.values())


def test_root_exports_are_pinned_and_resolve():
    assert pacbayes.__all__ == EXPORTS
    for name in pacbayes.__all__:
        assert getattr(pacbayes, name) is not None, name


def test_the_package_imports_nothing_beyond_the_standard_library_numpy_and_scipy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    imported = {}
    for path in sorted((REPO / "src" / "pacbayes").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                imported.setdefault(module.partition(".")[0], []).append(path.name)
    assert {"numpy", "scipy", "json"} <= set(imported)
    assert not set(imported) - allowed, {m: imported[m] for m in set(imported) - allowed}

"""Deletion safety net: every ``repro`` import in the repository resolves.

Deleting a module or a name is only safe when nothing still imports it.
Lazy, function-local imports (the CLI's per-command handlers, the
benchmark's instrumentation) only fail when their code path runs, so a
plain test run can miss them.  These checks read the import statements
of every Python file instead, and separately drive the benchmark's own
entry points that read private runner state.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples", "tools", "perfbench")


def _python_files() -> list[Path]:
    return [
        path for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
    ]


def _repro_imports(path: Path):
    """``(lineno, module, name)`` for every ``repro`` import in ``path``;
    ``name`` is None for a plain ``import repro.x``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom):
            # the repository uses absolute imports only
            assert node.level == 0, f"{path}:{node.lineno}: relative import"
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.lineno, node.module, alias.name


def _unresolved(module: str, name: str | None) -> str | None:
    try:
        mod = importlib.import_module(module)
    except ImportError as exc:
        return f"import fails: {exc}"
    if name is None or name == "*" or hasattr(mod, name):
        return None
    if importlib.util.find_spec(f"{module}.{name}") is not None:
        return None
    return f"{module} has no attribute or submodule {name!r}"


def test_every_repro_import_resolves():
    problems = []
    checked = 0
    for path in _python_files():
        for lineno, module, name in _repro_imports(path):
            checked += 1
            problem = _unresolved(module, name)
            if problem:
                rel = path.relative_to(ROOT)
                problems.append(f"{rel}:{lineno}: {problem}")
    assert checked > 500, f"only {checked} imports found; scan is broken"
    assert not problems, "\n".join(problems)


def test_benchmark_entry_points_import():
    """The benchmark reads private runner state and wraps named layer
    entry points; both must survive any refactor of ``src/repro``."""
    script = (
        # worker.environment() records numpy's version; the package
        # itself needs no numpy, so stand one in where none is installed
        "import importlib.util, sys, types\n"
        "if importlib.util.find_spec('numpy') is None:\n"
        "    sys.modules['numpy'] = types.ModuleType('numpy')\n"
        "    sys.modules['numpy'].__version__ = 'none'\n"
        "import tracing, worker\n"
        "worker.environment()\n"
        "tracing.instrument(tracing.Tracer())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_package_runs_without_numpy():
    """The package imports no third-party module: importing its entry
    points and timing one SRV loop leaves numpy unloaded."""
    script = (
        "import sys\n"
        "import repro.cli, repro.experiments, repro.gen, repro.sample\n"
        "from repro.compiler import Strategy\n"
        "from repro.experiments.runner import run_loop\n"
        "from repro.workloads import ALL_WORKLOADS\n"
        "spec = ALL_WORKLOADS[0].loops[0]\n"
        "run = run_loop(spec, Strategy.SRV, n_override=16, use_cache=False)\n"
        "assert run.correct and run.pipe is not None, run\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "waiterbot").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_on_its_own(name):
    """Each module imports in a fresh interpreter, so no import order that a
    test run happens to take hides a cycle or a missing import."""
    result = subprocess.run([sys.executable, "-c", f"import waiterbot.{name}"], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")


def test_imports_sit_at_module_level_and_tasks_needs_no_llm():
    """No `src/` module imports inside a function, so the fresh-interpreter
    import above meets every cycle; and the language modules depend one way:
    `llm` builds on `tasks`, never the reverse."""
    nested, tasks_to_llm = [], []
    for path in sorted((SRC / "waiterbot").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in ast.walk(tree) if path.stem == "tasks" else ():
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
                tasks_to_llm += [f"tasks.py:{node.lineno}" for name in names if "llm" in name.split(".")]
    assert (sorted(set(nested)), tasks_to_llm) == ([], [])


def test_cli_imports_no_scipy_or_requests():
    """numpy is the one runtime dependency: the command line imports neither
    scipy (a test oracle only) nor requests."""
    probe = "import sys, waiterbot.cli; print(sorted({'scipy', 'requests'} & {m.split('.')[0] for m in sys.modules}))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

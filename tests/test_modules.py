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


def test_cli_imports_no_scipy_or_requests():
    """numpy is the one runtime dependency: the command line imports neither
    scipy (a test oracle only) nor requests."""
    probe = "import sys, waiterbot.cli; print(sorted({'scipy', 'requests'} & {m.split('.')[0] for m in sys.modules}))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

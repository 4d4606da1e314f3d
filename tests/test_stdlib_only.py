"""The runtime is stdlib-only: every library module imports in an
interpreter that sees no site-packages (``-S``), ignores the user's
environment and ``PYTHONPATH`` (``-I``) and writes no bytecode (``-B``).
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

WALK = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import quasiline
for m in pkgutil.walk_packages(quasiline.__path__, 'quasiline.'):
    importlib.import_module(m.name)
    print(m.name)
"""


def test_every_library_module_imports_without_site_packages():
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", WALK, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # the walk skips a subpackage that fails to import, so name every module
    files = (SRC / "quasiline").rglob("*.py")
    modules = {".".join(f.relative_to(SRC).with_suffix("").parts) for f in files}
    modules = {m.removesuffix(".__init__") for m in modules} - {"quasiline"}
    assert set(done.stdout.split()) == modules

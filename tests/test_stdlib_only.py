"""The runtime is stdlib-only: every library module imports in an
interpreter that sees no site-packages (``-S``), ignores the user's
environment and ``PYTHONPATH`` (``-I``) and writes no bytecode (``-B``).
And the wiring layer sits below the surface layer: no module of
``quasiline.wiring`` imports a rotation map or a surface map.
"""

import ast
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


def imported_modules(path: Path) -> set[str]:
    """Every module an import statement of the file names, relative
    imports resolved and ``from m import x`` counted as m and m.x."""
    package = ".".join(path.relative_to(SRC).parent.parts).split(".")
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_no_wiring_module_imports_the_surface_layer():
    # read, not imported: importing quasiline.wiring runs quasiline/__init__,
    # which loads quasiline.surface and quasiline.rotmaps anyway
    seen = set()
    for path in (SRC / "quasiline" / "wiring").glob("*.py"):
        seen |= imported_modules(path)
    assert {"quasiline.errors", "quasiline.sequences", "quasiline.wiring.diagram"} <= seen
    tops = {".".join(m.split(".")[:2]) for m in seen}
    assert not tops & {"quasiline.rotmaps", "quasiline.surface"}

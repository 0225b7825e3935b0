"""What importing the package loads."""
import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    # scipy would add ~20 MB to every process that imports the package
    code = "import sys, netsignal; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_every_exported_name_resolves_once():
    import netsignal

    assert len(set(netsignal.__all__)) == len(netsignal.__all__)
    assert [name for name in netsignal.__all__ if not hasattr(netsignal, name)] == []


# each module may import only the modules ranked before it
LAYERS = (
    "network",
    "simulation",
    "prediction",
    "coordination",
    "ordering",
    "messaging",
    "improvement",
    "controllers",
    "harness",
    "cli",
)


def _imported_modules(path):
    """The `netsignal` modules a source file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "netsignal":
            names.update(f"netsignal.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return {name.split(".")[1] for name in names if name.startswith("netsignal.")}


def test_no_module_imports_one_ranked_above_it():
    package = SRC / "netsignal"
    modules = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    assert sorted(LAYERS) == modules
    upward = {}
    for rank, module in enumerate(LAYERS):
        names = _imported_modules(package / f"{module}.py")
        above = sorted(name for name in names if LAYERS.index(name) >= rank)
        if above:
            upward[module] = above
    assert upward == {}

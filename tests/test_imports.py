"""What importing the package loads."""
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

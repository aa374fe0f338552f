"""Every name a module imports is used: a static scan of src/ and tests/.

The package's __init__.py is skipped, as its imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [path for path in (ROOT / "src").rglob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "tests").rglob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names the source imports (a bound alias, or the first component of a
    dotted import) and never references as a name; from __future__ and
    star imports bind nothing to check."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - {"*"})


def test_scan_flags_only_unreferenced_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\nfrom math import inf, pi\n"
        "np.zeros(1)\nprint(pi)\n"
    )
    assert unused_imports(source) == ["inf", "os"]


def test_no_unused_imports():
    unused = {}
    for path in FILES:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert not unused

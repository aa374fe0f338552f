"""Every private name README.md puts in backticks is defined in src/: a
static scan, so that a renamed or deleted helper cannot linger in the
documentation.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src").rglob("*.py"))


def backticked_private_names(markdown: str) -> list[str]:
    """Inline code spans outside fenced blocks that are one name, bare or
    dotted, with or without a call's "()", whose last part is private (a
    leading underscore and more, not a dunder), in first-seen order."""
    prose = re.sub(r"^```.*?^```", "", markdown, flags=re.S | re.M)
    found = []
    for span in re.findall(r"`([^`]+)`", prose):
        name = re.fullmatch(r"((?:\w+\.)*_(?!_)\w+)(?:\(\))?", span)
        if name and name[1] not in found:
            found.append(name[1])
    return found


def definitions(source: str) -> set[str]:
    """Functions and classes defined anywhere in the source, and the names
    its module level assigns."""
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {node.name for node in ast.walk(tree) if isinstance(node, kinds)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return names


def unresolved(markdown: str, modules: dict[str, set[str]]) -> list[str]:
    """The backticked private names that no module defines; a dotted one
    must be defined in the module its prefix names."""
    everywhere = set().union(*modules.values())
    missing = []
    for span in backticked_private_names(markdown):
        *prefix, name = span.split(".")
        if name not in (modules.get(prefix[-1], set()) if prefix else everywhere):
            missing.append(span)
    return missing


def test_scan_resolves_bare_and_dotted_private_names():
    markdown = (
        "Use `_kept()` and `mod._kept`, not `_gone` or `other._kept`.\n"
        "`__init__`, `_`, `public` and `a _kept b` are no private names; `_CONST` is.\n"
        "```\n`_fenced`\n```\n"
    )
    source = "_CONST = 1\nclass Box:\n    def _kept(self):\n        return _CONST\n"
    assert backticked_private_names(markdown) == [
        "_kept", "mod._kept", "_gone", "other._kept", "_CONST"
    ]
    assert unresolved(markdown, {"mod": definitions(source)}) == ["_gone", "other._kept"]


def test_every_private_name_in_the_readme_is_defined():
    modules = {path.stem: definitions(path.read_text(encoding="utf-8")) for path in PACKAGE}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(backticked_private_names(readme)) > 20
    assert unresolved(readme, modules) == []

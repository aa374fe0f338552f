"""Every name a module imports is used: a static scan of src/ and tests/.
Every private function or class the package defines has a caller in the
package, mpmath is imported by one function of it, no general
eigensolver is called, only gaussian.py knows the interleaved
(x1, p1, ..., xn, pn) layout, and it interleaves only to form a public
matrix, and no function builds a public map but the constructors that
return one: static scans of src/.

The package's __init__.py is skipped by the import scan, as its imports
are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [path for path in (ROOT / "src").rglob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "tests").rglob("*.py"))
)
PACKAGE = sorted((ROOT / "src").rglob("*.py"))


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


def private_without_caller(sources: list[str]) -> list[str]:
    """Private functions and classes (a leading underscore, not a dunder)
    defined anywhere in the sources and referenced in none of them, as a
    name or as an attribute; an import, a docstring or the definition itself
    is no reference."""
    nodes = [node for source in sources for node in ast.walk(ast.parse(source))]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {
        node.name
        for node in nodes
        if isinstance(node, kinds) and node.name.startswith("_") and not node.name.endswith("__")
    }
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    return sorted(defined - used)


def test_scan_flags_only_private_names_without_a_caller():
    module = (
        "from other import _imported_only\n"
        "def _called():\n    return 1\n"
        "def _lonely():\n    '''_lonely is named here, not called.'''\n"
        "class _Used:\n"
        "    def __init__(self):\n        self._method()\n"
        "    def _method(self):\n        return _called()\n"
        "    def _dead_method(self):\n        return 0\n"
        "class _Unused:\n    pass\n"
        "def public():\n    return _Used()\n"
    )
    other = "def _imported_only():\n    return 0\n"
    assert private_without_caller([module, other]) == [
        "_Unused",
        "_dead_method",
        "_imported_only",
        "_lonely",
    ]


def test_every_private_name_has_a_caller_in_the_package():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert private_without_caller(sources) == []


def enclosing_functions(sources: list[str], hit) -> list[str]:
    """The name of the innermost function around each node of the sources
    for which hit(node) holds, or "<module>" for one at module level, in
    source order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.append(where)
            visit(child, where)

    for source in sources:
        visit(ast.parse(source), "<module>")
    return found


def functions_importing(sources: list[str], module: str) -> list[str]:
    """Where the sources import module (plainly, under an alias or from
    it), as enclosing_functions names them."""

    def imports(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        return any(name == module or name.startswith(module + ".") for name in names)

    return enclosing_functions(sources, imports)


def test_scan_finds_each_import_of_a_module_and_its_function():
    first = (
        "import os\nimport mpmathx\n"
        "def _hp():\n    import mpmath\n    return mpmath\n"
        "class Cls:\n    def method(self):\n        from mpmath import mp\n"
        "        def inner():\n            import mpmath.libmp as lib\n"
        "        return mp\n"
    )
    second = "import mpmath\n"
    assert functions_importing([first, second], "mpmath") == ["_hp", "method", "inner", "<module>"]


def test_package_imports_mpmath_in_one_function():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert functions_importing(sources, "mpmath") == ["_high_precision"]


def functions_with_parameter(sources: list[str], name: str) -> list[str]:
    """The names of the functions of the sources, sorted, that take a
    parameter called name: positional, keyword-only or variadic."""
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [arg for arg in (args.vararg, args.kwarg) if arg]
                if any(arg.arg == name for arg in params):
                    found.append(getattr(node, "name", "<lambda>"))
    return sorted(found)


def test_scan_finds_each_kind_of_parameter():
    source = (
        "def plain(eta, kappa):\n    pass\n"
        "def keyword(eta, *, kappa=0.0):\n    pass\n"
        "def other(eta, m, kappa_star=1):\n    return lambda kappa: kappa\n"
        "class Cls:\n    def method(self, /, kappa):\n        pass\n"
        "def star(*kappa):\n    pass\n"
    )
    found = functions_with_parameter([source], "kappa")
    assert found == ["<lambda>", "keyword", "method", "plain", "star"]


def test_no_function_takes_the_auxiliary_squeezing():
    # Eve's auxiliary enters the package as its noise m alone, from the
    # optimizer to the public API; kappa is read off m for the table only
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert functions_with_parameter(sources, "kappa") == []


def signatures(sources: list[str], name: str) -> list[list[str]]:
    """The parameter names, in order, of each function of the sources
    called name; a variadic one is listed as *args or **kwargs."""
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
                args = node.args
                params = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
                params += ["*" + args.vararg.arg] if args.vararg else []
                params += ["**" + args.kwarg.arg] if args.kwarg else []
                found.append(params)
    return found


def test_scan_lists_each_signature_of_a_name():
    source = (
        "def f(a, /, b, *rest, c, **kw):\n    pass\n"
        "class Cls:\n    def f(self):\n        pass\n"
        "def g(a):\n    pass\n"
    )
    assert signatures([source], "f") == [["a", "b", "c", "*rest", "**kw"], ["self"]]


def test_the_eta_window_takes_no_floor():
    # the scan spans each row's whole feasible window, whose ends follow from
    # the resource and the channel alone: no function takes a hand-set floor
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert signatures(sources, "_feasible_eta_window") == [["gamma", "tau", "v"]]
    assert functions_with_parameter(sources, "lo") == []


def test_one_entangling_cloner():
    # the entangling cloner is the teleportation attack's tap: the tap takes
    # only its (eta, m), no channel, cloner_attack runs on it, and the
    # attacks never form a channel's raw-basis dilation
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert signatures(sources, "_tapped_auxiliary") == [["eta", "m"]]
    assert ("cloner_attack", "_tapped_auxiliary") in callers_of(sources, ["_tapped_auxiliary"])
    attacks = (ROOT / "src" / "cvqkd_attacks" / "attacks.py").read_text(encoding="utf-8")
    assert names_referenced(attacks, ("_dilated_state", "_dilation_parameters")) == []


# the helpers that read or form the interleaved 2n x 2n layout; every other
# module carries states and maps as x blocks over p blocks
LAYOUT_NAMES = ("_interleaved", "_xp_blocks", "_quadrature_blocks", "symplectic_form")


def names_referenced(source: str, names) -> list[str]:
    """Which of names the source references, as a name, as an attribute or
    in an import, sorted; a string or a docstring is no reference."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return sorted(found & set(names))


def referencing(name: str):
    """Whether a node references name, as names_referenced counts it."""
    return lambda node: (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    )


def test_scan_finds_each_way_to_reference_a_name():
    source = (
        "from .gaussian import _interleaved as weave\nimport gaussian\n"
        "gaussian._xp_blocks(1)\nsymplectic_form(2)\n'_quadrature_blocks'\n"
        "def outer():\n    def inner():\n        return _interleaved\n"
        "    return gaussian._interleaved(0)\n"
    )
    assert names_referenced(source, LAYOUT_NAMES) == [
        "_interleaved",
        "_xp_blocks",
        "symplectic_form",
    ]
    assert enclosing_functions([source], referencing("_interleaved")) == [
        "<module>",
        "inner",
        "outer",
    ]


# numpy's and mpmath's general eigensolvers: every symplectic spectrum is
# read from Cholesky factors, and a matrix without them has none, so it is
# refused rather than eigensolved
EIGENSOLVERS = ("eig", "eigh", "eigvals", "eigvalsh", "eighe", "eigsy")


def test_package_calls_no_general_eigensolver():
    found = {
        path.name: names_referenced(path.read_text(encoding="utf-8"), EIGENSOLVERS)
        for path in PACKAGE
    }
    assert {name: refs for name, refs in found.items() if refs} == {}


def test_only_gaussian_knows_the_interleaved_layout():
    found = {
        path.name: names_referenced(path.read_text(encoding="utf-8"), LAYOUT_NAMES)
        for path in PACKAGE
        if path.name != "gaussian.py"
    }
    assert {name: refs for name, refs in found.items() if refs} == {}


def test_maps_and_states_interleave_only_to_form_a_public_matrix():
    # states and maps alike are carried as x blocks over p blocks: gaussian
    # interleaves them only where a CovMat (on the first read of .matrix,
    # CovMat.__getattr__) or a Symplectic forms its public matrix, and no
    # module defines the 2n x 2n symplectic form
    gaussian = (ROOT / "src" / "cvqkd_attacks" / "gaussian.py").read_text(encoding="utf-8")
    callers = enclosing_functions([gaussian], referencing("_interleaved"))
    assert sorted(set(callers)) == ["__getattr__", "beam_splitter", "two_mode_squeezer"]
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    nodes = [node for source in sources for node in ast.walk(ast.parse(source))]
    defined = {node.name for node in nodes if isinstance(node, ast.FunctionDef)}
    assert "symplectic_form" not in defined


def callers_of(sources: list[str], names) -> list[tuple[str, str]]:
    """(enclosing function, callee) for each call in the sources whose
    callee is one of names, as a plain name or as an attribute, sorted; a
    name that is only referenced, not called, is no call."""
    found = []
    for name in names:

        def calls(node, name=name):
            if not isinstance(node, ast.Call):
                return False
            func = node.func
            return (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            )

        found += [(where, name) for where in enclosing_functions(sources, calls)]
    return sorted(found)


# the public maps: a Symplectic and the constructors that build and check
# one; below the public API every map is carried as its x and p parts
PUBLIC_MAPS = ("Symplectic", "beam_splitter", "two_mode_squeezer")


def test_scan_finds_each_call_of_a_name_and_its_function():
    source = (
        "from .gaussian import beam_splitter\nimport gaussian\n"
        "def mix(t):\n    return gaussian.beam_splitter(t)\n"
        "def squeeze(g):\n    def inner():\n        return two_mode_squeezer(g)\n"
        "    return inner, Symplectic\n"
        "S = Symplectic(1, 1)\n'beam_splitter(0.5)'\n"
    )
    assert callers_of([source], PUBLIC_MAPS) == [
        ("<module>", "Symplectic"),
        ("inner", "two_mode_squeezer"),
        ("mix", "beam_splitter"),
    ]


def test_no_function_builds_a_public_map():
    # the dilation mixes on the splitter's parts through apply_symplectic's
    # congruence and the circuits embed the parts: only the two public
    # constructors build a Symplectic, and nothing in the package calls them
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert callers_of(sources, PUBLIC_MAPS) == [
        ("beam_splitter", "Symplectic"),
        ("two_mode_squeezer", "Symplectic"),
    ]

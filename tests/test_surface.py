"""Every name the package exports is used by the library or the benchmark:
no library surface that only tests reach."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckeis"

# the genus-character oracle of the partial-zeta tests
TEST_ORACLES = {"zeta_K_class"}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced(path):
    """The identifiers a module reads, imports or takes as an attribute
    (a def or class statement alone is no reference)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_export_has_a_user_outside_the_tests():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] \
        + sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set().union(*map(_referenced, users))
    assert sorted(_exports() - referenced - TEST_ORACLES) == []
    assert TEST_ORACLES <= _exports()


def test_only_dalgebra_constructs_z():
    # every z of the library goes through DNumber.from_xy
    calls = [(p.name, node.lineno) for p in PACKAGE.glob("*.py")
             if p.name != "dalgebra.py"
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in {"Quaternion", "DNumber"}]
    assert calls == []

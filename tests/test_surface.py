"""Every name the package exports is used by the library or the benchmark:
no library surface that only tests reach."""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

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
    return _names(ast.parse(path.read_text()))


def _names(tree):
    names = set()
    for node in ast.walk(tree):
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


# the Dirichlet-series oracles of zeta.py, and the theta route they check
ORACLES = {"hurwitz_zeta", "riemann_zeta", "dirichlet_l", "zeta_K",
           "class_number", "kronecker_symbol"}
THETA_ROUTE = {"theta_split", "theta_split_ct", "_theta_sums",
               "_unit_covolume", "gamma_lattice_sum", "_tail_cutoff"}


def _top_level(module):
    """A module's functions, classes and assignments by the names they
    define."""
    defs = {}
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((name.id, node) for target in node.targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name))
    return defs


def test_the_oracles_share_no_code_with_the_lattice_route():
    # the oracles, and every function and constant of zeta.py they reach,
    # name nothing that lattice, specialfun or eisenstein define, nor the
    # theta split: the two routes of xi stay independent
    zeta = _top_level("zeta")
    forbidden = THETA_ROUTE.union(*map(_top_level, ("lattice", "specialfun",
                                                    "eisenstein")))
    reached, todo = set(), sorted(ORACLES)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(_names(zeta[name]) & zeta.keys() - reached)
    assert {"_character_table", "_coefficients", "_POWERS"} < reached
    assert sorted(set().union(*(_names(zeta[n]) for n in reached))
                  & forbidden) == []


def _reach(defs, roots):
    """The names of defs that roots reach, through the names each reads."""
    reached, todo = set(), sorted(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(_names(defs[name]) & defs.keys() - reached)
    return reached


def test_the_routes_that_certify_e_direct_share_no_phase_code():
    # e_direct's phase kernel, with every table and constant it reaches, is
    # named neither in zeta.py (the partial zeta sums and the theta split of
    # the lattice route) nor in any other method of the evaluator (the
    # expansion, the lattice route and the Laurent data) or what they reach
    eis = _top_level("eisenstein")
    kernel = _reach(eis, {"_phase"})
    assert {"_phase_table", "_PHASE_COS", "_PHASE_SIN"} < kernel
    methods = {node.name: node for node in eis["EisensteinEvaluator"].body
               if isinstance(node, ast.FunctionDef)}
    assert "_phase" in _names(methods.pop("e_direct"))
    assert {"ehat_expansion", "term3", "ehat_lattice", "ct"} < methods.keys()
    others = set().union(*map(_names, methods.values()))
    expansion = _reach(eis, others & eis.keys())
    assert not kernel & (expansion | others)
    assert not kernel & _referenced(PACKAGE / "zeta.py")


def test_no_module_of_the_package_imports_scipy():
    imports = [(p.name, node.lineno) for p in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.Import)
               and any(a.name.split(".")[0] == "scipy" for a in node.names)
               or isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "scipy"]
    assert imports == []


# one call per path of the benchmark decks' checks: the expansion and the
# lattice route at integer orders (Q(i), s = 1.5), a real and a complex
# order (Q), the direct sum and the torus integral
_DECK_PATHS = """
    import sys
    from fractions import Fraction

    import heckeis
    from heckeis.basefield import FracIdeal, make_field
    from heckeis.dalgebra import DNumber
    from heckeis.eisenstein import EisensteinEvaluator
    from heckeis.heckeint import HeckeSetup, hecke_integral
    from heckeis.lattice import OFLattice

    Q, Fi = make_field("Q"), make_field(-1)
    one = FracIdeal(Q, gen=Fraction(1))
    ev_q = EisensteinEvaluator(OFLattice(Q, one, DNumber.from_xy(Q, 0.2, 1.1),
                                         one))
    O = FracIdeal.unit_ideal(Fi)
    ev_i = EisensteinEvaluator(OFLattice(Fi, O, DNumber.from_xy(
        Fi, 0.1 + 0.2j, 0.9 + 0.1j), O))
    for ev, s in ((ev_i, 1.5), (ev_q, 0.3), (ev_q, 2.5 + 0.5j)):
        assert abs(ev.ehat_expansion(s, 1e-11) - ev.ehat_lattice(s, 1e-11)) \\
            < 1e-9, s
    ev_i.e_direct(2.5, 1e-9)
    hecke_integral(HeckeSetup(make_field(5)), 2.0)
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_deck_paths_load_no_scipy():
    # in a fresh interpreter: a lazy import of scipy.special would move its
    # cost into the first call that needs it
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(_DECK_PATHS)],
                         capture_output=True, text=True, env=env, timeout=300,
                         check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"

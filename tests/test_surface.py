"""Guard against package code that nothing calls.

Every top-level function, class and constant of ``src/levkit`` (bar the
test-only ``oracles.py``), every public method or property and every enum
member must be referenced by name outside its own definition: elsewhere in
the package, ``oracles.py`` excepted, or in ``demos/``.  A reference is an
AST ``Name`` or ``Attribute`` node, so docstrings, comments and the
re-export lists of ``levkit/__init__.py`` do not count.  A name that is
public API with no such caller is listed in ``KEPT_API`` with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "levkit"
DEMOS = ROOT / "demos"

KEPT_API = {
    "fit_lorentzian": "fits a simulated PSD; demos/langevin_psd.py and acceptance "
                      "criterion 06 use it",
    "search_impulses": "the impulse search as one library call; `levkit simulate` "
                       "runs the same Run pass while it writes the trajectory",
    "casimir_background_sphere_plane": "the Casimir background a Yukawa signal at "
                                       "the same gap is judged against",
    "dm_yukawa_point_potential": "the DM-nucleon potential whose Born cross section "
                                 "dm_rate_above_threshold integrates",
    "axion_decay_constant_for_line": "inverse of axion_gw_line; acceptance criterion "
                                     "04 checks the pair",
    "convert_mediator_mass_to_range": "inverse of convert_range_to_mediator_mass, "
                                      "which gives the Coulomb curve its mass axis",
    "DENSITY_GOLD": "handbook attractor density for geometries built in Python",
    "DENSITY_SILICON": "handbook attractor density for geometries built in Python",
    "DENSITY_POLYTUNGSTATE": "handbook attractor density for geometries built in Python",
    "DENSITY_MINERAL_OIL": "handbook attractor density for geometries built in Python",
}


def _definitions(tree):
    """(name, definition node) of each name the guard covers in one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if not isinstance(node, ast.ClassDef):
            continue
        is_enum = any(ast.unparse(base).endswith("Enum") for base in node.bases)
        for member in node.body:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                yield member.name, member
            elif is_enum and isinstance(member, ast.Assign):
                yield member.targets[0].id, member


def _references(tree):
    """Count of each name read by a Name or Attribute node in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
                   or isinstance(node, ast.Attribute))


def scan():
    """{name: "module:line"} of every covered definition, and the unreferenced ones."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"}
    counts = {path: _references(tree) for path, tree in modules.items()}
    outside = Counter()
    for path in sorted(DEMOS.glob("*.py")):
        outside += _references(ast.parse(path.read_text(encoding="utf-8")))
    defined, unreferenced = {}, {}
    for path, tree in modules.items():
        elsewhere = sum((c for other, c in counts.items() if other != path), outside)
        for name, node in _definitions(tree):
            defined[name] = where = f"{path.name}:{node.lineno}"
            if not elsewhere[name] and counts[path][name] == _references(node)[name]:
                unreferenced[name] = where
    return defined, unreferenced


def test_every_name_has_a_caller_or_a_reason():
    defined, unreferenced = scan()
    uncalled = {name: where for name, where in unreferenced.items() if name not in KEPT_API}
    assert uncalled == {}, f"defined but never referenced: {uncalled}"
    assert sorted(set(KEPT_API) - set(defined)) == [], "KEPT_API names no longer defined"

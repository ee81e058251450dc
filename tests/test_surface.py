"""Guard against package code that nothing calls.

Every top-level function, class and constant of ``src/levkit`` (bar the
test-only ``oracles.py``), every public method or property and every enum
member must be referenced by name outside its own definition: elsewhere in
the package, ``oracles.py`` excepted, or in ``demos/``.  A reference is an
AST ``Name`` or ``Attribute`` node, so docstrings, comments and the
re-export lists of ``levkit/__init__.py`` do not count.  A name that is
public API with no such caller is listed in ``KEPT_API`` with its reason.

A reference names no class, so a member name that two classes define would
count for both.  Each such member is listed in ``KEPT_API`` as
``Class.method``, its reason opening with the caller that reaches it:
``module.py:Qualified.name`` (or a whole module, such as a demo), which must
read the name and must lie outside the class.

Every name a package module imports, ``oracles.py`` included, must be read
in that module.  ``from __future__`` imports and the relative re-exports of
``levkit/__init__.py`` are exempt.

Only ``newforces.py`` (and ``oracles.py``) may check with ``isinstance``
whether a geometry is a plane slab, finger array or fluid capillary.
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
    # Method names that more than one class defines, each with its caller.
    "_Span.take": "dynamics.py:Run.chunks copies each impulse's lags from the blocks",
    "_NoiseThreshold.take": "dynamics.py:Run.chunks feeds the noise blocks to the filter",
    "Welch.take": "dynamics.py:estimate_psd feeds a whole series to one estimate",
    "RunningVariance.take": "dynamics.py:Run.chunks hands every chunk to its readers",
    "FingerArray.density_contrast": "newforces.py:_prefactor scales the point force",
    "FluidCapillary.density_contrast": "newforces.py:_prefactor scales the point force",
}


def _definitions(tree):
    """(name, definition node, owning class or None) of each name the guard
    covers in one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node, None
        if not isinstance(node, ast.ClassDef):
            continue
        is_enum = any(ast.unparse(base).endswith("Enum") for base in node.bases)
        for member in node.body:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                yield member.name, member, node.name
            elif is_enum and isinstance(member, ast.Assign):
                yield member.targets[0].id, member, node.name


def _references(tree):
    """Count of each name read by a Name or Attribute node in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
                   or isinstance(node, ast.Attribute))


def _modules():
    """{module: AST} of the package, ``oracles.py`` excepted."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"}


def scan():
    """{name: "module:line"} of every covered definition, and the unreferenced ones.

    A method is in the first under both ``method`` and ``Class.method``.
    """
    modules = _modules()
    counts = {path: _references(tree) for path, tree in modules.items()}
    outside = Counter()
    for path in sorted(DEMOS.glob("*.py")):
        outside += _references(ast.parse(path.read_text(encoding="utf-8")))
    defined, unreferenced = {}, {}
    for path, tree in modules.items():
        elsewhere = sum((c for other, c in counts.items() if other != path), outside)
        for name, node, owner in _definitions(tree):
            defined[name] = where = f"{path.name}:{node.lineno}"
            if owner is not None:
                defined[f"{owner}.{name}"] = where
            if not elsewhere[name] and counts[path][name] == _references(node)[name]:
                unreferenced[name] = where
    return defined, unreferenced


def shared_members():
    """"Class.member" of each member whose name another class also defines."""
    members = [(name, owner) for tree in _modules().values()
               for name, _, owner in _definitions(tree) if owner is not None]
    count = Counter(name for name, _ in members)
    return sorted(f"{owner}.{name}" for name, owner in members if count[name] > 1)


def _caller(spec):
    """The AST node a caller spec names: ``module.py`` of the package or
    ``demos/x.py``, either followed by ``:Qualified.name``; None if none."""
    module, _, qualname = spec.partition(":")
    path = ROOT / module if "/" in module else PACKAGE / module
    if not path.is_file():
        return None
    node = ast.parse(path.read_text(encoding="utf-8"))
    for part in filter(None, qualname.split(".")):
        node = next((child for child in node.body
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     and child.name == part), None)
        if node is None:
            return None
    return node


def test_every_name_has_a_caller_or_a_reason():
    defined, unreferenced = scan()
    uncalled = {name: where for name, where in unreferenced.items() if name not in KEPT_API}
    assert uncalled == {}, f"defined but never referenced: {uncalled}"
    assert sorted(set(KEPT_API) - set(defined)) == [], "KEPT_API names no longer defined"


def test_a_method_name_two_classes_define_is_kept_per_class_with_its_caller():
    shared = shared_members()
    listed = sorted(key for key in KEPT_API if "." in key)
    unlisted = sorted(set(shared) - set(listed))
    assert unlisted == [], f"a method name other classes share, without its caller: {unlisted}"
    assert sorted(set(listed) - set(shared)) == [], "Class.method entries no other class shares"
    for key in listed:
        owner, name = key.rsplit(".", 1)
        spec = KEPT_API[key].split()[0]
        caller = _caller(spec)
        assert caller is not None, f"{key}: no caller {spec}"
        own = sum((_references(node) for node in ast.walk(caller)
                   if isinstance(node, ast.ClassDef) and node.name == owner), Counter())
        assert _references(caller)[name] > own[name], \
            f"{key}: {spec} does not read {name} outside {owner}"


def unread_imports():
    """"module:line name" of each imported name its package module never reads."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = _references(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "__future__"
                    or path.name == "__init__.py" and node.level > 0):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if not reads[name]:
                    unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_every_imported_name_is_read():
    assert unread_imports() == [], "imported but never read"


# newforces.isl_signal_forces alone decides which attractor a plan holds.
ATTRACTORS = {"PlaneSlab", "FingerArray", "FluidCapillary"}


def attractor_type_checks():
    """"module:line" of each ``isinstance`` naming an attractor class in a
    package module other than ``newforces.py`` (``oracles.py`` excepted)."""
    found = []
    for path, tree in _modules().items():
        if path.name == "newforces.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and set(_references(node.args[1])) & ATTRACTORS):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_newforces_checks_the_attractor_type():
    assert attractor_type_checks() == [], "isinstance on an attractor outside newforces"

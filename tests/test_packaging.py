"""Packaging metadata points only at code that exists."""

import ast
import builtins
import importlib
import importlib.metadata
import re
import sys
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_console_scripts_resolve():
    meta = tomllib.loads(PYPROJECT.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def _normalize(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def test_third_party_imports_are_declared():
    # ``pip install .[test]`` must bring everything that src/ and tests/
    # import, so each third-party module needs a distribution declared in
    # ``dependencies`` or in the ``test`` extra
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = {_normalize(re.match(r"[A-Za-z0-9._-]+", req).group())
                for req in project["dependencies"]
                + project["optional-dependencies"]["test"]}
    first_party = {p.name for p in (ROOT / "src").iterdir() if p.is_dir()}
    first_party |= {p.stem for p in (ROOT / "tests").glob("*.py")}
    distributions = importlib.metadata.packages_distributions()
    undeclared = set()
    for path in sorted((ROOT / "src").rglob("*.py")) \
            + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in (name.split(".")[0] for name in names):
                if top in sys.stdlib_module_names or top in first_party:
                    continue
                dists = distributions.get(top, [top])
                if not declared & {_normalize(d) for d in dists}:
                    undeclared.add("%s (%s)" % (top, path.relative_to(ROOT)))
    assert not undeclared, sorted(undeclared)


def _imported_modules():
    """Top-level names of every absolute import under src/ and tests/."""
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")) \
            + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def test_declared_distributions_are_imported():
    # the converse of the test above: every distribution declared in
    # ``dependencies`` or the ``test`` extra provides a module that src/ or
    # tests/ imports, so ``pip install .[test]`` pulls nothing unused
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = {_normalize(re.match(r"[A-Za-z0-9._-]+", req).group())
                for req in project["dependencies"]
                + project["optional-dependencies"]["test"]}
    distributions = importlib.metadata.packages_distributions()
    used = {_normalize(dist) for top in _imported_modules()
            for dist in distributions.get(top, [top])}
    assert not declared - used, sorted(declared - used)


def test_export_lists_resolve():
    # a name deleted from a module cannot linger in an export list
    for name in ("p2dyn", "p2dyn.slices"):
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__
                   if not hasattr(module, attr)]
        assert not missing, (name, missing)


def test_no_module_imports_a_private_name_from_a_sibling():
    # a name shared between modules of the package is public in its home
    # module, so no module of src/p2dyn reaches for another's _name
    private = []
    for path in sorted((ROOT / "src" / "p2dyn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += ["%s: %s" % (path.name, alias.name)
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert not private, private


def test_no_module_calls_einsum():
    # the package evaluates polynomials with its support kernel and the
    # preimage solve's Horner helper, elementwise: numpy's einsum over axes
    # 2 or 3 long ran about 30 ns per complex multiply-add
    calls = []
    for path in sorted((ROOT / "src" / "p2dyn").glob("*.py")):
        calls += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute)
                  and node.attr == "einsum"]
    assert not calls, calls


def _module_level_names(tree):
    """Names bound by a module's top-level defs, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)}
    return names


def _referenced_names(tree):
    """Names a tree reads, with their counts: loads, attributes, imports,
    string literals."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def test_private_and_constant_names_are_used():
    # a module-level _private or ALL_CAPS name of src/p2dyn that no code in
    # src/, tests/ or bench/ reads is dead: a deleted helper's constant or
    # a leftover private function
    defined = {}
    for path in sorted((ROOT / "src" / "p2dyn").glob("*.py")):
        for name in _module_level_names(ast.parse(path.read_text())):
            if (name.startswith("_") and not name.startswith("__")) \
                    or re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
                defined[name] = path.name
    used = set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used.update(_referenced_names(ast.parse(path.read_text())))
    dead = sorted("%s: %s" % (home, name) for name, home in defined.items()
                  if name not in used)
    assert not dead, dead


#: public names of src/p2dyn that nothing in src/ or bench/*.py calls, each
#: with the reason it stays
UNCALLED_PUBLIC_NAMES = {
    "HomogeneousPoint": "the one-point input form tests/test_points.py pins",
    "affine_coords": "test reference: chart coordinates of sample points",
    "birkhoff_exponent": "test reference: the zoo's factor exponent oracle",
    "fs_tangent_maps": "test reference: self-contained per-point factors",
    "local_potential": "test reference: G along a frame chart",
    "parse_map": "ROADMAP item 4: the map file that verify reads",
    "pullback_scaling": "ROADMAP item 11: the inverse branches' reference",
    "resonance_detect": "ROADMAP item 4: verify's exponent stage",
    "sample_scalar": "test reference: any scalar on a slice grid",
    "serialize_map": "ROADMAP item 22: the map text in the run record",
    "standard_zoo": "test reference: the families per-map tests run over",
    "to_frame": "ROADMAP item 10: frame coordinates of grid points",
    "truncation_bound": "ROADMAP items 7 and 23: the depth for a scale",
}


def _definitions(tree):
    """(name, node) of a module's functions and classes and of the methods
    and properties of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((sub.name, sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef))


def test_public_names_have_a_caller():
    # public API that nothing uses gets deleted: every public function,
    # class, method or property of src/p2dyn is named in src/ outside its
    # own definition or in bench/*.py, or the allow-list says why it stays;
    # an allow-list entry that gained a caller or is gone fails too
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "p2dyn").glob("*.py"))]
    in_src = sum(map(_referenced_names, trees), Counter())
    in_bench = sum((_referenced_names(ast.parse(path.read_text()))
                    for path in sorted((ROOT / "bench").glob("*.py"))),
                   Counter())
    uncalled = {name for tree in trees
                for name, node in _definitions(tree)
                if not name.startswith("_") and not in_bench[name]
                and in_src[name] == _referenced_names(node)[name]}
    unlisted = sorted(uncalled - set(UNCALLED_PUBLIC_NAMES))
    assert not unlisted, unlisted
    stale = sorted(set(UNCALLED_PUBLIC_NAMES) - uncalled)
    assert not stale, stale


_CROSS_REFERENCE = re.compile(
    r":(?:func|class|meth|attr|data|mod):`~?([\w.]+?)(?:\(\))?`")


def _has_path(obj, parts):
    """True when ``obj.parts[0].parts[1]...`` exists; a dataclass field
    without a default counts as the last part."""
    for k, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            fields = getattr(obj, "__dataclass_fields__", {})
            return part in fields and k == len(parts) - 1
    return True


def _module_path(target):
    """True when ``target`` is a loaded module plus an existing path."""
    parts = target.split(".")
    for k in range(len(parts), 0, -1):
        module = sys.modules.get(".".join(parts[:k]))
        if module is not None:
            return _has_path(module, parts[k:])
    return False


def test_docstring_cross_references_resolve():
    # a :func:, :class:, :meth:, :attr:, :data: or :mod: reference in the
    # docstrings and #: comments of src/p2dyn names a p2dyn path, a name of
    # its own module, a builtin, or a method or dataclass field of a class
    # of that module; a docstring naming a deleted function fails here
    paths = sorted((ROOT / "src" / "p2dyn").glob("*.py"))
    modules = [importlib.import_module(
        "p2dyn" + ("" if path.stem == "__init__" else "." + path.stem))
        for path in paths]
    broken = []
    for path, module in zip(paths, modules):
        members = set()
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                members |= set(dir(obj))
                members |= set(getattr(obj, "__dataclass_fields__", {}))
        for target in _CROSS_REFERENCE.findall(path.read_text()):
            head, *rest = target.split(".")
            if not (head == "p2dyn" and _module_path(target)
                    or _has_path(module, [head] + rest)
                    or _has_path(builtins, [head] + rest)
                    or not rest and head in members):
                broken.append("%s: %s" % (path.name, target))
    assert not broken, broken

"""Packaging: what the installed package needs at run time."""

import ast
from pathlib import Path

import splitcm


def test_no_module_imports_numpy():
    # numpy is a test extra only (perfbench uses it), not a run-time dependency
    for path in sorted(Path(splitcm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "numpy" for n in names), path.name


def test_all_exports_resolve():
    # every exported name is still defined after deletions in the package
    missing = [name for name in splitcm.__all__ if not hasattr(splitcm, name)]
    assert missing == []
    assert len(set(splitcm.__all__)) == len(splitcm.__all__)


# kept although nothing in src/ or perfbench/ calls them
UNUSED_ALLOWED = {
    "is_reduced": "the reducedness law that criterion 9 and test_reduced_forms_known_lists check",
    "symplectic_gram": "the acceptance check that build_Iz's basis is symplectic",
}


def _names_used(tree, skip=None):
    """(Name ids and attribute names, attribute names only) in tree, outside the node skip."""
    names, attrs = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names | attrs, attrs


def test_no_api_that_only_tests_use():
    # every public function and method has a caller in the package, apart from
    # its own body and the __init__ exports, or in the benchmark; a method
    # counts as called only through an attribute x.name, so that a local
    # variable of the same name does not hide a dead method
    pkg = Path(splitcm.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(pkg.glob("*.py"))}
    del trees["__init__.py"]
    bench = pkg.parents[1] / "perfbench"
    used_by_bench = (set(), set())
    for path in sorted(bench.glob("*.py")):
        for seen, new in zip(used_by_bench, _names_used(ast.parse(path.read_text(encoding="utf-8")))):
            seen |= new
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs, how = [node], 0
            elif isinstance(node, ast.ClassDef):
                defs, how = [f for f in node.body if isinstance(f, ast.FunctionDef)], 1
            else:
                continue
            for d in defs:
                if d.name.startswith("_") or d.name in UNUSED_ALLOWED or d.name in used_by_bench[how]:
                    continue
                if not any(d.name in _names_used(t, skip=d)[how] for t in trees.values()):
                    unused.append("%s:%s" % (module, d.name))
    assert unused == []

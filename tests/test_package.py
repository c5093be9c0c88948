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

"""Every public function, class and method in ``src/bnsquat`` has a user.

A user is a reference by name in ``src/`` (other than the definition itself),
in ``README.md``, or in a ``perfbench/`` file that is not a test. Code that only
its own tests call is dead weight and should be deleted with its tests.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "bnsquat").glob("*.py"))


def public_defs(tree: ast.Module):
    """(qualified name, bare name) of each public top-level def or class and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def test_every_public_def_has_a_user():
    used: set[str] = set()
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    docs = [ROOT / "README.md"] + [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    used |= set(re.findall(r"\w+", "\n".join(p.read_text() for p in docs)))
    unused = [
        f"{path.stem}.{qualified}"
        for path in SRC
        for qualified, bare in public_defs(ast.parse(path.read_text()))
        if bare not in used
    ]
    assert not unused, f"public code with no user: {unused}"

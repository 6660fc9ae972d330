"""Every public top-level name of ``src/hspovm`` has a caller.

A name counts as used when it is read by code in ``src/hspovm`` outside
its own definition (the re-export in ``__init__`` does not count), by the
benchmark in ``perfbench/`` (its self-tests do not count), or by a code
span or block of ``README.md``.  A function kept alive only by its tests
fails here; restate the tests on the path the program runs instead.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hspovm"


def _read_names(tree) -> Counter:
    """How often ``tree`` reads each identifier: a name it loads, an
    attribute or an imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _definitions(tree):
    """(name, node) for each public top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _readme_names() -> set:
    text = (ROOT / "README.md").read_text()
    blocks = text.split("```")
    code = blocks[1::2] + re.findall(r"`([^`]+)`", "".join(blocks[0::2]))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_every_public_name_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    reads = sum(map(_read_names, modules.values()), Counter())
    outside = _readme_names()
    for path in (ROOT / "perfbench").glob("*.py"):
        if not path.name.startswith("test_"):
            outside |= set(_read_names(ast.parse(path.read_text())))
    unused = [f"{module}.{name}" for module, tree in modules.items()
              for name, node in _definitions(tree)
              if not name.startswith("_") and name not in outside
              and reads[name] == _read_names(node)[name]]
    assert unused == []

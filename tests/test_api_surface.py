"""The public surface carries no dead weight.

Every name in a submodule's ``__all__`` must be read somewhere in the
package beyond its own definition, or by the benchmark under ``bench/``.
Re-exports in ``collbreak/__init__.py`` do not count: they only pass a name
on.  A name that only tests read is not part of the program.
"""

import ast
from pathlib import Path

import collbreak as cb

SRC = Path(cb.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _names_read(tree):
    """Every name loaded, and every attribute taken, anywhere in the tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def unreferenced_exports(src: Path, bench: Path) -> list[str]:
    """``module.name`` for each exported name that nothing in src or bench reads."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            read |= _names_read(tree)
    for path in sorted(bench.glob("*.py")):
        read |= _names_read(ast.parse(path.read_text()))
    return [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _exports(tree)
        if name not in read
    ]


def test_every_export_has_a_reader():
    assert unreferenced_exports(SRC, BENCH) == []

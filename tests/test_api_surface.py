"""The public surface carries no dead weight.

Every name in a submodule's ``__all__`` must be read somewhere in the
package beyond its own definition, or by the benchmark under ``bench/``.
Re-exports in ``collbreak/__init__.py`` do not count: they only pass a name
on.  A name that only tests read is not part of the program.

Every module-level function or constant must be read in the package or
the benchmark too, its own module included.  Dunder names are left out,
and so are ``cli._cmd_*``: ``cli.main`` finds them by name.

Every member of a package class (method, property, class attribute or
dataclass field) must be read too, by the package, the benchmark or the
A1-A9 acceptance battery, which the program keeps as an invariant.
"""

import ast
from pathlib import Path

import collbreak as cb

SRC = Path(cb.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


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


def _readers(src: Path, bench: Path) -> list[Path]:
    return [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"] + sorted(bench.glob("*.py"))


def _read_in(src: Path, bench: Path) -> set:
    """Every name read in src, beyond ``__init__.py``, or in bench."""
    read = set()
    for path in _readers(src, bench):
        read |= _names_read(ast.parse(path.read_text()))
    return read


def unreferenced_exports(src: Path, bench: Path) -> list[str]:
    """``module.name`` for each exported name that nothing in src or bench reads."""
    read = _read_in(src, bench)
    return [
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name in _exports(ast.parse(path.read_text()))
        if name not in read
    ]


def _defined(body):
    """Each name a function, or an assignment, in ``body`` defines; dunder names left out."""
    for item in body:
        if isinstance(item, ast.FunctionDef):
            names = [item.name]
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names = [item.target.id]
        elif isinstance(item, ast.Assign):
            names = [t.id for t in item.targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from (name for name in names if not (name.startswith("__") and name.endswith("__")))


def unread_module_names(src: Path, bench: Path) -> list[str]:
    """``module.name`` for each module-level function or constant that nothing in src or bench reads."""
    read = _read_in(src, bench)
    return [
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name in _defined(ast.parse(path.read_text()).body)
        if name not in read and not (path.stem == "cli" and name.startswith("_cmd_"))
    ]


def _members(tree):
    """(class, member) for each method, property, class attribute and field a class body defines.

    Dunder methods are left out: the language calls them.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, name) for name in _defined(node.body))


def _members_read(tree):
    """Every attribute loaded, and every string in a tuple or list literal.

    The strings are the names handed to ``getattr``; a dict key is not a read.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    found.add(elt.value)
    return found


def unread_members(src: Path, bench: Path, acceptance: Path) -> list[str]:
    """``Class.member`` for each class member that nothing in src, bench or the acceptance battery reads."""
    read = set()
    for path in [*_readers(src, bench), acceptance]:
        read |= _members_read(ast.parse(path.read_text()))
    return sorted(
        f"{cls}.{name}"
        for path in sorted(src.glob("*.py"))
        for cls, name in _members(ast.parse(path.read_text()))
        if name not in read
    )


def test_every_export_has_a_reader():
    assert unreferenced_exports(SRC, BENCH) == []


def test_every_module_level_name_has_a_reader():
    assert unread_module_names(SRC, BENCH) == []


def test_unread_module_names_skips_dunders_and_the_cli_commands(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "cli.py").write_text("__all__ = []\nLIMIT = 1\nUNUSED = 2\ndef _cmd_run(): pass\ndef helper(): return LIMIT\n")
    (bench / "probe.py").write_text("from cli import helper\nhelper()\n")
    assert unread_module_names(src, bench) == ["cli.UNUSED"]


def test_every_class_member_has_a_reader():
    assert unread_members(SRC, BENCH, ACCEPTANCE) == []


def test_unread_members_counts_attribute_loads_and_listed_names_only(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "mod.py").write_text(
        "class Report:\n"
        "    used: int = 0\n"
        "    by_name: int = 0\n"
        "    keyed: int = 0\n"
        "    stored: int = 0\n"
        "    def method(self):\n"
        "        self.stored = {'keyed': self.used}\n"
        "        return [getattr(self, n) for n in ('by_name',)]\n"
    )
    (bench / "probe.py").write_text("")
    acceptance = tmp_path / "test_acceptance.py"
    acceptance.write_text("Report().method()\n")
    assert unread_members(src, bench, acceptance) == ["Report.keyed", "Report.stored"]

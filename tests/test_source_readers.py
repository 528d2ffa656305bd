"""Every public module-level function of ``cartankit`` has a reader: code
in ``src/`` calls it, ``cartankit/__init__.py`` exports it, or the
acceptance gate reads it.  So has every public method and property of a
public class (dunder methods aside): an attribute of that name read in
``src/`` outside its own definition, or in the acceptance gate.  A
function or method that only tests call belongs in the tests, as a
reference."""

import ast
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cartankit"

#: Public functions with none of the three readers, and why each stays.
ALLOWED = {
    "inclusion_to_json": "writes the inclusion files that the CLI reads, "
                         "the twin of the twist writer `twist_to_json`",
    "cyclic_groupoid": "builds a standard groupoid, beside the exported "
                       "pair and Klein-four builders",
    "canonical_phase": "the one-matrix form of the phase pin that both "
                       "twists apply through `_canonical_phases`",
}


def _loaded(tree):
    """Identifiers a tree reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _modules():
    """The parsed modules of ``src/``, by file name."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _read_in_src(modules, module, name):
    """Whether a statement of ``src/`` other than the function's own
    definition reads the name."""
    return any(name in _loaded(node)
               for file, tree in modules.items() if file != "__init__.py"
               for node in tree.body
               if not (file == module and isinstance(node, ast.FunctionDef)
                       and node.name == name))


def _unread():
    """Public module-level functions with none of the three readers."""
    modules = _modules()
    exported = {alias.name for node in ast.walk(modules["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    read = exported | _loaded(acceptance) | {
        node.attr for node in ast.walk(acceptance)
        if isinstance(node, ast.Attribute)}
    return {fn.name for module, tree in modules.items() for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and fn.name not in read
            and not _read_in_src(modules, module, fn.name)}


def _attrs(tree) -> Counter:
    """How often each attribute name is read in a tree."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def _unread_methods():
    """Public methods and properties of public classes (``Class.name``)
    whose name no attribute of ``src/`` outside their own definition, and
    none of the acceptance gate, reads."""
    modules = _modules()
    read = sum(map(_attrs, modules.values()), Counter())
    acceptance = _attrs(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text()))
    return {f"{cls.name}.{fn.name}" for tree in modules.values()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            and not cls.name.startswith("_") for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and fn.name not in acceptance
            and read[fn.name] == _attrs(fn)[fn.name]}


def test_every_public_function_has_a_reader():
    assert sorted(_unread() - set(ALLOWED)) == []


def test_allowlist_is_not_stale():
    """Each exception is a public function that still has no reader."""
    assert _unread() >= set(ALLOWED)


def test_every_public_method_has_a_reader():
    assert sorted(_unread_methods()) == []


def test_guard_sees_a_function_only_tests_call(tmp_path, monkeypatch):
    """A module-level function that only its own body reads is flagged;
    one read by another statement is not."""
    (tmp_path / "__init__.py").write_text("from .m import exported\n")
    (tmp_path / "m.py").write_text(
        "def exported():\n    return 0\n\n"
        "def dead(k):\n    return dead(k - 1) if k else 0\n\n"
        "def helper():\n    return 1\n\n"
        "def caller():\n    return helper()\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert _unread() == {"dead", "caller"}


def test_guard_sees_a_method_only_tests_call(tmp_path, monkeypatch):
    """A public method or property that only its own body reads is
    flagged; one read elsewhere, a dunder and a private class's are not."""
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __len__(self):\n        return 0\n"
        "    def dead(self, k):\n        return self.dead(k - 1)\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    @property\n    def shown(self):\n        return self.size\n"
        "class _B:\n"
        "    def hidden(self):\n        return 2\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert _unread_methods() == {"A.dead", "A.shown"}

"""The cycle collector is paused while a file is decoded and compiled, and
left as it was found, whether loading succeeds or is refused."""

import ast
import gc
import json
from pathlib import Path

import pytest

import cartankit
import cartankit.serialize
from cartankit.errors import ParseError
from cartankit.groupoid import pair_groupoid
from cartankit.serialize import (
    groupoid_from_json,
    groupoid_to_json,
    load_json,
    twist_from_json,
    twist_to_json,
)
from cartankit.twist import trivial_twist

SRC = Path(cartankit.__file__).resolve().parent


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collector(request):
    """The collector's state before the call; restored after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _twist():
    return twist_to_json(trivial_twist(pair_groupoid(3)))


def _repeated_arrow(data):
    data["arrows"].append(dict(data["arrows"][0]))
    return data


def _cases(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_twist()))
    broken = tmp_path / "broken.json"
    broken.write_text('{"units": [')
    bad_cocycle = _twist()
    bad_cocycle["cocycle"] = [[["u0<-u1", "u1<-u0"], ["1", 0]]]
    bad_arrow = _twist()
    _repeated_arrow(bad_arrow["groupoid"])
    return [
        ("load", load_json, str(good), None),
        ("malformed JSON", load_json, str(broken), ParseError),
        ("unreadable path", load_json, str(tmp_path / "none.json"),
         ParseError),
        ("directory", load_json, str(tmp_path), ParseError),
        ("twist", twist_from_json, _twist(), None),
        ("malformed cocycle entry", twist_from_json, bad_cocycle,
         ParseError),
        ("twist with a repeated arrow id", twist_from_json, bad_arrow,
         ParseError),
        ("not a twist object", twist_from_json, None, TypeError),
        ("groupoid", groupoid_from_json,
         groupoid_to_json(pair_groupoid(3)), None),
        ("repeated arrow id", groupoid_from_json,
         _repeated_arrow(groupoid_to_json(pair_groupoid(3))), ParseError),
        ("not a groupoid object", groupoid_from_json, [], ParseError),
    ]


def test_state_restored(tmp_path, collector):
    for label, load, arg, error in _cases(tmp_path):
        if error is None:
            load(arg)
        else:
            with pytest.raises(error):
                load(arg)
        assert gc.isenabled() is collector, label


def test_paused_while_decoding_and_compiling(tmp_path, monkeypatch):
    """json.load and the table compile each run with the collector off."""
    seen = []

    def recording(real):
        def call(*args, **kwargs):
            seen.append((real.__name__, gc.isenabled()))
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(json, "load", recording(json.load))
    monkeypatch.setattr(cartankit.serialize, "build_groupoid",
                        recording(cartankit.serialize.build_groupoid))
    monkeypatch.setattr(cartankit.serialize, "_with_phases",
                        recording(cartankit.serialize._with_phases))
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(_twist()))
    was = gc.isenabled()
    gc.enable()
    try:
        twist_from_json(load_json(str(path)))
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [("load", False), ("build_groupoid", False),
                    ("_with_phases", False)]


def test_no_collection_while_loading_and_compiling(tmp_path):
    """With the collector on, ``twist_from_json(load_json(p))`` starts no
    collection: each pause starts before its wrapper allocates, so the
    decoded tree is never scanned."""
    path = tmp_path / "pair20.json"
    path.write_text(json.dumps(twist_to_json(trivial_twist(
        pair_groupoid(20)))))
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        for _ in range(3):
            T = twist_from_json(load_json(str(path)))
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was else gc.disable)()
    assert len(T.groupoid.arrows) == 400
    assert starts == []


def _gc_uses(tree):
    """(line, enclosing function) of each import or name of gc."""
    uses = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "gc" for a in node.names):
            uses.append((node.lineno, func))
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            uses.append((node.lineno, func))
        elif isinstance(node, ast.Name) and node.id == "gc":
            uses.append((node.lineno, func))
        elif isinstance(node, ast.Constant) and node.value == "gc":
            uses.append((node.lineno, func))  # importlib / __import__
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return uses


def test_only_the_helper_touches_gc():
    """The module-level import in serialize.py and the calls inside
    ``_collector_paused`` are the package's only uses of gc."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        uses = _gc_uses(ast.parse(path.read_text()))
        if uses:
            found[path.name] = uses
    assert set(found) == {"serialize.py"}
    funcs = [func for _, func in found["serialize.py"]]
    assert funcs[0] is None  # import gc
    assert set(funcs[1:]) == {"_collector_paused"}

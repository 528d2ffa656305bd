"""``serialize.load_file``: a command's file is decoded, classified and
compiled under one pause of the cycle collector, and a groupoid or twist
file's parsed tree is gone before the collector resumes."""

import gc
import json
import weakref

import pytest

import cartankit.serialize
from cartankit.cli import main
from cartankit.errors import ParseError
from cartankit.groupoid import klein_four_groupoid, pair_groupoid
from cartankit.serialize import (
    groupoid_to_json,
    inclusion_to_json,
    load_file,
    twist_to_json,
)
from cartankit.twist import trivial_twist
from conftest import k4_nontrivial_sigma, mndn_inclusion


class Tree(dict):
    """A parsed top-level object that can be watched through a weakref."""


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, obj in (
            ("twist", twist_to_json(k4_nontrivial_sigma(
                klein_four_groupoid()))),
            ("groupoid", groupoid_to_json(pair_groupoid(3))),
            ("inclusion", inclusion_to_json(mndn_inclusion(2)))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        out[name] = str(path)
    return out


@pytest.fixture
def resumes(monkeypatch):
    """Each time the collector is switched back on: (the parsed tree is
    dead, the collector was off).  Restores the collector's state."""
    seen, trees = [], []
    real_load, real_enable = json.load, gc.enable

    def load(fh):
        tree = Tree(real_load(fh))
        trees.append(weakref.ref(tree))
        return tree

    def enable():
        seen.append((all(r() is None for r in trees), gc.isenabled()))
        real_enable()

    monkeypatch.setattr(json, "load", load)
    monkeypatch.setattr(gc, "enable", enable)
    was = gc.isenabled()
    real_enable()
    yield seen
    (real_enable if was else gc.disable)()


@pytest.mark.parametrize("kind", ["twist", "groupoid"])
def test_one_pause_tree_dropped(files, resumes, kind):
    got, T = load_file(files[kind])
    assert got == kind
    assert T.groupoid.arrows
    assert resumes == [(True, False)]
    assert gc.isenabled()


def test_inclusion_comes_back_parsed(files, resumes):
    kind, data = load_file(files["inclusion"])
    assert kind == "inclusion" and isinstance(data, dict)
    assert data["ambient_dim"] == 2
    assert resumes == [(False, False)]


@pytest.mark.parametrize("argv,count", [
    (["validate", "twist"], 1), (["cstar", "twist"], 1),
    (["validate", "groupoid"], 1), (["cstar", "groupoid"], 1),
    (["compare", "twist", "groupoid"], 2)])
def test_commands_pause_once_per_file(files, resumes, capsys, argv, count):
    main([argv[0]] + [files[k] for k in argv[1:]])
    capsys.readouterr()
    assert resumes == [(True, False)] * count


def test_wrong_kind_refused_before_compiling(files, monkeypatch):
    """A refused kind is never compiled."""
    def fail(data):
        raise AssertionError("compiled")
    monkeypatch.setattr(cartankit.serialize, "twist_from_json", fail)
    with pytest.raises(ParseError, match="expected an inclusion file, "
                                         "found twist"):
        load_file(files["twist"], ("inclusion",))
    with pytest.raises(ParseError, match="expected a groupoid or twist "
                                         "file, found inclusion"):
        load_file(files["inclusion"], cartankit.serialize.TWIST_KINDS)


@pytest.mark.parametrize("collector", [True, False])
def test_state_restored(files, collector):
    was = gc.isenabled()
    (gc.enable if collector else gc.disable)()
    try:
        load_file(files["twist"])
        with pytest.raises(ParseError):
            load_file(files["twist"], ("inclusion",))
        assert gc.isenabled() is collector
    finally:
        (gc.enable if was else gc.disable)()


def test_trivial_twist_of_a_groupoid(files):
    _, T = load_file(files["groupoid"])
    assert T.sigma == trivial_twist(pair_groupoid(3)).sigma

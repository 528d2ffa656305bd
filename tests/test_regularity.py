"""Regularity decided on the corner slices (``Inclusion.regular``), against
the closure of a generating normalizer list (``ref_regular``): the
realized corpus and ten hand inclusions, in the standard basis and
conjugated; the refusal's witness against full-width slices; inclusion
files with no ``normalizers`` key; and a source guard that keeps the
closure and the list out of the verdict."""

import ast
import json
import pathlib

import numpy as np
import pytest

from cartankit import cli
from cartankit.envelope import cartan_envelope
from cartankit.inclusion import make_inclusion
from cartankit.matalg import _vec, generate_star_algebra, rank
from cartankit.reduced import groupoid_inclusion, realize
from cartankit.serialize import inclusion_to_json
from cartankit.weyl import weyl_twist
from conftest import E, m2c_inclusion, mndn_inclusion, random_twist_corpus, \
    ref_regular, unequal_rank_inclusion
from test_class_twist import conjugated
from test_corner_slices import non_scalar_rank_two

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cartankit"

def diag_sum(*blocks):
    """The block-diagonal matrix of the blocks."""
    n = sum(len(b) for b in blocks)
    out, k = np.zeros((n, n), dtype=complex), 0
    for b in blocks:
        out[k:k + len(b), k:k + len(b)] = b
        k += len(b)
    return out


def inclusion(n, cgens, dgens, normalizers):
    return make_inclusion(generate_star_algebra(n, cgens),
                          generate_star_algebra(n, dgens), normalizers)


def m2_plus_m2():
    """M_2 + M_2 in M_4 over span{e11 + e33, e22 + e44}: both corners are
    C + C on rank-2 projections, equivalent through e12 + e34."""
    units = [diag_sum(E(i, j, 2), E(i, j, 2)) for i in range(2)
             for j in range(2)]
    flip = np.diag([1.0, 1, -1, -1])
    return inclusion(4, units + [flip], [units[0], units[3]], units + [flip])


def m2_plus_c():
    """M_2 + C in M_3 over D_3, normalized by its matrix units."""
    units = [diag_sum(E(i, j, 2), np.zeros((1, 1))) for i in range(2)
             for j in range(2)] + [E(2, 2, 3)]
    return inclusion(3, units, [E(i, i, 3) for i in range(3)], units)


def m2_plus_c_plus_c():
    """M_2 + C + C in M_4 over span{e11 + e33, e22 + e44}: equal ranks, but
    p_1 is (1, 1, 0) and p_2 is (1, 0, 1) over the summands."""
    units = [diag_sum(E(i, j, 2), np.zeros((2, 2))) for i in range(2)
             for j in range(2)] + [E(2, 2, 4), E(3, 3, 4)]
    signs = [np.diag([1.0, 1, -1, 1]), np.diag([1.0, 1, 1, -1])]
    return inclusion(4, units, [E(0, 0, 4) + E(2, 2, 4),
                                E(1, 1, 4) + E(3, 3, 4)], signs)


def m4_rank_one_three():
    """M_4 over span{e11, 1 - e11}: a rank-1 and a rank-3 corner."""
    w = np.exp(2j * np.pi / 3)
    shift = np.roll(np.eye(3), 1, axis=0)
    gens = [diag_sum(np.eye(1), shift),
            diag_sum(np.eye(1), np.diag([1, w, w * w])),
            np.diag([-1.0, 1, 1, 1])]
    return inclusion(4, [E(i, j, 4) for i in range(4) for j in range(4)],
                     [E(0, 0, 4), np.eye(4) - E(0, 0, 4)], gens)


def m3_plus_c():
    """M_3 + C in M_4 over span{e11 + e44, e22 + e33}: ranks 2 and 2, but
    p_1 is (1, 1) and p_2 is (2, 0) over the summands."""
    units = [diag_sum(E(i, j, 3), np.zeros((1, 1))) for i in range(3)
             for j in range(3)] + [E(3, 3, 4)]
    swap = diag_sum(np.eye(1), np.array([[0, 1], [1, 0]]), np.eye(1))
    gens = [np.diag([1.0, 1, 1, -1]), np.diag([1.0, 1, -1, 1]), swap]
    return inclusion(4, units, [E(0, 0, 4) + E(3, 3, 4),
                                E(1, 1, 4) + E(2, 2, 4)], gens)


#: name -> (builder, regular): six regular inclusions, four not.
HAND = {
    "M2/D2": (lambda: mndn_inclusion(2), True),
    "M3/D3": (lambda: mndn_inclusion(3), True),
    "M2(x)M2/D2(x)1": (non_scalar_rank_two, True),
    "M2+C/C1": (m2c_inclusion, True),
    "M2+M2/rank-2 pair": (m2_plus_m2, True),
    "M2+C/D3": (m2_plus_c, True),
    "M3/ranks 2,1": (unequal_rank_inclusion, False),
    "M2+C+C/rank-2 pair": (m2_plus_c_plus_c, False),
    "M4/ranks 1,3": (m4_rank_one_three, False),
    "M3+C/rank-2 pair": (m3_plus_c, False),
}


def hand_cases():
    for k, (name, (build, regular)) in enumerate(HAND.items()):
        yield pytest.param(build, regular, id=f"{name}-standard")
        yield pytest.param(lambda b=build, s=k: conjugated(b(), 100 + s),
                           regular, id=f"{name}-conjugated")


def ref_slice_numbers(inc, i, j):
    """(dim p_j C p_i, dim A_i, dim A_j, rank p_i, rank p_j) on the
    full-width rows p_j b p_i of C's basis."""
    P, B = inc.min_projs, inc.C.stack

    def dim(a, b):
        return rank(_vec(P[b] @ B @ P[a]))
    return dim(i, j), dim(i, i), dim(j, j), rank(P[i]), rank(P[j])


def check_witness(inc):
    """The refusal's witness is the first key (i, j) whose full-width slice
    is nonzero between inequivalent corners, with its numbers."""
    m = inc.n_corners
    for i in range(m):
        for j in range(m):
            d, a, b, r, s = ref_slice_numbers(inc, i, j)
            if d and (r != s or d * d != a * b):
                assert inc._irregular_slice == (i, j, d, a, b, r, s)
                return
    assert inc._irregular_slice is None


class TestCriterion:
    @pytest.mark.parametrize("build,regular", hand_cases())
    def test_hand_inclusions_match_closure(self, build, regular):
        inc = build()
        assert inc.regular is regular
        assert ref_regular(inc) is regular
        check_witness(inc)

    def test_realized_corpus_matches_closure(self):
        isotropy = 0
        for T in random_twist_corpus(60):
            inc = groupoid_inclusion(realize(T))
            assert inc.regular is ref_regular(inc) is True
            isotropy += not inc.is_masa
        assert isotropy > 0

    @pytest.mark.parametrize("build", [
        lambda: mndn_inclusion(2), lambda: mndn_inclusion(3),
        non_scalar_rank_two], ids=["M2/D2", "M3/D3", "M2(x)M2/D2(x)1"])
    def test_regular_with_no_list(self, build):
        """The verdict reads (C, D), not the list: with none listed, the
        closure says no and the criterion yes."""
        listed = build()
        inc = make_inclusion(listed.C, listed.D, [])
        assert inc.regular
        assert not ref_regular(inc)
        if inc.is_masa:
            assert len(weyl_twist(inc).twist.groupoid.arrows) == \
                inc.C.dim
            assert cartan_envelope(inc).success


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def unlisted_m3(tmp_path):
    """(M_3, D_3) as an inclusion file with no ``normalizers`` key."""
    data = inclusion_to_json(mndn_inclusion(3))
    del data["normalizers"]
    path = tmp_path / "m3d3.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestUnlistedFile:
    def test_analyze_says_regular(self, capsys, unlisted_m3):
        code, out, _ = _run(capsys, "analyze", unlisted_m3)
        report = json.loads(out)
        assert code == 0 and report["regular"] is True
        assert report["left_kernel_dim"] == 0

    @pytest.mark.parametrize("command", ["weyl", "envelope", "compare"])
    def test_pipelines_run(self, capsys, unlisted_m3, command):
        code, out, _ = _run(capsys, command, unlisted_m3)
        assert code == 0, out


# --- source guard ------------------------------------------------------------

def _tree(module):
    return ast.parse((SRC / module).read_text())


def _regular_readers():
    """``Inclusion.regular`` and everything it reaches: the Inclusion
    members it reads through ``self`` and the module-level functions of
    ``inclusion.py`` and ``matalg.py`` it calls, transitively."""
    inc_tree = _tree("inclusion.py")
    cls = next(node for node in inc_tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Inclusion")
    members = {fn.name: fn for fn in cls.body
               if isinstance(fn, ast.FunctionDef)}
    funcs = {fn.name: fn for tree in (inc_tree, _tree("matalg.py"))
             for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    seen, todo = {}, [("Inclusion.regular", members["regular"])]
    while todo:
        name, fn = todo.pop()
        if name in seen:
            continue
        seen[name] = fn
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr in members \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                todo.append((f"Inclusion.{node.attr}", members[node.attr]))
            elif isinstance(node, ast.Name) and node.id in funcs:
                todo.append((node.id, funcs[node.id]))
    return seen


def _mentions(node, name):
    """Whether the node reads, binds or passes the name."""
    return any(isinstance(n, ast.Attribute) and n.attr == name
               or isinstance(n, ast.Name) and n.id == name
               or isinstance(n, (ast.keyword, ast.arg)) and n.arg == name
               for n in ast.walk(node))


class TestSourceGuard:
    def test_regular_runs_no_closure(self):
        readers = _regular_readers()
        assert {"Inclusion._irregular_slice", "Inclusion._slice_spans",
                "Inclusion._compressed_basis", "row_span"} <= set(readers)
        assert "generate_star_algebra" not in readers
        for name, fn in readers.items():
            assert not _mentions(fn, "generate_star_algebra"), name
            assert not _mentions(fn, "normalizer_gens"), name

    def test_only_the_checker_and_the_writer_read_the_list(self):
        """Outside the Inclusion field itself, ``normalizer_gens`` is named
        only by ``make_inclusion`` and ``inclusion_to_json``."""
        owners = set()
        for path in sorted(SRC.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                parts = node.body if isinstance(node, ast.ClassDef) \
                    else [node]
                for part in parts:
                    if isinstance(part, ast.AnnAssign) and \
                            isinstance(node, ast.ClassDef) and \
                            node.name == "Inclusion":
                        continue
                    if _mentions(part, "normalizer_gens"):
                        owners.add((path.name, getattr(part, "name", None)))
        assert owners == {("inclusion.py", "make_inclusion"),
                          ("serialize.py", "inclusion_to_json")}

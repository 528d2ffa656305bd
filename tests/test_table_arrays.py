"""The array form of a groupoid's tables against the per-pair loops it
replaced.

The ``ref_*`` functions are the loop implementations of convolution,
involution, transpose, the regular-representation block, the structure
constants and the two validators, kept here as the reference: the array
path must give the same violation lines in the same order, function
values within 1e-12 and exactly equal structure constants.
"""

import ast
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import cartankit
from cartankit.cli import main
from cartankit.envelope import envelope_uniqueness_crosscheck
from cartankit.errors import SigmaUndefined
from cartankit.groupoid import (
    cyclic_groupoid,
    disjoint_union,
    isotropy,
    klein_four_groupoid,
    pair_groupoid,
    validate,
)
from cartankit.reduced import is_cartan_pair, realize, \
    regular_representation
from cartankit.serialize import groupoid_to_json, twist_to_json
from cartankit.twist import (
    COCYCLE_TOL,
    CocycleTwist,
    convolve,
    involution,
    transpose,
    trivial_twist,
    validate_cocycle,
)
from conftest import (
    mndn_inclusion,
    random_coboundary,
    random_function,
    random_twist_corpus,
    ref_structure_constants as structure_constants,
)

VALUE_TOL = 1e-12


# --- reference loop implementations ----------------------------------------

def _c(T, k, a, b):
    v = T.sigma[(a, b)]
    return v if k == 1 else np.conj(v)


def _idx(G):
    return {a: i for i, a in enumerate(G.arrows)}


def ref_convolve(f, g):
    T, G = f.twist, f.twist.groupoid
    idx = _idx(G)
    out = np.zeros_like(f.values)
    for (a, b), ab in G.compose_table.items():
        fa = f.values[idx[a]]
        if fa == 0:
            continue
        gb = g.values[idx[b]]
        if gb == 0:
            continue
        out[idx[ab]] += _c(T, f.degree, a, b) * fa * gb
    return out


def ref_involution(f):
    T, G = f.twist, f.twist.groupoid
    idx = _idx(G)
    out = np.zeros_like(f.values)
    for a in G.arrows:
        ia = G.inv[a]
        out[idx[a]] = np.conj(_c(T, f.degree, a, ia)) * np.conj(
            f.values[idx[ia]])
    return out


def ref_transpose(f):
    T, G = f.twist, f.twist.groupoid
    idx = _idx(G)
    out = np.zeros_like(f.values)
    for a in G.arrows:
        ia = G.inv[a]
        out[idx[a]] = _c(T, f.degree, a, ia) * f.values[idx[ia]]
    return out


def ref_block(f, fiber):
    T, G = f.twist, f.twist.groupoid
    idx = _idx(G)
    M = np.zeros((len(fiber), len(fiber)), dtype=complex)
    for j, b in enumerate(fiber):
        ib = G.inv[b]
        for i, a in enumerate(fiber):
            ab = G.compose(a, ib)
            if ab is None:
                continue
            val = f.values[idx[ab]]
            if val != 0:
                M[i, j] = _c(T, f.degree, ab, b) * val
    return M


def ref_structure_constants(T, degree):
    G = T.groupoid
    n = len(G.arrows)
    idx = _idx(G)
    S = np.zeros((n, n, n), dtype=complex)
    for (a, b), ab in G.compose_table.items():
        S[idx[a], idx[b], idx[ab]] += _c(T, degree, a, b)
    return S


def ref_validate(G):
    bad = []
    for x in G.units:
        e = G.unit_arrow.get(x)
        if e is None:
            bad.append(f"unit {x!r} has no unit arrow")
            continue
        if G.src.get(e) != x or G.rng.get(e) != x:
            bad.append(f"unit arrow {e!r} of {x!r} has wrong source/range")
    for a in G.arrows:
        if G.src.get(a) not in G.unit_arrow or G.rng.get(a) not in G.unit_arrow:
            bad.append(f"arrow {a!r} has unknown source or range")
            continue
        ia = G.inv.get(a)
        if ia not in G.src:
            bad.append(f"arrow {a!r} has unknown inverse {ia!r}")
            continue
        if G.inv.get(ia) != a:
            bad.append(f"inverse not involutive at arrow {a!r}")
        if G.src[ia] != G.rng[a] or G.rng[ia] != G.src[a]:
            bad.append(f"inverse of {a!r} has wrong source/range")
        er, es = G.unit_arrow[G.rng[a]], G.unit_arrow[G.src[a]]
        if G.compose(er, a) != a:
            bad.append(f"r(g)g != g at arrow {a!r}")
        if G.compose(a, es) != a:
            bad.append(f"g s(g) != g at arrow {a!r}")
        if G.compose(ia, a) != es:
            bad.append(f"g^-1 g != unit at arrow {a!r}")
        if G.compose(a, ia) != er:
            bad.append(f"g g^-1 != unit at arrow {a!r}")
    for a in G.arrows:
        for b in G.arrows:
            defined = (a, b) in G.compose_table
            should = G.src[a] == G.rng[b]
            if defined and not should:
                bad.append(f"compose defined for non-composable pair ({a!r},{b!r})")
            if should and not defined:
                bad.append(f"compose missing for composable pair ({a!r},{b!r})")
            if defined:
                ab = G.compose_table[(a, b)]
                if ab not in G.src:
                    bad.append(f"compose({a!r},{b!r}) is unknown arrow {ab!r}")
                elif G.src[ab] != G.src[b] or G.rng[ab] != G.rng[a]:
                    bad.append(f"compose({a!r},{b!r}) has wrong source/range")
    for (a, b) in sorted(G.compose_table):
        ab = G.compose(a, b)
        if ab is None:
            continue
        for c in G.arrows:
            if G.src[b] == G.rng[c]:
                bc = G.compose(b, c)
                if bc is not None and G.compose(ab, c) != G.compose(a, bc):
                    bad.append(f"associativity fails at ({a!r},{b!r},{c!r})")
    return bad


def ref_orbit_representatives(G):
    parent = {x: x for x in G.units}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in G.arrows:
        rx, ry = find(G.src[a]), find(G.rng[a])
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return tuple(sorted({find(x) for x in G.units}))


def ref_validate_cocycle(T, tol=COCYCLE_TOL):
    G = T.groupoid
    bad = []
    if set(T.sigma) != set(G.compose_table):
        bad.append("sigma is not keyed exactly by the composable pairs")
        return bad
    for (a, b), v in T.sigma.items():
        if abs(abs(v) - 1.0) > tol:
            bad.append(f"sigma({a!r},{b!r}) has modulus {abs(v):.3g} != 1")
        if (G.is_unit_arrow(a) or G.is_unit_arrow(b)) and abs(v - 1.0) > tol:
            bad.append(f"sigma not normalized at unit pair ({a!r},{b!r})")
    for (a, b), ab in G.compose_table.items():
        for c in G.arrows:
            if G.src[b] != G.rng[c]:
                continue
            bc = G.compose_table[(b, c)]
            lhs = T.sigma[(a, b)] * T.sigma[(ab, c)]
            rhs = T.sigma[(b, c)] * T.sigma[(a, bc)]
            if abs(lhs - rhs) > tol:
                bad.append(f"cocycle identity fails at ({a!r},{b!r},{c!r})")
    return bad


# --- inputs --------------------------------------------------------------------

def _twists():
    rng = np.random.default_rng(41)
    out = list(random_twist_corpus(30, seed=17))
    for n in (1, 2, 3, 5):
        out.append(random_coboundary(pair_groupoid(n), rng))
    for k in (1, 2, 3):
        G = disjoint_union(klein_four_groupoid(prefix="k"), pair_groupoid(k))
        out.append(random_coboundary(G, rng, ("A.k",)))
    for n in (1, 2, 5, 7):
        out.append(random_coboundary(cyclic_groupoid(n), rng))
    return out


TWISTS = _twists()


def _corrupted_groupoids():
    """One broken axiom per entry: (label, groupoid)."""
    P = pair_groupoid(3)
    C = cyclic_groupoid(4)
    inv = dict(P.inv, **{"u0<-u1": "u0<-u1"})
    bad_unit = dict(P.unit_arrow, u1="u1<-u0")
    no_unit = {x: e for x, e in P.unit_arrow.items() if x != "u2"}
    unknown_src = dict(P.src, **{"u2<-u0": "zz"})
    unknown_inv = dict(P.inv, **{"u1<-u2": "nope"})
    missing = {k: v for k, v in P.compose_table.items()
               if k != ("u1<-u2", "u2<-u0")}
    extra = {**P.compose_table, ("u0<-u1", "u0<-u1"): "u0<-u1"}
    wrong_ends = {**P.compose_table, ("u0<-u1", "u1<-u2"): "u0<-u1"}
    unknown_ab = {**P.compose_table, ("u2<-u1", "u1<-u0"): "qq"}
    assoc = {**C.compose_table, ("c1", "c1"): "c3"}
    return [
        ("inverse", dataclasses.replace(P, inv=inv)),
        ("unknown inverse", dataclasses.replace(P, inv=unknown_inv)),
        ("unit arrow ends", dataclasses.replace(P, unit_arrow=bad_unit)),
        ("missing unit arrow", dataclasses.replace(P, unit_arrow=no_unit)),
        ("unknown source", dataclasses.replace(P, src=unknown_src)),
        ("missing compose entry", dataclasses.replace(P, compose_table=missing)),
        ("extra compose entry", dataclasses.replace(P, compose_table=extra)),
        ("wrong composite ends", dataclasses.replace(P, compose_table=wrong_ends)),
        ("unknown composite", dataclasses.replace(P, compose_table=unknown_ab)),
        ("associativity", dataclasses.replace(C, compose_table=assoc)),
    ]


def _corrupted_twists():
    """Twists over valid groupoids, one broken cocycle axiom each."""
    rng = np.random.default_rng(5)
    out = []
    for T in (random_coboundary(pair_groupoid(3), rng),
              random_coboundary(cyclic_groupoid(5), rng)):
        G = T.groupoid
        units = set(G.unit_arrow.values())
        inner = [k for k in T.sigma if units.isdisjoint(k)]
        on_unit = [k for k in T.sigma if not units.isdisjoint(k)]
        for label, key, factor in (("modulus", inner[1], 2.0),
                                   ("normalization", on_unit[2], -1.0),
                                   ("cocycle identity", inner[-2], 1j),
                                   ("small defect", inner[-3],
                                    np.exp(1e-9j))):
            sigma = dict(T.sigma)
            sigma[key] = sigma[key] * factor
            out.append((label, CocycleTwist(G, sigma)))
        sigma = dict(T.sigma)
        del sigma[inner[0]]
        out.append(("keys", CocycleTwist(G, sigma)))
    return out


# --- cross-checks ----------------------------------------------------------------

class TestAgainstLoops:
    @pytest.mark.parametrize("T", TWISTS, ids=lambda T: str(len(T.sigma)))
    def test_algebra(self, T):
        rng = np.random.default_rng(len(T.sigma))
        for k in (1, -1):
            f, g = random_function(T, k, rng), random_function(T, k, rng)
            f.values[rng.random(len(f.values)) < 0.3] = 0
            assert np.max(np.abs(convolve(f, g).values
                                 - ref_convolve(f, g)), initial=0) < VALUE_TOL
            assert np.max(np.abs(involution(f).values
                                 - ref_involution(f)), initial=0) < VALUE_TOL
            assert np.max(np.abs(transpose(f).values
                                 - ref_transpose(f)), initial=0) < VALUE_TOL
            assert np.array_equal(structure_constants(T, k),
                                  ref_structure_constants(T, k))

    @pytest.mark.parametrize("T", TWISTS, ids=lambda T: str(len(T.sigma)))
    def test_representation(self, T):
        rng = np.random.default_rng(7)
        G = T.groupoid
        for k in (1, -1):
            f = random_function(T, k, rng)
            for x in G.units:
                want = ref_block(f, G.arrows_with_source(x))
                assert np.max(np.abs(regular_representation(f, x) - want),
                              initial=0) < VALUE_TOL
            R = realize(T, k)
            blocks = [ref_block(f, fiber) for fiber in R.fibers]
            want = np.zeros((R.total_dim, R.total_dim), dtype=complex)
            off = 0
            for B in blocks:
                want[off:off + len(B), off:off + len(B)] = B
                off += len(B)
            assert np.max(np.abs(R.represent(f) - want)) < VALUE_TOL

    @pytest.mark.parametrize("T", TWISTS, ids=lambda T: str(len(T.sigma)))
    def test_unit_lookups(self, T):
        G = T.groupoid
        assert G.orbit_representatives() == ref_orbit_representatives(G)
        for x in G.units:
            assert G.arrows_with_source(x) == tuple(
                a for a in G.arrows if G.src[a] == x)
            assert G.arrows_with_range(x) == tuple(
                a for a in G.arrows if G.rng[a] == x)
            assert isotropy(G, x) == tuple(
                a for a in G.arrows if G.src[a] == x and G.rng[a] == x)

    @pytest.mark.parametrize("T", TWISTS, ids=lambda T: str(len(T.sigma)))
    def test_validators_on_valid_tables(self, T):
        assert validate(T.groupoid) == ref_validate(T.groupoid) == []
        assert validate_cocycle(T) == ref_validate_cocycle(T) == []

    @pytest.mark.parametrize("label,G", _corrupted_groupoids(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_validate_on_corrupted_groupoids(self, label, G):
        want = ref_validate(G)
        assert want, label
        assert validate(G) == want

    @pytest.mark.parametrize("label,T", _corrupted_twists(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_validate_cocycle_on_corrupted_twists(self, label, T):
        want = ref_validate_cocycle(T)
        assert want, label
        assert validate_cocycle(T) == want

    def test_corrupted_inverse_twist(self):
        # the cocycle check on a groupoid whose tables it can still read
        G = dict(_corrupted_groupoids())["inverse"]
        sigma = dict(random_coboundary(pair_groupoid(3),
                                       np.random.default_rng(3)).sigma)
        key = ("u1<-u2", "u2<-u0")
        sigma[key] = sigma[key] * 1j
        T = CocycleTwist(G, sigma)
        assert validate_cocycle(T) == ref_validate_cocycle(T) != []

    @pytest.mark.parametrize("T", [T for label, T in _corrupted_twists()
                                   if label == "keys"],
                             ids=lambda T: f"{len(T.groupoid.arrows)}arrows")
    def test_missing_sigma_pair_is_typed(self, T):
        """The phases and the Cartan certificate of a sigma that lacks a
        composable pair raise the typed error, naming the pair."""
        missing, = set(T.groupoid.arrays.pairs) - set(T.sigma)
        for read in (lambda: T.phases(1), lambda: is_cartan_pair(realize(T))):
            with pytest.raises(SigmaUndefined,
                               match=re.escape(repr(missing))):
                read()


# --- invalid tables reach a report, not a traceback ---------------------------------

def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestInvalidTablesReported:
    def test_unknown_arrow_in_compose_entry(self, tmp_path, capsys):
        data = groupoid_to_json(cyclic_groupoid(2))
        data["compose"].append(["c0", "zz", "c0"])
        assert main(["validate", _write(tmp_path, "g.json", data)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert any("'zz'" in v for v in report["violations"])

    @pytest.mark.parametrize("cmd", ["validate", "cstar"])
    def test_unknown_composite(self, tmp_path, capsys, cmd):
        data = twist_to_json(trivial_twist(cyclic_groupoid(2)))
        data["groupoid"]["compose"] = [
            e if e[:2] != ["c1", "c1"] else ["c1", "c1", "q"]
            for e in data["groupoid"]["compose"]]
        assert main([cmd, _write(tmp_path, "t.json", data)]) == 1
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert "compose('c1','c1') is unknown arrow 'q'" in violations
        assert any(v.startswith("cocycle identity undefined at ")
                   for v in violations)


# --- source guard ----------------------------------------------------------------

SRC = Path(cartankit.__file__).parent

#: Functions that may iterate ``compose_table``: the compile step, the
#: table-building constructions, the isomorphism search and the writers.
ITERATES_TABLE = {"groupoid.py": {"__init__", "restrict_groupoid", "relabel",
                                  "extend"},
                  "serialize.py": {"groupoid_to_json"}}
_PAIR_NAMES = {"compose_table", "sigma", "pairs", "composable_pairs"}


def _own_nodes(fn):
    """The nodes of a function's body, not of the functions nested in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, ast.FunctionDef):
            todo.extend(ast.iter_child_nodes(node))


def _loops(node):
    """(loop node, its iterable expressions) for every loop in node."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.For, ast.AsyncFor)):
            yield sub, [sub.iter]
        elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                              ast.GeneratorExp)):
            yield sub, [g.iter for g in sub.generators]


def _names(expr):
    return {n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(expr) if isinstance(n, (ast.Attribute, ast.Name))}


def _iterates_table(fn):
    for node in _own_nodes(fn):
        it = None
        if isinstance(node, ast.comprehension):
            it = node.iter
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            it = node.iter
        elif isinstance(node, ast.Call) and node.args:
            it = node.args[0]
        if it is not None and any(
                isinstance(n, ast.Attribute) and n.attr == "compose_table"
                and not (isinstance(parent := getattr(n, "_parent", None),
                                    ast.Attribute) and parent.attr == "get")
                for n in ast.walk(it)):
            return True
    return False


class TestSourceGuard:
    def _tree(self, name):
        tree = ast.parse((SRC / name).read_text())
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child._parent = node
        return tree

    def test_compose_table_iterated_only_in_io_and_constructions(self):
        for path in sorted(SRC.glob("*.py")):
            tree = self._tree(path.name)
            allowed = ITERATES_TABLE.get(path.name, set())
            named = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                     and n.attr == "compose_table"]
            if path.name not in ITERATES_TABLE:
                assert not named, f"{path.name} reads compose_table"
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef) or fn.name in allowed:
                    continue
                assert not _iterates_table(fn), (
                    f"{path.name}:{fn.lineno} iterates compose_table")

    def test_no_pair_loops_in_the_algebra(self):
        guarded = {"twist.py": None, "reduced.py": None,
                   "groupoid.py": {"validate", "_axiom_lines",
                                   "_triple_checks", "_generator_pass",
                                   "generators", "_by_range",
                                   "_right_factors", "product_runs",
                                   "is_subgroupoid",
                                   "has_factorization_property"}}
        for name, only in guarded.items():
            tree = self._tree(name)
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef) or (
                        only is not None and fn.name not in only):
                    continue
                for loop, iters in _loops(fn):
                    where = f"{name}:{loop.lineno} in {fn.name}"
                    assert len(iters) == 1, f"nested loop at {where}"
                    assert not _names(iters[0]) & _PAIR_NAMES, (
                        f"loop over pairs at {where}")
                    inner = [sub for sub, _ in _loops(loop) if sub is not loop]
                    assert not inner, f"nested loop at {where}"


class TestCrosscheckTables:
    def test_wrong_composite_refused(self, monkeypatch):
        """The arrows match by corner pair; one composite does not."""
        real = cartankit.weyl.weyl_twist

        def corrupted(inc):
            W = real(inc)
            G = W.twist.groupoid
            table = dict(G.compose_table)
            table[("g0.1", "g1.0")] = "g0.0"
            H = dataclasses.replace(G, compose_table=table)
            return dataclasses.replace(W, twist=CocycleTwist(H, W.twist.sigma))

        assert envelope_uniqueness_crosscheck(mndn_inclusion(3))
        monkeypatch.setattr(cartankit.weyl, "weyl_twist", corrupted)
        assert not envelope_uniqueness_crosscheck(mndn_inclusion(3))
